#include "sim/simulation.h"

#include "prof/profiler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace saex::sim {

uint32_t Simulation::alloc_slot() {
  if (!free_slots_.empty()) {
    const uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  assert(slots_.size() < std::numeric_limits<uint32_t>::max() &&
         "slot table exhausted");
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulation::release_slot(uint32_t index) noexcept {
  Slot& slot = slots_[index];
  slot.cb.reset();
  slot.cancelled = false;
  ++slot.generation;
  free_slots_.push_back(index);
}

EventId Simulation::schedule_at(Time t, Callback fn) {
  const uint32_t index = alloc_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(fn);
  queue_.push(EventKey{std::max(t, now_), seq_++, index});
  ++live_events_;
  return make_id(slot.generation, index);
}

EventId Simulation::schedule_after(Time delay, Callback fn) {
  return schedule_at(now_ + std::max(delay, 0.0), std::move(fn));
}

bool Simulation::cancel(EventId id) {
  if (id == kInvalidEvent) return false;
  const uint64_t raw_index = (id & 0xffffffffull) - 1;
  if (raw_index >= slots_.size()) return false;
  Slot& slot = slots_[static_cast<uint32_t>(raw_index)];
  // A generation mismatch means the event already fired (or was cancelled
  // and collected) and the slot moved on; the handle is stale.
  if (slot.generation != static_cast<uint32_t>(id >> 32)) return false;
  if (slot.cancelled || !slot.cb) return false;
  slot.cancelled = true;
  slot.cb.reset();  // captured state is released eagerly, not at pop time
  assert(live_events_ > 0);
  --live_events_;
  return true;
}

void Simulation::drop_cancelled_head() {
  while (!queue_.empty() && slots_[queue_.top().slot].cancelled) {
    release_slot(queue_.pop().slot);
  }
}

bool Simulation::fire_next() {
  while (!queue_.empty()) {
    const EventKey key = queue_.pop();
    Slot& slot = slots_[key.slot];
    if (slot.cancelled) {
      release_slot(key.slot);
      continue;
    }
    assert(key.t >= now_ && "event scheduled in the past");
    now_ = key.t;
    // Move the callback out before invoking: the callback may schedule new
    // events, growing slots_ and invalidating `slot`.
    Callback cb = std::move(slot.cb);
    release_slot(key.slot);
    --live_events_;
    ++processed_;
    {
      SAEX_PROF_SCOPE(kSim);
      cb();
    }
    return true;
  }
  return false;
}

Time Simulation::run() {
  while (fire_next()) {
  }
  return now_;
}

bool Simulation::run_until(Time limit) {
  for (;;) {
    drop_cancelled_head();
    if (queue_.empty()) break;
    if (queue_.top().t > limit) {
      now_ = limit;
      return true;
    }
    fire_next();
  }
  now_ = std::max(now_, limit);
  return false;
}

bool Simulation::step() { return fire_next(); }

}  // namespace saex::sim
