#include "hw/network.h"

#include "prof/profiler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace saex::hw {

Network::Network(sim::Simulation& sim, int num_nodes, NetworkParams params)
    : sim_(sim),
      params_(params),
      up_count_(static_cast<size_t>(num_nodes), 0),
      down_count_(static_cast<size_t>(num_nodes), 0),
      open_count_(static_cast<size_t>(num_nodes), 0),
      open_senders_(static_cast<size_t>(num_nodes), 0),
      up_share_(static_cast<size_t>(num_nodes), 0.0),
      down_share_(static_cast<size_t>(num_nodes), 0.0),
      sent_(static_cast<size_t>(num_nodes), 0) {}

void Network::register_fetch(NodeId src, NodeId dst) { open_inc(src, dst); }

void Network::unregister_fetch(NodeId src, NodeId dst) { open_dec(src, dst); }

double Network::down_capacity_eff(int senders, int open_requests) const noexcept {
  const double src_excess = std::max(
      0.0, static_cast<double>(senders) - params_.incast_src_threshold);
  const double flow_excess = std::max(
      0.0, static_cast<double>(open_requests) - params_.incast_flow_threshold);
  return params_.down_bw /
         (1.0 + params_.incast_coeff * src_excess * flow_excess);
}

double Network::flow_rate(const Flow& f) const noexcept {
  const size_t src = static_cast<size_t>(f.src);
  const size_t dst = static_cast<size_t>(f.dst);
  assert(up_count_[src] > 0 && down_count_[dst] > 0);
  // The caches hold exactly the quotients the uncached formula computes.
  assert(up_share_[src] == up_share_of(f.src));
  assert(down_share_[dst] == down_share_of(f.dst));
  return std::min({up_share_[src], down_share_[dst], params_.per_flow_cap});
}

void Network::transfer(NodeId src, NodeId dst, Bytes bytes,
                       sim::Callback done) {
  assert(src != dst && "local data must not cross the network");
  assert(bytes >= 0);
  ++transfers_started_;
  if (bytes == 0) {
    sim_.schedule_after(params_.latency, std::move(done));
    return;
  }
  sim_.schedule_after(params_.latency, [this, src, dst, bytes,
                                        done = std::move(done)]() mutable {
    // Settle-only: the single wake-up is armed below, after the join.
    advance_and_reschedule(/*rearm=*/false);
    flows_.push_back(Flow{src, dst, static_cast<double>(bytes), std::move(done)});
    ++up_count_[static_cast<size_t>(src)];
    ++down_count_[static_cast<size_t>(dst)];
    refresh_up(src);
    open_inc(src, dst);  // refreshes dst's downlink share
    sent_[static_cast<size_t>(src)] += bytes;
    total_bytes_ += bytes;
    advance_and_reschedule();
  });
}

std::vector<sim::Callback> Network::settle(bool rearm) {
  SAEX_PROF_SCOPE(kNetwork);
  const double now = sim_.now();
  const double dt = now - last_advance_;
  if (dt > 0.0) {
    // Settle every flow at the rates implied by the *current* counts; the
    // completion sweep below must not decrement counts until all flows have
    // been settled, or later flows would settle at post-completion rates.
    for (auto& f : flows_) f.remaining -= flow_rate(f) * dt;
  }
  last_advance_ = now;

  if (pending_completion_ != sim::kInvalidEvent) {
    sim_.cancel(pending_completion_);
    pending_completion_ = sim::kInvalidEvent;
  }

  // Half-byte completion threshold + floored wake-up: see Disk for why
  // sub-byte tails must not schedule zero-advance events.
  std::vector<sim::Callback> finished = std::move(finished_scratch_);
  finished.clear();
  size_t out = 0;
  for (size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    if (f.remaining <= 0.5) {
      --up_count_[static_cast<size_t>(f.src)];
      --down_count_[static_cast<size_t>(f.dst)];
      refresh_up(f.src);
      open_dec(f.src, f.dst);  // refreshes f.dst's downlink share
      finished.push_back(std::move(f.done));
    } else {
      if (out != i) flows_[out] = std::move(f);
      ++out;
    }
  }
  flows_.resize(out);

  if (rearm && !flows_.empty()) {
    // Survivor rates reflect the post-completion counts, so this pass must
    // run after the sweep above.
    double min_time = std::numeric_limits<double>::infinity();
    for (const auto& f : flows_) {
      min_time = std::min(min_time, f.remaining / flow_rate(f));
    }
    pending_completion_ = sim_.schedule_after(std::max(min_time, 1e-9), [this] {
      pending_completion_ = sim::kInvalidEvent;
      advance_and_reschedule();
    });
  }

  return finished;
}

void Network::advance_and_reschedule(bool rearm) {
  std::vector<sim::Callback> finished = settle(rearm);
  // Outside settle()'s profiler scope: see Disk::advance_and_reschedule.
  for (auto& fn : finished) fn();
  finished.clear();
  finished_scratch_ = std::move(finished);
}

}  // namespace saex::hw
