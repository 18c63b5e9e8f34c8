#include "prof/profiler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/table.h"

namespace saex::prof {

bool g_enabled = false;

namespace {

constexpr size_t kN = static_cast<size_t>(Subsystem::kCount);

struct Totals {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> inclusive_ns{0};
  std::atomic<uint64_t> exclusive_ns{0};
};

Totals g_totals[kN];

struct Frame {
  Subsystem subsystem;
  uint64_t start_ns;
  uint64_t child_ns;  // time spent in nested profiled scopes
};

// One nesting stack per thread: the harness runs independent simulations on
// worker threads, and frames must never interleave across them.
thread_local std::vector<Frame> t_stack;

uint64_t now_ns() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string format_ns(uint64_t ns) {
  char buf[32];
  const double s = static_cast<double>(ns) * 1e-9;
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f s", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.3f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  }
  return buf;
}

}  // namespace

const char* subsystem_name(Subsystem s) noexcept {
  switch (s) {
    case Subsystem::kSim: return "sim";
    case Subsystem::kDisk: return "hw/disk";
    case Subsystem::kNetwork: return "hw/network";
    case Subsystem::kScheduler: return "engine/scheduler";
    case Subsystem::kShuffle: return "engine/shuffle";
    case Subsystem::kAdaptive: return "adaptive";
    case Subsystem::kMetrics: return "metrics";
    case Subsystem::kStorage: return "storage";
    case Subsystem::kOther: return "other";
    case Subsystem::kCount: break;
  }
  return "?";
}

void Profiler::init_from_env() {
  static const bool once = [] {
    const char* v = std::getenv("SAEX_PROFILE");
    if (v != nullptr &&
        (std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0)) {
      g_enabled = true;
    }
    return true;
  }();
  (void)once;
}

void Profiler::set_enabled(bool enabled) noexcept { g_enabled = enabled; }

void Profiler::record(Subsystem s, uint64_t inclusive_ns, uint64_t exclusive_ns,
                      uint64_t calls) noexcept {
  Totals& t = g_totals[static_cast<size_t>(s)];
  t.calls.fetch_add(calls, std::memory_order_relaxed);
  t.inclusive_ns.fetch_add(inclusive_ns, std::memory_order_relaxed);
  t.exclusive_ns.fetch_add(exclusive_ns, std::memory_order_relaxed);
}

void Profiler::reset() noexcept {
  for (Totals& t : g_totals) {
    t.calls.store(0, std::memory_order_relaxed);
    t.inclusive_ns.store(0, std::memory_order_relaxed);
    t.exclusive_ns.store(0, std::memory_order_relaxed);
  }
}

uint64_t Profiler::total_calls(Subsystem s) noexcept {
  return g_totals[static_cast<size_t>(s)].calls.load(std::memory_order_relaxed);
}

uint64_t Profiler::exclusive_ns(Subsystem s) noexcept {
  return g_totals[static_cast<size_t>(s)].exclusive_ns.load(
      std::memory_order_relaxed);
}

std::string Profiler::report() {
  struct Row {
    Subsystem s;
    uint64_t calls, incl, excl;
  };
  std::vector<Row> rows;
  uint64_t total_excl = 0;
  for (size_t i = 0; i < kN; ++i) {
    const uint64_t calls = g_totals[i].calls.load(std::memory_order_relaxed);
    if (calls == 0) continue;
    const Row row{static_cast<Subsystem>(i),
                  calls,
                  g_totals[i].inclusive_ns.load(std::memory_order_relaxed),
                  g_totals[i].exclusive_ns.load(std::memory_order_relaxed)};
    total_excl += row.excl;
    rows.push_back(row);
  }
  if (rows.empty()) return "";
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.excl > b.excl; });

  TextTable table({"subsystem", "calls", "inclusive", "exclusive", "excl %"});
  for (const Row& r : rows) {
    char calls[32], pct[16];
    std::snprintf(calls, sizeof(calls), "%llu",
                  static_cast<unsigned long long>(r.calls));
    std::snprintf(pct, sizeof(pct), "%5.1f%%",
                  total_excl > 0
                      ? 100.0 * static_cast<double>(r.excl) /
                            static_cast<double>(total_excl)
                      : 0.0);
    table.add_row({subsystem_name(r.s), calls, format_ns(r.incl),
                   format_ns(r.excl), pct});
  }
  return table.render();
}

std::string Profiler::report_json() {
  struct Row {
    Subsystem s;
    uint64_t calls, incl, excl;
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < kN; ++i) {
    const uint64_t calls = g_totals[i].calls.load(std::memory_order_relaxed);
    if (calls == 0) continue;
    rows.push_back(Row{static_cast<Subsystem>(i), calls,
                       g_totals[i].inclusive_ns.load(std::memory_order_relaxed),
                       g_totals[i].exclusive_ns.load(std::memory_order_relaxed)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.excl > b.excl; });

  std::string out = "{\"subsystems\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"calls\": %llu, "
                  "\"inclusive_ns\": %llu, \"exclusive_ns\": %llu}",
                  i == 0 ? "" : ",", subsystem_name(r.s),
                  static_cast<unsigned long long>(r.calls),
                  static_cast<unsigned long long>(r.incl),
                  static_cast<unsigned long long>(r.excl));
    out += buf;
  }
  out += rows.empty() ? "]}\n" : "\n]}\n";
  return out;
}

void ScopedTimer::open(Subsystem s) noexcept {
  open_ = true;
  t_stack.push_back(Frame{s, now_ns(), 0});
}

void ScopedTimer::close() noexcept {
  const Frame frame = t_stack.back();
  t_stack.pop_back();
  const uint64_t elapsed = now_ns() - frame.start_ns;
  const uint64_t excl = elapsed >= frame.child_ns ? elapsed - frame.child_ns : 0;
  Profiler::record(frame.subsystem, elapsed, excl);
  if (!t_stack.empty()) t_stack.back().child_ns += elapsed;
}

}  // namespace saex::prof
