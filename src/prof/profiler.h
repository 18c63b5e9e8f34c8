// Built-in subsystem profiler: scoped wall-clock timers with near-zero
// disabled overhead.
//
// Hot engine paths mark themselves with SAEX_PROF_SCOPE(<subsystem>); when
// profiling is off (the default) each scope costs one load and one
// well-predicted branch. When enabled — via SAEX_PROFILE=1 in the
// environment or `saexsim --profile` — every scope records wall time per
// subsystem, and report() renders a table of calls, inclusive and exclusive
// time (exclusive = inclusive minus time spent in nested profiled scopes, so
// the columns sum sensibly even though e.g. the simulation loop contains the
// disk and network models).
//
// Counters are process-global and use relaxed atomics: the harness runs
// whole simulations on worker threads, and per-subsystem totals across a
// sweep are exactly what one wants to see. The nesting stack is
// thread-local, so concurrent simulations never corrupt each other's
// exclusive-time attribution.
#pragma once

#include <cstdint>
#include <string>

namespace saex::prof {

enum class Subsystem : uint8_t {
  kSim = 0,    // event loop dispatch (sim::Simulation)
  kDisk,       // hw::Disk processor-sharing model
  kNetwork,    // hw::Network flow model
  kScheduler,  // engine::TaskScheduler offer loop + status updates
  kShuffle,    // engine::ShuffleManager bookkeeping
  kAdaptive,   // MAPE-K policy evaluation
  kMetrics,    // time-series recording
  kStorage,    // per-node BlockManager bookkeeping
  kOther,
  kCount,
};

const char* subsystem_name(Subsystem s) noexcept;

/// True while scopes are recording. A plain global read: this sits on paths
/// hot enough that even an acquire fence would show up.
extern bool g_enabled;

class Profiler {
 public:
  /// Reads SAEX_PROFILE from the environment ("1"/"true" enables) once;
  /// later calls are no-ops. Called from main()s and lazily by enable().
  static void init_from_env();
  static void set_enabled(bool enabled) noexcept;
  static bool enabled() noexcept { return g_enabled; }

  /// Adds a sample directly (used by ScopedTimer; public for tests).
  static void record(Subsystem s, uint64_t inclusive_ns, uint64_t exclusive_ns,
                     uint64_t calls = 1) noexcept;

  /// Renders the per-subsystem table (sorted by exclusive time, descending).
  /// Empty string when nothing was recorded.
  static std::string report();
  /// Machine-readable variant (saexsim --profile-json): a JSON object with a
  /// "subsystems" array of {name, calls, inclusive_ns, exclusive_ns}, same
  /// rows and order as report(). "{\"subsystems\": []}" when nothing was
  /// recorded, so consumers always get valid JSON.
  static std::string report_json();
  static void reset() noexcept;
  static uint64_t total_calls(Subsystem s) noexcept;
  static uint64_t exclusive_ns(Subsystem s) noexcept;
};

/// RAII scope timer. All work is behind the enabled check: constructing one
/// with profiling off touches nothing but g_enabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Subsystem s) noexcept {
    if (g_enabled) open(s);
  }
  ~ScopedTimer() {
    if (open_) close();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  void open(Subsystem s) noexcept;
  void close() noexcept;
  bool open_ = false;
};

#define SAEX_PROF_CONCAT_INNER(a, b) a##b
#define SAEX_PROF_CONCAT(a, b) SAEX_PROF_CONCAT_INNER(a, b)
#define SAEX_PROF_SCOPE(subsystem)                       \
  ::saex::prof::ScopedTimer SAEX_PROF_CONCAT(            \
      saex_prof_scope_, __LINE__)(::saex::prof::Subsystem::subsystem)

}  // namespace saex::prof
