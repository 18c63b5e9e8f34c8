// The sensor data the MAPE-K loop consumes.
//
// Paper §5.1: the monitor tracks (1) epoll wait time ε — accumulated time
// tasks spend blocked waiting for I/O completions (the paper measures it
// with strace; our simulated executors account blocked time directly, and
// procmon/ provides the live-Linux equivalent) — and (2) I/O throughput µ —
// bytes moved by the tasks (disk AND shuffle/network, per the paper's
// argument for why ζ also works for network-bound stages).
#pragma once

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "common/units.h"

namespace saex::metrics {

/// Monotone accumulators; the Monitor takes deltas between snapshots.
struct IoCounters {
  double blocked_seconds = 0.0;  // ε accumulator
  Bytes bytes_read = 0;          // disk + shuffle reads
  Bytes bytes_written = 0;       // disk + shuffle writes
  uint64_t tasks_completed = 0;

  Bytes bytes_total() const noexcept { return bytes_read + bytes_written; }
};

class IoAccounting {
 public:
  void add_blocked(double seconds) noexcept { counters_.blocked_seconds += seconds; }
  void add_read(Bytes b) noexcept { counters_.bytes_read += b; }
  void add_write(Bytes b) noexcept { counters_.bytes_written += b; }
  void task_completed() noexcept { ++counters_.tasks_completed; }

  const IoCounters& snapshot() const noexcept { return counters_; }
  void reset() noexcept { counters_ = IoCounters{}; }

 private:
  IoCounters counters_;
};

/// Look-back, in seconds, of the executor Monitor's disk %util reading
/// (ExecutorRuntime::sample) and therefore of every disk busy tracker.
inline constexpr double kMonitorWindowSeconds = 5.0;

/// Integral of "active units" over time for a capacity-k resource; answers
/// "average utilization over [t0, t1]" queries for disk-busy (Fig. 5),
/// CPU-busy and iowait (Fig. 1) rollups.
///
/// History is bounded by a look-back L fixed at construction: change points
/// older than L before the latest set_active() are dropped, so integral_at(t)
/// is answerable for every t >= last_change - L (debug builds assert this).
/// Readers that need an older start point snapshot integral_at() when the
/// window opens and finish with utilization_since(). The default L keeps the
/// whole run.
class UtilizationTracker {
 public:
  explicit UtilizationTracker(
      double capacity = 1.0,
      double lookback = std::numeric_limits<double>::infinity())
      : capacity_(capacity), lookback_(lookback) {}

  /// Records that `active` units are busy from sim-time `t` onward.
  /// Times must be non-decreasing.
  void set_active(double t, double active);

  /// Busy-unit-seconds accumulated up to time t.
  double integral_at(double t) const;

  /// Mean utilization (0..1) over [t0, t1].
  double utilization(double t0, double t1) const;

  /// Same, with integral_at(t0) taken earlier (e.g. at stage start). Bitwise
  /// equal to utilization(t0, t1) on an unbounded tracker: a change point
  /// added later at t0 itself adds active*(t0 - t0) = +0.0 to the integral.
  double utilization_since(double t0, double integral_t0, double t1) const;

  double capacity() const noexcept { return capacity_; }
  /// Change points currently held (for memory-bound checks).
  size_t retained_points() const noexcept { return history_.size() - head_; }

 private:
  double capacity_;
  double lookback_;
  double last_t_ = 0.0;
  double active_ = 0.0;
  double integral_ = 0.0;
  // Change points for historical queries: (t, integral_at_t, active_after_t).
  struct Point {
    double t;
    double integral;
    double active;
  };
  // Retained points are history_[head_..]; the dropped prefix is erased in
  // bulk once it is at least half the vector, so trimming is amortised O(1).
  std::vector<Point> history_{{0.0, 0.0, 0.0}};
  size_t head_ = 0;
};

}  // namespace saex::metrics
