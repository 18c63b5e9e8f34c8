#include "metrics/io_accounting.h"

#include <algorithm>
#include <cassert>
#include <cstddef>

#include "prof/profiler.h"

namespace saex::metrics {

void UtilizationTracker::set_active(double t, double active) {
  SAEX_PROF_SCOPE(kMetrics);
  assert(t + 1e-12 >= last_t_ && "time went backwards");
  t = std::max(t, last_t_);
  // Same instant, same level: the new change point would be an exact
  // duplicate of the last one (identical t, integral, active), so queries
  // are unaffected by skipping it. Bursts of transfers joining an already
  // busy device at one timestamp otherwise grow history_ by one point each.
  if (t == last_t_ && active == active_) return;
  integral_ += active_ * (t - last_t_);
  last_t_ = t;
  active_ = active;
  history_.push_back({t, integral_, active});
  // Keep the last point at or before the horizon: it answers queries that
  // start anywhere in [horizon, last_t_]. Any later query start t0 >= now -
  // lookback_ >= horizon, since rounding of the subtraction is monotone.
  const double horizon = last_t_ - lookback_;
  while (head_ + 1 < history_.size() && history_[head_ + 1].t <= horizon) {
    ++head_;
  }
  constexpr size_t kCompactMin = 32;
  if (head_ >= kCompactMin && 2 * head_ >= history_.size()) {
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

double UtilizationTracker::integral_at(double t) const {
  // Binary search the last change point at or before t.
  const auto first = history_.begin() + static_cast<std::ptrdiff_t>(head_);
  auto it = std::upper_bound(
      first, history_.end(), t,
      [](double value, const Point& p) { return value < p.t; });
  assert(it != first && "query older than the retained look-back");
  --it;
  return it->integral + it->active * (t - it->t);
}

double UtilizationTracker::utilization(double t0, double t1) const {
  if (t1 <= t0 || capacity_ <= 0.0) return 0.0;
  return utilization_since(t0, integral_at(t0), t1);
}

double UtilizationTracker::utilization_since(double t0, double integral_t0,
                                             double t1) const {
  if (t1 <= t0 || capacity_ <= 0.0) return 0.0;
  return (integral_at(t1) - integral_t0) / (capacity_ * (t1 - t0));
}

}  // namespace saex::metrics
