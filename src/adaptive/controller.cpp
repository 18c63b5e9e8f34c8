#include "adaptive/controller.h"

#include "common/log.h"
#include "prof/profiler.h"
#include "conf/config.h"

namespace saex::adaptive {

ControllerConfig ControllerConfig::from_config(const conf::Config& config,
                                               int virtual_cores) {
  ControllerConfig c;
  c.min_threads = static_cast<int>(config.get_int("saex.dynamic.minThreads"));
  c.max_threads = static_cast<int>(config.get_int("saex.dynamic.maxThreads"));
  if (c.max_threads <= 0) c.max_threads = virtual_cores;
  c.tolerance_lower = config.get_double("saex.dynamic.toleranceLower");
  c.tolerance_upper = config.get_double("saex.dynamic.toleranceUpper");
  c.min_throughput_bps =
      static_cast<double>(config.get_bytes("saex.dynamic.minThroughput"));
  c.min_disk_utilization = config.get_double("saex.dynamic.minDiskUtil");
  c.rollback = config.get_bool("saex.dynamic.rollback");
  c.descending = config.get_bool("saex.dynamic.descending");
  const std::string metric = config.get_string("saex.dynamic.metric");
  c.metric = metric == "epoll"      ? Metric::kEpollOnly
             : metric == "diskutil" ? Metric::kDiskUtil
                                    : Metric::kZeta;
  const std::string mode = config.get_string("saex.dynamic.intervalMode");
  c.interval_mode =
      mode == "fixed" ? IntervalMode::kFixedTime : IntervalMode::kCompletions;
  c.fixed_interval_seconds =
      config.get_duration_seconds("saex.dynamic.fixedIntervalSeconds");
  return c;
}

AdaptiveController::AdaptiveController(ControllerConfig config, Sensor& sensor,
                                       PoolEffector& pool,
                                       SchedulerNotifier notifier)
    : monitor_(sensor),
      analyzer_(config),
      pool_(&pool),
      notifier_(std::move(notifier)) {}

void AdaptiveController::on_stage_start(int64_t stage_key, double now) {
  if (stage_open_) on_stage_end(now);

  stage_key_ = stage_key;
  stage_open_ = true;
  frozen_ = false;
  previous_.reset();
  rolled_back_ = false;
  reached_bound_ = false;
  completions_in_interval_ = 0;
  last_tick_ = now;

  const int first = analyzer_.first_threads();
  Plan p;
  p.set_size = first;
  p.resize = pool_->pool_size() != first;
  p.notify_scheduler = p.resize;
  p.freeze = false;
  apply(p);
  monitor_.begin_interval(now, first);
}

void AdaptiveController::on_task_complete(double now) {
  if (!stage_open_ || frozen_) return;
  if (analyzer_.config().interval_mode != IntervalMode::kCompletions) return;
  ++completions_in_interval_;
  // Paper §5.1: interval I_j ends once j tasks completed at pool size j.
  if (completions_in_interval_ >= monitor_.interval_threads()) {
    close_interval_and_decide(now);
  }
}

void AdaptiveController::on_tick(double now) {
  if (!stage_open_ || frozen_) return;
  if (analyzer_.config().interval_mode != IntervalMode::kFixedTime) return;
  if (now - last_tick_ + 1e-9 < analyzer_.config().fixed_interval_seconds) return;
  last_tick_ = now;
  close_interval_and_decide(now);
}

void AdaptiveController::close_interval_and_decide(double now) {
  SAEX_PROF_SCOPE(kAdaptive);
  const IntervalReport report = monitor_.end_interval(now);
  knowledge_.record_interval(stage_key_, report);

  const Decision decision = analyzer_.decide(previous_, report);
  SAEX_DEBUG("stage {}: interval j={} eps={:.3f}s mu={:.1f}MB/s zeta={:.5f} -> {}",
             stage_key_, report.threads, report.epoll_wait,
             report.throughput() / 1e6, report.congestion_index(),
             decision.reason);

  const Plan plan = planner_.plan(decision, report.threads);
  apply(plan);

  if (plan.open_new_interval) {
    previous_ = report;
    completions_in_interval_ = 0;
    monitor_.begin_interval(now, plan.set_size);
  } else {
    frozen_ = true;
    settle(decision.action == Decision::Action::kRollback,
           decision.action == Decision::Action::kHold);
  }
}

void AdaptiveController::apply(const Plan& plan) {
  if (plan.resize) {
    pool_->set_pool_size(plan.set_size);
  }
  if (plan.notify_scheduler && notifier_) {
    notifier_(plan.set_size);
  }
}

void AdaptiveController::settle(bool rolled_back, bool reached_bound) {
  rolled_back_ = rolled_back;
  reached_bound_ = reached_bound;
  knowledge_.record_settled(stage_key_, pool_->pool_size(), rolled_back,
                            reached_bound);
}

void AdaptiveController::on_stage_end(double now) {
  if (!stage_open_) return;
  if (monitor_.interval_open()) {
    // Stage ran out of tasks mid-interval; keep the partial measurement for
    // the record but make no decision from it.
    const IntervalReport partial = monitor_.end_interval(now);
    if (partial.duration() > 0.0) knowledge_.record_interval(stage_key_, partial);
  }
  knowledge_.record_settled(stage_key_, pool_->pool_size(), rolled_back_,
                            reached_bound_);
  stage_open_ = false;
  frozen_ = true;
}

}  // namespace saex::adaptive
