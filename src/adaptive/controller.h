// The MAPE-K feedback loop tying Monitor→Analyze→Plan→Execute together over
// a shared knowledge base (paper §5, Kephart & Chess blueprint).
//
// Event-driven: the owning executor reports stage starts and task
// completions; in completions mode an interval I_j closes after j
// completions at pool size j, in fixed-time mode (ablation) after a wall
// clock period. After a rollback or reaching the bound the loop freezes
// until the next stage.
#pragma once

#include <cstdint>
#include <optional>

#include "adaptive/analyzer.h"
#include "adaptive/knowledge.h"
#include "adaptive/monitor.h"
#include "adaptive/planner.h"
#include "adaptive/types.h"

namespace saex::adaptive {

class AdaptiveController {
 public:
  AdaptiveController(ControllerConfig config, Sensor& sensor,
                     PoolEffector& pool, SchedulerNotifier notifier);

  /// Resets tuning for a new stage: pool -> c_min (c_max when descending),
  /// first interval opens.
  void on_stage_start(int64_t stage_key, double now);

  /// Completions-mode interval accounting.
  void on_task_complete(double now);

  /// Fixed-time-mode interval accounting; no-op in completions mode.
  void on_tick(double now);

  /// Finalizes the stage record (also called implicitly by the next
  /// on_stage_start).
  void on_stage_end(double now);

  bool frozen() const noexcept { return frozen_; }
  int64_t current_stage() const noexcept { return stage_key_; }
  const ControllerConfig& config() const noexcept { return analyzer_.config(); }
  const KnowledgeBase& knowledge() const noexcept { return knowledge_; }

 private:
  void close_interval_and_decide(double now);
  // [E]xecute: applies the resize and, when required, notifies the
  // scheduler so its per-executor free-core registry matches the new pool
  // size (§5.4).
  void apply(const Plan& plan);
  void settle(bool rolled_back, bool reached_bound);

  Monitor monitor_;
  Analyzer analyzer_;
  Planner planner_;
  PoolEffector* pool_;
  SchedulerNotifier notifier_;
  KnowledgeBase knowledge_;

  int64_t stage_key_ = -1;
  bool stage_open_ = false;
  bool frozen_ = true;
  int completions_in_interval_ = 0;
  double last_tick_ = 0.0;
  std::optional<IntervalReport> previous_;
  bool rolled_back_ = false;
  bool reached_bound_ = false;
};

}  // namespace saex::adaptive
