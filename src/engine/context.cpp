#include "engine/context.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>
#include <stdexcept>

#include "common/format.h"
#include "common/log.h"
#include "metrics/histogram.h"

namespace saex::engine {

SparkContext::PolicyFactory policy_factory_from_config(
    const conf::Config& config) {
  const std::string policy = config.get_string("saex.executor.policy");
  const int io_threads = static_cast<int>(config.get_int("saex.static.ioThreads"));
  if (policy == "static") {
    return [io_threads](adaptive::Sensor&, adaptive::PoolEffector& pool,
                        adaptive::SchedulerNotifier notifier, int vcores) {
      return std::make_unique<adaptive::StaticIoPolicy>(
          pool, std::move(notifier), io_threads, vcores);
    };
  }
  if (policy == "dynamic") {
    // ControllerConfig is captured by value; vcores resolves maxThreads=0.
    conf::Config snapshot = config;
    return [snapshot](adaptive::Sensor& sensor, adaptive::PoolEffector& pool,
                      adaptive::SchedulerNotifier notifier, int vcores) {
      const auto cc = adaptive::ControllerConfig::from_config(snapshot, vcores);
      return std::make_unique<adaptive::DynamicPolicy>(cc, sensor, pool,
                                                       std::move(notifier));
    };
  }
  if (policy == "aimd") {
    conf::Config snapshot = config;
    return [snapshot](adaptive::Sensor& sensor, adaptive::PoolEffector& pool,
                      adaptive::SchedulerNotifier notifier, int vcores) {
      const auto cc = adaptive::ControllerConfig::from_config(snapshot, vcores);
      return std::make_unique<adaptive::AimdPolicy>(cc, sensor, pool,
                                                    std::move(notifier));
    };
  }
  if (policy != "default") {
    throw conf::ConfigError(
        strfmt::format("unknown saex.executor.policy '{}'", policy));
  }
  return [](adaptive::Sensor&, adaptive::PoolEffector& pool,
            adaptive::SchedulerNotifier notifier, int vcores) {
    return std::make_unique<adaptive::DefaultPolicy>(pool, std::move(notifier),
                                                     vcores);
  };
}

SparkContext::SparkContext(hw::Cluster& cluster, conf::Config config)
    : cluster_(&cluster), config_(std::move(config)) {
  event_log_.set_enabled(config_.get_bool("saex.eventLog.enabled"));
  dfs::Dfs::Options dfs_options;
  dfs_options.block_size = config_.get_bytes("spark.files.maxPartitionBytes");
  dfs_options.seed = cluster.spec().seed ^ 0x5a5a5a5aULL;
  dfs_ = std::make_unique<dfs::Dfs>(cluster, dfs_options);
  shuffles_ = std::make_unique<ShuffleManager>(cluster.size());
  caches_ = std::make_unique<CacheRegistry>();

  EngineEnv env;
  env.sim = &cluster.sim();
  env.cluster = &cluster;
  env.dfs = dfs_.get();
  env.shuffles = shuffles_.get();
  env.caches = caches_.get();

  // Per-node storage budget: an explicit saex.storage.memory override wins;
  // otherwise derive it from the (previously dormant) spark.memory.* /
  // spark.storage.* knobs, honoring the legacy-mode switch.
  Bytes storage_budget = config_.get_bytes("saex.storage.memory");
  if (storage_budget == 0) {
    const double mem =
        static_cast<double>(cluster.spec().memory_per_node);
    storage_budget = static_cast<Bytes>(
        config_.get_bool("spark.memory.useLegacyMode")
            ? mem * config_.get_double("spark.storage.memoryFraction")
            : mem * config_.get_double("spark.memory.fraction") *
                  config_.get_double("spark.memory.storageFraction"));
  }
  env.storage_budget = storage_budget;

  storage::BlockManager::Options bm_options;
  bm_options.memory_budget = storage_budget;
  bm_options.policy = config_.get_string("saex.storage.policy");
  bm_options.spill_on_evict = config_.get_bool("saex.storage.spillOnEvict");
  if (!storage::is_valid_eviction_policy(bm_options.policy)) {
    throw conf::ConfigError(strfmt::format(
        "unknown saex.storage.policy '{}' (valid: none, lru, clock, s3fifo, "
        "tinylfu)",
        bm_options.policy));
  }
  storage_ = std::make_unique<storage::StorageManager>(
      cluster.size(), bm_options, &metrics_);
  env.storage = storage_.get();
  shuffle_locality_ = config_.get_bool("saex.storage.shuffleLocality");
  m_recomputes_ = metrics_.counter_handle("storage/recomputes");

  aqe_ = aqe::AqeOptions::from_config(config_);
  if (aqe_.enabled && aqe_.tuner) tuner_ = std::make_unique<aqe::StageTuner>();
  m_replans_ = metrics_.counter_handle("aqe/replans");
  env.task_failure_prob = config_.get_double("saex.sim.taskFailureProb");
  env.flaky_node = static_cast<int>(config_.get_int("saex.sim.flakyNode"));
  env.flaky_node_failure_prob =
      config_.get_double("saex.sim.flakyNodeFailureProb");
  env.event_log = &event_log_;

  // Fault truth exists even with injection off (then it is entirely
  // passive), so tests can kill executors directly.
  const fault::FaultSpec fault_spec = fault::FaultSpec::from_config(config_);
  fault_state_ = std::make_unique<fault::FaultState>(
      cluster.size(), cluster.spec().seed ^ fault_spec.seed,
      fault_spec.fetch_fail_prob, fault_spec.fetch_fail_node);
  env.fault = fault_state_.get();

  const int vcores = static_cast<int>(config_.get_int("spark.executor.cores"));
  std::vector<ExecutorRuntime*> raw;
  for (int n = 0; n < cluster.size(); ++n) {
    executors_.push_back(std::make_unique<ExecutorRuntime>(env, n, vcores));
    raw.push_back(executors_.back().get());
  }
  TaskScheduler::Options sched_options;
  sched_options.max_task_failures =
      static_cast<int>(config_.get_int("spark.task.maxFailures"));
  sched_options.speculation = config_.get_bool("spark.speculation");
  sched_options.speculation_multiplier =
      config_.get_double("spark.speculation.multiplier");
  sched_options.speculation_quantile =
      config_.get_double("spark.speculation.quantile");
  sched_options.speculation_interval =
      config_.get_duration_seconds("spark.speculation.interval");
  sched_options.locality_wait =
      config_.get_duration_seconds("spark.locality.wait");
  sched_options.blacklist_enabled = config_.get_bool("spark.blacklist.enabled");
  sched_options.max_failed_tasks_per_executor = static_cast<int>(
      config_.get_int("spark.blacklist.stage.maxFailedTasksPerExecutor"));
  sched_options.event_log = &event_log_;
  sched_options.metrics = &metrics_;
  scheduler_ = std::make_unique<TaskScheduler>(cluster.sim(), raw,
                                               sched_options);
  scheduler_->set_fetch_failure_hook(
      [this](uint64_t set_id, const Stage& stage, int shuffle_id, int src_node,
             const TaskSpec& spec) {
        return on_fetch_failure(set_id, shuffle_id, src_node,
                                stage.in_cache_id, spec.partition);
      });
  scheduler_->set_task_finish_hook([this](int64_t finished) {
    if (fault_plan_) fault_plan_->notify_task_finished(finished);
  });
  if (fault_spec.enabled) {
    fault::FaultPlan::Hooks hooks;
    hooks.kill_executor = [this](int node) { kill_executor(node); };
    hooks.rejoin_executor = [this](int node) { revive_executor(node); };
    hooks.node_alive = [this](int node) {
      return fault_state_->node_alive(node);
    };
    hooks.degrade_disk = [this](int node, double factor) {
      if (node < 0 || node >= cluster_->size()) {
        SAEX_WARN("ignoring disk degrade on node {}: cluster has nodes 0..{}",
                  node, cluster_->size() - 1);
        return;
      }
      cluster_->node(node).set_disk_speed_factor(factor);
      event_log_.record(Event{EventKind::kDiskDegraded, cluster_->sim().now(),
                              -1, -1, -1, node,
                              static_cast<int64_t>(factor * 100.0), {}});
    };
    fault_plan_ = std::make_unique<fault::FaultPlan>(fault_spec, cluster.sim(),
                                                     std::move(hooks));
    fault_plan_->arm();
  }

  dag_ = std::make_unique<DagScheduler>(
      *dfs_, static_cast<int>(config_.get_int("spark.default.parallelism")));

  policy_factory_ = policy_factory_from_config(config_);
  policy_name_ = config_.get_string("saex.executor.policy");
  install_policies();
}

SparkContext::~SparkContext() = default;

void SparkContext::set_policy_factory(PolicyFactory factory) {
  policy_factory_ = std::move(factory);
  policy_name_ = "custom";
  install_policies();
}

void SparkContext::install_policies() {
  for (auto& exec : executors_) {
    auto policy = policy_factory_(*exec, *exec,
                                  scheduler_->make_notifier(exec->node_id()),
                                  exec->virtual_cores());
    policy_name_ = policy->name();
    exec->set_policy(std::move(policy));
  }
}

std::vector<TaskSpec> SparkContext::make_tasks(const Stage& stage) const {
  std::vector<TaskSpec> tasks;
  tasks.reserve(static_cast<size_t>(stage.num_tasks));
  const double cpu_per_byte =
      stage.cpu_seconds_per_input_mib / static_cast<double>(kMiB);

  for (int p = 0; p < stage.num_tasks; ++p) {
    TaskSpec t;
    t.stage_uid = stage.uid;
    t.partition = p;
    switch (stage.source) {
      case StageSource::kDfs: {
        const dfs::FileInfo* file = dfs_->lookup(stage.input_path);
        assert(file != nullptr);
        const dfs::Block& block = file->blocks[static_cast<size_t>(p)];
        t.input_bytes = block.size;
        t.preferred_nodes = block.replicas;
        break;
      }
      case StageSource::kShuffle: {
        Bytes total = 0;
        std::vector<Bytes> per_node(static_cast<size_t>(cluster_->size()), 0);
        for (const int sid : stage.in_shuffle_ids) {
          // Empty reduce_slices = identity tiling → legacy fetch path
          // (bitwise identical plans with AQE off).
          const std::vector<Bytes> plan =
              stage.reduce_slices.empty()
                  ? shuffles_->fetch_plan(sid, p, stage.num_tasks)
                  : shuffles_->fetch_plan_slice(
                        sid, stage.reduce_slices[static_cast<size_t>(p)].first,
                        stage.reduce_slices[static_cast<size_t>(p)].last,
                        stage.reduce_slices[static_cast<size_t>(p)].split_index,
                        stage.reduce_slices[static_cast<size_t>(p)].num_splits,
                        stage.reduce_partitions);
          for (size_t n = 0; n < plan.size(); ++n) {
            total += plan[n];
            per_node[n] += plan[n];
          }
        }
        t.input_bytes = total;
        // Cache-locality-aware placement (saex.storage.shuffleLocality):
        // prefer the node whose block manager holds the largest share of
        // this task's fetch plan; delay scheduling (spark.locality.wait)
        // falls back to any node if the preferred one stays busy.
        if (shuffle_locality_ && total > 0) {
          size_t best = 0;
          for (size_t n = 1; n < per_node.size(); ++n) {
            if (per_node[n] > per_node[best]) best = n;
          }
          if (per_node[best] > 0) {
            t.preferred_nodes = {static_cast<int>(best)};
          }
        }
        break;
      }
      case StageSource::kCached: {
        const auto& part = caches_->partition(stage.in_cache_id, p);
        t.input_bytes = part.mem_bytes + part.spilled_bytes;
        if (part.node >= 0) t.preferred_nodes = {part.node};
        break;
      }
      case StageSource::kNone:
        break;
    }
    t.cpu_seconds = cpu_per_byte * static_cast<double>(t.input_bytes);
    t.output_bytes = static_cast<Bytes>(static_cast<double>(t.input_bytes) *
                                        stage.output_ratio);
    t.cache_bytes = static_cast<Bytes>(static_cast<double>(t.input_bytes) *
                                       stage.cache_ratio);
    tasks.push_back(std::move(t));
  }
  return tasks;
}

void SparkContext::maybe_replan_stage(Stage& stage) {
  if (!aqe_.enabled || stage.source != StageSource::kShuffle) return;
  if (!stage.reduce_slices.empty()) return;  // already re-planned
  const int R =
      stage.reduce_partitions > 0 ? stage.reduce_partitions : stage.num_tasks;
  if (R <= 1) return;

  // Actual per-partition bytes, summed over the stage's input shuffles
  // (two for joins). Every producer has finished by now — run_job runs
  // stages sequentially, and submit_ready_stages gates on parent completion
  // — so these are committed map-output statistics, not estimates.
  std::vector<Bytes> bytes(static_cast<size_t>(R), 0);
  Bytes total = 0;
  for (const int sid : stage.in_shuffle_ids) {
    const std::vector<Bytes> part = shuffles_->reduce_partition_bytes(sid, R);
    for (int r = 0; r < R; ++r) {
      bytes[static_cast<size_t>(r)] += part[static_cast<size_t>(r)];
      total += part[static_cast<size_t>(r)];
    }
  }
  if (total == 0) return;

  // The tuner (when enabled) overrides the static coalesce target with the
  // argmin of its fitted per-task cost model; it keeps the static target
  // until the model has seen enough spread to be determined.
  aqe::AqeOptions opt = aqe_;
  if (opt.min_partitions == 0) {
    opt.min_partitions = std::max(
        1, static_cast<int>(config_.get_int("spark.default.parallelism")));
  }
  if (tuner_ != nullptr) {
    const int slots =
        static_cast<int>(executors_.size()) *
        static_cast<int>(config_.get_int("spark.executor.cores"));
    opt.target_partition_bytes =
        tuner_->choose_target(total, slots, opt.target_partition_bytes);
  }

  const aqe::AqePlan plan = aqe::plan_reduce_stage(bytes, opt);
  if (plan.identity) return;

  stage.reduce_partitions = R;
  stage.reduce_slices = plan.slices;
  stage.num_tasks = static_cast<int>(plan.slices.size());
  if (m_replans_) m_replans_.add(1.0);
  event_log_.record(Event{EventKind::kStageReplanned, cluster_->sim().now(),
                          -1, stage.ordinal, -1, -1, stage.num_tasks,
                          stage.name});
  SAEX_INFO(
      "AQE re-planned stage {} '{}': {} partitions -> {} tasks "
      "({} coalesced away, {} skew-split)",
      stage.ordinal, stage.name, R, stage.num_tasks, plan.merged_partitions,
      plan.split_partitions);
}

void SparkContext::tuner_observe_stage(const Stage& stage,
                                       const std::vector<double>& durations,
                                       const std::vector<Bytes>& task_bytes,
                                       double makespan) {
  if (tuner_ == nullptr || stage.source != StageSource::kShuffle) return;
  aqe::StageObservation obs;
  obs.durations = durations;
  obs.bytes = task_bytes;
  obs.pool_size = executors_.empty() ? 0 : executors_.front()->pool_size();
  obs.makespan = makespan;
  obs.total_bytes = stage.input_bytes;
  tuner_->observe_stage(obs);
}

void SparkContext::apply_tuner_pool_hint(const Stage& stage) {
  if (tuner_ == nullptr || stage.source != StageSource::kShuffle) return;
  if (tuner_->stages_observed() == 0) return;
  const int hint = tuner_->choose_pool_hint(executors_.front()->pool_size());
  if (hint <= 0) return;
  // Seed every executor's pool; the per-interval policy climbs from here.
  for (auto& exec : executors_) exec->set_pool_size(hint);
}

// ---------------------------------------------------------------------------
// Fault tolerance: executor loss and lineage recovery.
//
// Killing an executor loses everything its *process* held: registered
// shuffle map outputs and cached RDD partitions. DFS blocks live in the
// datanode and survive. Lost shuffle partitions are recomputed by
// resubmitting the producing stage for exactly those partitions (Spark's
// lineage resubmission); task sets that fetch from a recovering shuffle are
// parked (held) and resume when the rebuild lands. Lost cached partitions
// have no lineage here, so tasks reading them exhaust their retry budget and
// the job fails with a typed abort.
// ---------------------------------------------------------------------------

void SparkContext::kill_executor(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(executors_.size())) {
    SAEX_WARN("ignoring kill of executor {}: cluster has nodes 0..{}", node_id,
              executors_.size() - 1);
    return;
  }
  if (!fault_state_->node_alive(node_id)) return;  // idempotent
  const double now = cluster_->sim().now();
  SAEX_WARN("executor {} lost at t={:.3f}", node_id, now);
  fault_state_->mark_dead(node_id);
  event_log_.record(
      Event{EventKind::kExecutorLost, now, -1, -1, -1, node_id, 0, {}});
  if (node_fault_hook_) node_fault_hook_(node_id);
  // Order matters: stop offers first, then fail the running attempts, then
  // drop the map outputs so recovery sees the final loss.
  scheduler_->kill_executor(node_id);
  executors_[static_cast<size_t>(node_id)]->kill();
  const std::map<int, std::vector<int>> lost = shuffles_->on_node_lost(node_id);
  for (const auto& [shuffle_id, partitions] : lost) {
    recover_shuffle(shuffle_id, partitions);
  }
}

void SparkContext::revive_executor(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(executors_.size())) {
    SAEX_WARN("ignoring rejoin of executor {}: cluster has nodes 0..{}",
              node_id, executors_.size() - 1);
    return;
  }
  if (fault_state_->node_alive(node_id)) return;  // idempotent
  const double now = cluster_->sim().now();
  SAEX_WARN("executor {} rejoined at t={:.3f}", node_id, now);
  fault_state_->mark_alive(node_id);
  event_log_.record(
      Event{EventKind::kExecutorRevived, now, -1, -1, -1, node_id, 0, {}});
  // The runtime must be live before the scheduler revives the slot: revive's
  // try_assign may dispatch to the node in the same instant.
  executors_[static_cast<size_t>(node_id)]->revive();
  scheduler_->revive_executor(node_id);
}

void SparkContext::record_shuffle_producer(const Stage& stage) {
  if (stage.sink == StageSink::kShuffleWrite && stage.out_shuffle_id >= 0) {
    // Reduce-partition weights (ShuffleTraits::skew) must be registered
    // before any consumer plans its fetches; the producer is always
    // submitted — and hence recorded — first.
    shuffles_->set_reduce_skew(stage.out_shuffle_id, stage.out_skew);
    shuffle_producers_.insert_or_assign(stage.out_shuffle_id, stage);
  }
  // Cache lineage: remember who materializes each cache so partitions
  // dropped by eviction can be recomputed instead of aborting the job.
  if (stage.cache_out_id >= 0) {
    cache_producers_.insert_or_assign(stage.cache_out_id, stage);
  }
}

FetchFailureAction SparkContext::on_fetch_failure(uint64_t set_id,
                                                  int shuffle_id,
                                                  int src_node, int cache_id,
                                                  int partition) {
  if (shuffle_id < 0) {
    // Cached data. A partition dropped by eviction (owner still alive) has
    // lineage: park the set and recompute it. A partition lost with its
    // executor keeps the PR 2 semantics — charged, so the retry budget
    // bounds the job.
    if (cache_id >= 0 && caches_->has(cache_id) &&
        cache_producers_.count(cache_id) > 0 &&
        caches_->partition(cache_id, partition).dropped) {
      cache_held_sets_[cache_id].push_back(set_id);
      const auto it = recovering_caches_.find(cache_id);
      if (it == recovering_caches_.end() || it->second == 0) {
        recover_cache(cache_id, dropped_cache_partitions(cache_id));
      }
      return FetchFailureAction::kHold;
    }
    return FetchFailureAction::kCharge;
  }
  // Either way the failure is blamed on the source node — the health
  // breaker counts transient drops (flaky NIC) and dead-node fetches alike.
  if (node_fault_hook_ && src_node >= 0) node_fault_hook_(src_node);
  if (fault_state_->node_alive(src_node)) {
    // Transient seeded drop: the data is still there, charge and retry.
    return FetchFailureAction::kCharge;
  }
  const auto it = recovering_.find(shuffle_id);
  if (it != recovering_.end() && it->second > 0) {
    // Rebuild in flight: park the set; on_recovery_done releases it.
    held_sets_[shuffle_id].push_back(set_id);
    return FetchFailureAction::kHold;
  }
  // Recovery already finished (or the kill hook raced this status update):
  // a free retry re-plans its fetches against the rebuilt outputs.
  return FetchFailureAction::kRetry;
}

void SparkContext::recover_shuffle(int shuffle_id,
                                   const std::vector<int>& partitions) {
  const auto it = shuffle_producers_.find(shuffle_id);
  if (it == shuffle_producers_.end()) {
    SAEX_WARN("shuffle {} lost {} partitions but has no recorded producer",
              shuffle_id, partitions.size());
    return;
  }
  const Stage& producer = it->second;
  ++recovering_[shuffle_id];
  SAEX_WARN("resubmitting stage {} '{}' for {} lost partitions of shuffle {}",
            producer.ordinal, producer.name, partitions.size(), shuffle_id);
  event_log_.record(Event{EventKind::kStageResubmitted, cluster_->sim().now(),
                          -1, producer.ordinal, -1, -1,
                          static_cast<int64_t>(partitions.size()),
                          producer.name});

  // Park every running consumer *now*, not on its first fetch failure: once
  // on_node_lost dropped the dead node's commits, a newly launched reader
  // would plan its fetches from the surviving partial outputs and silently
  // read incomplete data (Spark's MetadataFetchFailed case).
  for (const uint64_t id : scheduler_->hold_sets_reading(shuffle_id)) {
    held_sets_[shuffle_id].push_back(id);
  }

  std::vector<TaskSpec> all = make_tasks(producer);
  std::vector<TaskSpec> tasks;
  tasks.reserve(partitions.size());
  for (const int p : partitions) {
    tasks.push_back(all[static_cast<size_t>(p)]);
  }
  // job_id -1 outranks every real job under FIFO, so the rebuild is not
  // starved by the very work that waits on it.
  scheduler_->submit_stage(
      producer, std::move(tasks), /*job_id=*/-1, "default",
      [this, shuffle_id](const TaskScheduler::TaskSetResult& result) {
        on_recovery_done(shuffle_id, result.failed);
      });
}

void SparkContext::on_recovery_done(int shuffle_id, bool failed) {
  const auto it = recovering_.find(shuffle_id);
  // No entry: the shuffle was released and its rebuild aborted.
  if (it == recovering_.end()) return;
  if (--it->second > 0) return;
  recovering_.erase(it);

  std::vector<uint64_t> held;
  if (const auto h = held_sets_.find(shuffle_id); h != held_sets_.end()) {
    held = std::move(h->second);
    held_sets_.erase(h);
  }
  if (failed) {
    SAEX_WARN("lineage recovery of shuffle {} failed; aborting dependents",
              shuffle_id);
    for (const uint64_t id : held) scheduler_->abort_set(id);
  } else {
    for (const uint64_t id : held) {
      // A set reading two recovering shuffles (a join) stays parked until the
      // last of them has been rebuilt.
      bool still_held = false;
      for (const auto& [sid, ids] : held_sets_) {
        for (const uint64_t other : ids) {
          if (other == id) {
            still_held = true;
            break;
          }
        }
        if (still_held) break;
      }
      if (!still_held) scheduler_->hold_set(id, false);
    }
    // Stages deferred because their input shuffle was rebuilding can go now.
    for (auto& [job_id, run] : jobs_) submit_ready_stages(*run);
  }
}

bool SparkContext::input_recovering(const Stage& stage) const {
  for (const int sid : stage.in_shuffle_ids) {
    if (recovering_.count(sid) > 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Evicted-block recompute: cache partitions dropped by the BlockManager
// (saex.storage.spillOnEvict=false) are rebuilt by resubmitting the
// producing stage for exactly the dropped partitions, mirroring the shuffle
// lineage path. Consumer sets that trip over a dropped partition are parked
// (kHold) and released when the rebuild lands. The recompute is one level
// deep: a producer whose own cached input was dropped as well is not
// recursively recovered (as in Spark, deep miss chains surface as retries).
// ---------------------------------------------------------------------------

std::vector<int> SparkContext::dropped_cache_partitions(int cache_id) const {
  std::vector<int> dropped;
  const auto it = dag_->caches().find(cache_id);
  if (it == dag_->caches().end()) return dropped;
  for (int p = 0; p < it->second.partitions; ++p) {
    if (caches_->partition(cache_id, p).dropped) dropped.push_back(p);
  }
  return dropped;
}

bool SparkContext::cache_recovering(const Stage& stage) const {
  return stage.source == StageSource::kCached &&
         recovering_caches_.count(stage.in_cache_id) > 0;
}

void SparkContext::maybe_recover_cache(const Stage& stage) {
  if (stage.source != StageSource::kCached) return;
  if (recovering_caches_.count(stage.in_cache_id) > 0) return;
  const std::vector<int> dropped =
      dropped_cache_partitions(stage.in_cache_id);
  if (dropped.empty()) return;
  recover_cache(stage.in_cache_id, dropped);
}

void SparkContext::recover_cache(int cache_id,
                                 const std::vector<int>& partitions) {
  if (partitions.empty()) return;
  const auto it = cache_producers_.find(cache_id);
  if (it == cache_producers_.end()) {
    SAEX_WARN("cache {} dropped {} partitions but has no recorded producer",
              cache_id, partitions.size());
    return;
  }
  const Stage& producer = it->second;
  ++recovering_caches_[cache_id];
  if (m_recomputes_) m_recomputes_.add(static_cast<double>(partitions.size()));
  SAEX_WARN(
      "resubmitting stage {} '{}' for {} evicted partitions of cache {}",
      producer.ordinal, producer.name, partitions.size(), cache_id);
  event_log_.record(Event{EventKind::kStageResubmitted, cluster_->sim().now(),
                          -1, producer.ordinal, -1, -1,
                          static_cast<int64_t>(partitions.size()),
                          producer.name});

  std::vector<TaskSpec> all = make_tasks(producer);
  std::vector<TaskSpec> tasks;
  tasks.reserve(partitions.size());
  for (const int p : partitions) {
    tasks.push_back(all[static_cast<size_t>(p)]);
  }
  // job_id -1: the rebuild outranks the work waiting on it under FIFO.
  scheduler_->submit_stage(
      producer, std::move(tasks), /*job_id=*/-1, "default",
      [this, cache_id](const TaskScheduler::TaskSetResult& result) {
        on_cache_recovery_done(cache_id, result.failed);
      });
}

void SparkContext::on_cache_recovery_done(int cache_id, bool failed) {
  const auto it = recovering_caches_.find(cache_id);
  assert(it != recovering_caches_.end() &&
         "recovery finished for unknown cache");
  if (--it->second > 0) return;
  recovering_caches_.erase(it);

  std::vector<uint64_t> held;
  if (const auto h = cache_held_sets_.find(cache_id);
      h != cache_held_sets_.end()) {
    held = std::move(h->second);
    cache_held_sets_.erase(h);
  }
  std::sort(held.begin(), held.end());
  held.erase(std::unique(held.begin(), held.end()), held.end());
  if (failed) {
    SAEX_WARN("recompute of cache {} failed; aborting dependents", cache_id);
    for (const uint64_t id : held) scheduler_->abort_set(id);
    return;
  }
  for (const uint64_t id : held) scheduler_->hold_set(id, false);
  // Stages deferred because their cached input was rebuilding can go now.
  for (auto& [job_id, run] : jobs_) submit_ready_stages(*run);
}

// ---------------------------------------------------------------------------
// Concurrent (event-driven) job submission — the saex::serve path.
//
// Instead of run_job()'s sequential stage loop, a JobRun tracks how many
// unfinished parents each stage has *within the job*; stages whose count is
// zero are submitted to the shared TaskScheduler immediately, and each
// stage-completion event unlocks its children. Stages of different jobs (and
// independent stages of one job) are therefore in flight together, arbitrated
// by the scheduler's FIFO/FAIR ordering.
//
// Per-stage rollups are window-based: cluster-wide counters are snapshotted
// at submit and diffed at completion, so with overlapping jobs a stage's
// disk/network bytes include the traffic of whatever else ran during its
// window. Utilizations are exact: busy-tracker integrals are snapshotted at
// stage start (the trackers keep no history that old) and diffed at the end.
// ---------------------------------------------------------------------------

struct SparkContext::JobRun {
  int job_id = 0;
  std::string pool;
  JobPlan plan;
  NodeRange owned;  // plan nodes released when the job settles
  std::map<int, int> pending_parents;  // stage uid -> unfinished parents
  std::map<int, int> event_ordinal;    // stage uid -> application ordinal
  std::set<int> submitted;             // stage uids handed to the scheduler
  std::map<int, uint64_t> live_sets;   // stage uid -> in-flight task-set id
  int in_flight = 0;
  size_t stages_done = 0;
  JobReport report;
  std::function<void(JobReport)> on_done;

  // Per-stage baselines snapshotted at submit (keyed by stage uid).
  struct Baseline {
    double start_time = 0.0;
    Bytes net_base = 0;
    std::vector<Bytes> disk_read, disk_written;
    std::vector<double> blocked;
    std::vector<Bytes> io_bytes;
    std::vector<double> cpu_busy, disk_busy;  // busy integrals at start_time
  };
  std::map<int, Baseline> baselines;
};

int SparkContext::submit_job(const Rdd& action, std::string app_name,
                             std::string pool,
                             std::function<void(JobReport)> on_done,
                             NodeRange owned) {
  JobPlan plan = dag_->build(action);
  for (const auto& [cache_id, info] : dag_->caches()) {
    if (!caches_->has(cache_id)) caches_->init(cache_id, info.partitions);
  }

  const int job_id = job_counter_++;
  auto run = std::make_unique<JobRun>();
  run->job_id = job_id;
  run->pool = std::move(pool);
  run->plan = std::move(plan);
  run->owned = owned;
  run->on_done = std::move(on_done);
  run->report.app_name = std::move(app_name);
  run->report.policy_name = policy_name_;
  run->report.job_id = job_id;
  run->report.pool = run->pool;
  run->report.submit_time = cluster_->sim().now();

  // Count each stage's unfinished parents *within this plan*; parents built
  // by earlier jobs (reused shuffle/cache outputs) are already materialized.
  for (const Stage& stage : run->plan.stages) {
    int pending = 0;
    for (const int parent : stage.parent_uids) {
      if (run->plan.stage_by_uid(parent) != nullptr) ++pending;
    }
    run->pending_parents[stage.uid] = pending;
    if (stage.source == StageSource::kDfs &&
        run->report.input_bytes == 0) {
      run->report.input_bytes = stage.input_bytes;
    }
  }

  event_log_.record(Event{EventKind::kJobStart, run->report.submit_time,
                          job_id, -1, -1, -1, 0, run->report.app_name});

  JobRun& ref = *run;
  jobs_.emplace(job_id, std::move(run));
  submit_ready_stages(ref);
  return job_id;
}

void SparkContext::submit_ready_stages(JobRun& run) {
  if (run.report.failed) return;  // an aborted stage cancels the rest
  for (Stage& stage : run.plan.stages) {
    if (run.pending_parents.at(stage.uid) > 0 ||
        run.submitted.count(stage.uid) > 0) {
      continue;
    }
    // A stage fetching from a shuffle under lineage recovery would only
    // fail and park; defer it until on_recovery_done resubmits. Same for a
    // cached input whose dropped partitions are being recomputed.
    if (input_recovering(stage)) continue;
    maybe_recover_cache(stage);
    if (cache_recovering(stage)) continue;
    run.submitted.insert(stage.uid);
    submit_stage_of(run, stage);
  }
}

void SparkContext::submit_stage_of(JobRun& run, Stage& stage) {
  // Re-plan before anything observes the stage shape (the kStageStart event
  // below logs num_tasks; make_tasks sizes the task set).
  maybe_replan_stage(stage);
  sim::Simulation& sim = cluster_->sim();
  const double now = sim.now();
  const int app_ordinal = app_stage_counter_++;
  run.event_ordinal[stage.uid] = app_ordinal;

  JobRun::Baseline base;
  base.start_time = now;
  base.net_base = cluster_->network().total_bytes();
  for (auto& exec : executors_) {
    const hw::Node& node = cluster_->node(exec->node_id());
    base.disk_read.push_back(node.disk().total_bytes_read());
    base.disk_written.push_back(node.disk().total_bytes_written());
    base.blocked.push_back(exec->io_counters().blocked_seconds);
    base.io_bytes.push_back(exec->io_counters().bytes_total());
    base.cpu_busy.push_back(node.cpu().busy_tracker().integral_at(now));
    base.disk_busy.push_back(node.disk().busy_tracker().integral_at(now));
  }
  run.baselines.emplace(stage.uid, std::move(base));

  event_log_.record(Event{EventKind::kStageStart, now, run.job_id,
                          app_ordinal, -1, -1, stage.num_tasks, stage.name});
  record_shuffle_producer(stage);
  ++run.in_flight;
  const int uid = stage.uid;
  const int job_id = run.job_id;
  const uint64_t set_id = scheduler_->submit_stage(
      stage, make_tasks(stage), job_id, run.pool,
      [this, job_id, uid](const TaskScheduler::TaskSetResult& result) {
        const auto it = jobs_.find(job_id);
        assert(it != jobs_.end() && "stage completed for a finished job");
        JobRun& r = *it->second;
        r.live_sets.erase(uid);
        Stage* stage = nullptr;
        for (Stage& s : r.plan.stages) {
          if (s.uid == uid) stage = &s;
        }
        assert(stage != nullptr);
        on_stage_finished(r, *stage, result);
      });
  // on_done never fires synchronously from submit_stage (the first dispatch
  // crosses the driver->executor message latency), so the id lands before
  // any completion can erase it.
  run.live_sets.emplace(uid, set_id);
}

bool SparkContext::cancel_job(int job_id) {
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  JobRun& run = *it->second;
  run.report.failed = true;
  run.report.cancelled = true;
  // Snapshot: each abort may synchronously fire its stage callback (no
  // copies in flight), mutating live_sets — and the last one finishes the
  // job and frees the JobRun.
  std::vector<uint64_t> sets;
  sets.reserve(run.live_sets.size());
  for (const auto& [uid, set_id] : run.live_sets) sets.push_back(set_id);
  for (const uint64_t set_id : sets) {
    if (jobs_.count(job_id) == 0) return true;  // finished mid-abort
    scheduler_->abort_set(set_id);
  }
  // Between stages (nothing in flight) the aborted job must still settle.
  if (const auto again = jobs_.find(job_id); again != jobs_.end()) {
    maybe_finish_job(*again->second);
  }
  return true;
}

void SparkContext::on_stage_finished(
    JobRun& run, Stage& stage, const TaskScheduler::TaskSetResult& result) {
  sim::Simulation& sim = cluster_->sim();
  const double stage_end = sim.now();
  --run.in_flight;
  ++run.stages_done;

  const int app_ordinal = run.event_ordinal.at(stage.uid);
  event_log_.record(Event{EventKind::kStageEnd, stage_end, run.job_id,
                          app_ordinal, -1, -1, 0, stage.name});

  if (result.first_launch_time >= 0.0 &&
      (run.report.first_launch_time < 0.0 ||
       result.first_launch_time < run.report.first_launch_time)) {
    run.report.first_launch_time = result.first_launch_time;
  }

  if (result.failed) {
    run.report.failed = true;
    SAEX_WARN("job {} stage {} aborted; failing the job", run.job_id,
              stage.ordinal);
  } else {
    // Register the produced output file so downstream stages can read it.
    if (stage.sink == StageSink::kDfsWrite && !dfs_->exists(stage.out_path)) {
      dfs_->create_output(stage.out_path, stage.output_bytes(), 0,
                          stage.out_replication);
    }
  }

  // Window-based stage rollup (see the submit_job comment block).
  const JobRun::Baseline& base = run.baselines.at(stage.uid);
  StageStats stats;
  stats.ordinal = stage.ordinal;
  stats.name = stage.name;
  stats.io_tagged = stage.io_tagged;
  stats.num_tasks = stage.num_tasks;
  stats.start_time = base.start_time;
  stats.end_time = stage_end;
  stats.input_bytes = stage.input_bytes;
  stats.net_bytes = cluster_->network().total_bytes() - base.net_base;

  const double dur = std::max(stage_end - base.start_time, 1e-9);
  double cpu_sum = 0.0, disk_sum = 0.0, iowait_sum = 0.0;
  for (size_t i = 0; i < executors_.size(); ++i) {
    ExecutorRuntime& exec = *executors_[i];
    const hw::Node& node = cluster_->node(exec.node_id());
    const double cpu_util = node.cpu().busy_tracker().utilization_since(
        base.start_time, base.cpu_busy[i], stage_end);
    const double disk_util = node.disk().busy_tracker().utilization_since(
        base.start_time, base.disk_busy[i], stage_end);
    const double blocked =
        exec.io_counters().blocked_seconds - base.blocked[i];
    const double cores = static_cast<double>(node.cpu().cores());
    const double iowait =
        std::min(blocked / (cores * dur), std::max(0.0, 1.0 - cpu_util));
    cpu_sum += cpu_util;
    disk_sum += disk_util;
    iowait_sum += iowait;
    stats.disk_read += node.disk().total_bytes_read() - base.disk_read[i];
    stats.disk_written +=
        node.disk().total_bytes_written() - base.disk_written[i];

    // Unlike run_job (the figure path), the concurrent path keeps only the
    // cluster-wide rollups: JobServer retains every finished JobReport, so a
    // per-executor row here is O(cluster × stages) live memory *per job* —
    // ~1 MB/job on a 10k-node cluster, which OOMs a 100k-job serve_trace_xl
    // replay. Nothing on the serve path reads StageStats::executors.
    stats.threads_total += exec.pool_size();
  }
  const double n = static_cast<double>(executors_.size());
  stats.cpu_utilization = cpu_sum / n;
  stats.disk_utilization = disk_sum / n;
  stats.iowait_fraction = iowait_sum / n;

  metrics::Histogram durations(0.01, 1.15);
  for (const double d : result.durations) {
    durations.add(d);
    stats.task_seconds += d;
  }
  stats.task_p50 = durations.quantile(0.5);
  stats.task_p95 = durations.quantile(0.95);
  stats.task_max = durations.max();
  run.report.stages.push_back(std::move(stats));
  run.baselines.erase(stage.uid);

  // Unlock children and keep the runnable set saturated.
  if (!run.report.failed) {
    for (Stage& child : run.plan.stages) {
      for (const int parent : child.parent_uids) {
        if (parent == stage.uid) --run.pending_parents.at(child.uid);
      }
    }
    submit_ready_stages(run);
  }
  maybe_finish_job(run);
}

void SparkContext::maybe_finish_job(JobRun& run) {
  const bool all_done =
      !run.report.failed && run.stages_done == run.plan.stages.size();
  const bool aborted = run.report.failed && run.in_flight == 0;
  if (!all_done && !aborted) return;

  sim::Simulation& sim = cluster_->sim();
  run.report.finish_time = sim.now();
  run.report.total_runtime = run.report.finish_time - run.report.submit_time;
  run.report.events_processed = sim.processed();
  std::sort(run.report.stages.begin(), run.report.stages.end(),
            [](const StageStats& a, const StageStats& b) {
              return a.ordinal < b.ordinal;
            });
  for (const StageStats& s : run.report.stages) {
    run.report.total_disk_bytes += s.disk_read + s.disk_written;
  }
  event_log_.record(Event{EventKind::kJobEnd, sim.now(), run.job_id, -1, -1,
                          -1, 0, run.report.app_name});

  JobReport report = std::move(run.report);
  auto on_done = std::move(run.on_done);
  const NodeRange owned = run.owned;
  jobs_.erase(report.job_id);  // `run` is dangling from here on
  release_plan(owned);
  if (on_done) on_done(std::move(report));
}

// A settled job's private plan has no readers left: free its nodes and
// everything built from them, so serve memory follows the jobs in flight,
// not every job ever run. The job's DFS output stays (a retry's
// create_output is gated on exists()).
void SparkContext::release_plan(NodeRange nodes) {
  if (nodes.empty()) return;
  for (const int sid : dag_->release(nodes)) {
    shuffles_->release(sid);
    storage_->drop_all_of(storage::BlockKind::kShuffleOutput, sid);
    shuffle_producers_.erase(sid);
    held_sets_.erase(sid);  // the settled job's own sets, already drained
    if (recovering_.erase(sid) > 0) {
      // A rebuild nobody will read ends with its shuffle. The entry goes
      // first: an abort with no copies in flight reports back synchronously.
      scheduler_->abort_sets_writing(sid);
    }
  }
  plans_.release(nodes);
}

JobReport SparkContext::run_job(const Rdd& action, std::string app_name) {
  // The DAG scheduler persists across jobs: cached RDDs and shuffle outputs
  // materialized by earlier jobs are reused, not recomputed.
  JobPlan plan = dag_->build(action);

  for (const auto& [cache_id, info] : dag_->caches()) {
    if (!caches_->has(cache_id)) caches_->init(cache_id, info.partitions);
  }

  sim::Simulation& sim = cluster_->sim();
  const int job_id = job_counter_++;

  JobReport report;
  report.app_name = std::move(app_name);
  report.policy_name = policy_name_;
  const double job_start = sim.now();
  event_log_.record(Event{EventKind::kJobStart, job_start, job_id, -1, -1, -1,
                          0, report.app_name});

  // Per-node snapshot baselines.
  struct Baseline {
    Bytes disk_read, disk_written;
    double blocked;
    Bytes io_bytes;
    double cpu_busy, disk_busy;  // busy integrals at stage start
  };

  for (Stage& stage : plan.stages) {
    // A mid-stage executor kill may have left lineage recovery in flight;
    // a consumer stage must not plan its fetches until the rebuild lands.
    // Likewise a cached input with eviction-dropped partitions is rebuilt
    // before the reader launches (rather than parking every task on a miss).
    maybe_recover_cache(stage);
    while (input_recovering(stage) || cache_recovering(stage)) {
      if (!sim.step()) {
        throw std::runtime_error(strfmt::format(
            "stage {} deadlocked waiting for lineage recovery",
            stage.ordinal));
      }
    }
    // Re-plan before anything observes the stage shape: the consumed
    // shuffle's map outputs are fully committed at this point (stages run
    // sequentially here), which is exactly the AQE interception window.
    maybe_replan_stage(stage);
    const double stage_start = sim.now();

    // Stage start: every executor's policy (re)sizes its pool. The ordinal
    // is application-wide (continues across jobs) so per-stage policies see
    // the same numbering the paper's figures use.
    const adaptive::StageContext sctx{
        static_cast<int64_t>(job_id) * 1000 + stage.ordinal,
        app_stage_counter_++, stage.io_tagged};
    for (auto& exec : executors_) {
      exec->policy().on_stage_start(sctx, stage_start);
    }
    // AQE tuner's pool-size seed overrides the policy's opening width; the
    // policy's MAPE-K loop keeps adapting from the seed within the stage.
    apply_tuner_pool_hint(stage);

    std::vector<Baseline> base;
    Bytes net_base = cluster_->network().total_bytes();
    for (auto& exec : executors_) {
      const hw::Node& node = cluster_->node(exec->node_id());
      const hw::Disk& disk = node.disk();
      base.push_back(Baseline{
          disk.total_bytes_read(), disk.total_bytes_written(),
          exec->io_counters().blocked_seconds,
          exec->io_counters().bytes_total(),
          node.cpu().busy_tracker().integral_at(stage_start),
          disk.busy_tracker().integral_at(stage_start)});
    }

    event_log_.record(Event{EventKind::kStageStart, stage_start, job_id,
                            sctx.stage_ordinal, -1, -1, stage.num_tasks,
                            stage.name});
    record_shuffle_producer(stage);
    std::optional<TaskScheduler::TaskSetResult> result;
    std::vector<TaskSpec> tasks = make_tasks(stage);
    std::vector<Bytes> task_bytes;
    if (tuner_ != nullptr) {
      task_bytes.reserve(tasks.size());
      for (const TaskSpec& t : tasks) task_bytes.push_back(t.input_bytes);
    }
    scheduler_->run_stage(
        stage, std::move(tasks),
        [&result](const TaskScheduler::TaskSetResult& r) { result = r; });
    uint64_t steps = 0;
    while (!result) {
      if (!sim.step()) {
        throw std::runtime_error(strfmt::format(
            "stage {} deadlocked: no pending events but tasks incomplete",
            stage.ordinal));
      }
      if ((++steps & 0xfffff) == 0) {
        SAEX_DEBUG("stage {}: {} steps, sim time {:.1f}s, pending {}",
                   stage.ordinal, steps, sim.now(), sim.pending());
      }
    }
    const double stage_end = sim.now();
    for (auto& exec : executors_) exec->policy().on_stage_end(stage_end);
    tuner_observe_stage(stage, result->durations, task_bytes,
                        stage_end - stage_start);
    event_log_.record(Event{EventKind::kStageEnd, stage_end, job_id,
                            sctx.stage_ordinal, -1, -1, 0, stage.name});

    if (result->failed) {
      throw StageAbortedError(
          stage.ordinal,
          strfmt::format(
              "stage {} aborted: a task exceeded spark.task.maxFailures",
              stage.ordinal));
    }

    // Register the produced output file so downstream stages could read it.
    if (stage.sink == StageSink::kDfsWrite && !dfs_->exists(stage.out_path)) {
      dfs_->create_output(stage.out_path, stage.output_bytes(), 0,
                          stage.out_replication);
    }

    // Roll up stage metrics.
    StageStats stats;
    stats.ordinal = stage.ordinal;
    stats.name = stage.name;
    stats.io_tagged = stage.io_tagged;
    stats.num_tasks = stage.num_tasks;
    stats.start_time = stage_start;
    stats.end_time = stage_end;
    stats.input_bytes = stage.input_bytes;
    stats.net_bytes = cluster_->network().total_bytes() - net_base;

    const double dur = std::max(stage_end - stage_start, 1e-9);
    double cpu_sum = 0.0, disk_sum = 0.0, iowait_sum = 0.0;
    for (size_t i = 0; i < executors_.size(); ++i) {
      ExecutorRuntime& exec = *executors_[i];
      const hw::Node& node = cluster_->node(exec.node_id());
      const double cpu_util = node.cpu().busy_tracker().utilization_since(
          stage_start, base[i].cpu_busy, stage_end);
      const double disk_util = node.disk().busy_tracker().utilization_since(
          stage_start, base[i].disk_busy, stage_end);
      const double blocked =
          exec.io_counters().blocked_seconds - base[i].blocked;
      // mpstat-style iowait: cores idle while I/O is pending; bounded by the
      // idle fraction.
      const double cores = static_cast<double>(node.cpu().cores());
      const double iowait =
          std::min(blocked / (cores * dur), std::max(0.0, 1.0 - cpu_util));

      cpu_sum += cpu_util;
      disk_sum += disk_util;
      iowait_sum += iowait;
      stats.disk_read += node.disk().total_bytes_read() - base[i].disk_read;
      stats.disk_written +=
          node.disk().total_bytes_written() - base[i].disk_written;

      ExecutorStageStats es;
      es.node = exec.node_id();
      es.threads_settled = exec.pool_size();
      es.blocked_seconds = blocked;
      es.io_bytes = exec.io_counters().bytes_total() - base[i].io_bytes;
      stats.threads_total += es.threads_settled;
      stats.executors.push_back(es);
    }
    const double n = static_cast<double>(executors_.size());
    stats.cpu_utilization = cpu_sum / n;
    stats.disk_utilization = disk_sum / n;
    stats.iowait_fraction = iowait_sum / n;

    metrics::Histogram durations(0.01, 1.15);
    for (const double d : result->durations) durations.add(d);
    stats.task_p50 = durations.quantile(0.5);
    stats.task_p95 = durations.quantile(0.95);
    stats.task_max = durations.max();

    if (stage.source == StageSource::kDfs && report.input_bytes == 0) {
      report.input_bytes = stage.input_bytes;
    }
    report.stages.push_back(std::move(stats));

    SAEX_INFO("stage {} '{}' finished in {} (threads {}/{})", stage.ordinal,
              stage.name, format_duration(stage_end - stage_start),
              report.stages.back().threads_total,
              static_cast<int>(n) *
                  static_cast<int>(config_.get_int("spark.executor.cores")));
  }

  event_log_.record(Event{EventKind::kJobEnd, sim.now(), job_id, -1, -1, -1,
                          0, report.app_name});
  report.total_runtime = sim.now() - job_start;
  report.events_processed = sim.processed();
  for (const StageStats& s : report.stages) {
    report.total_disk_bytes += s.disk_read + s.disk_written;
  }
  return report;
}

}  // namespace saex::engine
