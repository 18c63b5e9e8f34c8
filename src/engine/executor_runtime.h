// Simulated Spark executor: one per node, owning a resizable pool of task
// slots, the task execution state machine, the I/O accounting the MAPE-K
// loop senses, and the thread policy that resizes the pool.
//
// A running task alternates chunked blocking I/O (DFS reads, shuffle
// fetches, shuffle/DFS writes) with compute on the node's cores — the
// closed-loop structure that makes thread count interact with disk
// contention. Time spent blocked on I/O completions accumulates as the
// paper's "epoll wait time" ε; bytes moved accumulate as the numerator
// of throughput µ.
#pragma once

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "adaptive/policies.h"
#include "adaptive/types.h"
#include "dfs/dfs.h"
#include "engine/shuffle.h"
#include "fault/fault.h"
#include "engine/stage.h"
#include "hw/cluster.h"
#include "metrics/io_accounting.h"
#include "common/rng.h"
#include "engine/event_log.h"
#include "metrics/timeseries.h"
#include "storage/block_manager.h"

namespace saex::engine {

/// Where cached RDD partitions live at runtime (the cluster-wide block
/// directory; per-node budgets and eviction live in storage::BlockManager).
class CacheRegistry {
 public:
  struct Partition {
    int node = -1;
    Bytes mem_bytes = 0;
    Bytes spilled_bytes = 0;
    // Evicted without spilling (saex.storage.spillOnEvict=false): the data
    // is gone and the partition must be recomputed from lineage before the
    // next read.
    bool dropped = false;
  };

  /// Registers a cache. Idempotent for a matching partition count; a
  /// *different* count for an existing id throws std::logic_error (silently
  /// resizing would drop live partition state).
  void init(int cache_id, int partitions);
  bool has(int cache_id) const noexcept {
    return parts_.find(cache_id) != parts_.end();
  }
  Partition& partition(int cache_id, int p) {
    return parts_.at(cache_id).at(static_cast<size_t>(p));
  }
  const Partition& partition(int cache_id, int p) const {
    return parts_.at(cache_id).at(static_cast<size_t>(p));
  }

 private:
  std::map<int, std::vector<Partition>> parts_;
};

/// Shared references every executor needs.
struct EngineEnv {
  sim::Simulation* sim = nullptr;
  hw::Cluster* cluster = nullptr;
  dfs::Dfs* dfs = nullptr;
  ShuffleManager* shuffles = nullptr;
  CacheRegistry* caches = nullptr;
  Bytes io_chunk = mib(4);  // granularity of blocking I/O requests
  // Per-node storage budget for cached RDDs (spark.memory.fraction ×
  // spark.memory.storageFraction × node memory); overflow spills to disk.
  // Used directly only when `storage` is null (legacy path, unit rigs).
  Bytes storage_budget = 0;
  // Per-node BlockManagers (budget + eviction policy + hit/miss counters).
  // Null falls back to the legacy storage_budget arithmetic above.
  storage::StorageManager* storage = nullptr;
  // Fraction of local shuffle reads served by the OS page cache (the map
  // output was just written); the rest hits the disk.
  double shuffle_cache_fraction = 0.15;
  // Concurrent in-flight fetches per reduce task (Spark fetches shuffle
  // blocks from several hosts at once, spark.reducer.maxSizeInFlight).
  int fetch_parallelism = 2;
  // Fault injection: probability that a task attempt fails partway through
  // (saex.sim.taskFailureProb). Deterministic per (cluster seed, node, task).
  double task_failure_prob = 0.0;
  // One pathologically flaky node (saex.sim.flakyNode >= 0) with its own
  // failure probability; exercises blacklisting.
  int flaky_node = -1;
  double flaky_node_failure_prob = 0.0;
  // Fault truth shared across the cluster (saex::fault): dead executors and
  // seeded shuffle-fetch drops. Null disables every fault check.
  fault::FaultState* fault = nullptr;
  // Optional application event log (owned by the SparkContext).
  EventLog* event_log = nullptr;
};

/// Why a task attempt failed; drives the driver's recovery decision.
enum class TaskFailure {
  kNone,          // success
  kInjected,      // the attempt itself died (saex.sim.taskFailureProb):
                  // charged against spark.task.maxFailures
  kExecutorLost,  // the executor died under it: free retry elsewhere
  kFetchFailed,   // a shuffle/cache fetch failed: the driver decides whether
                  // the source data is gone (lineage recovery) or the drop
                  // was transient (charged retry)
};

struct TaskOutcome {
  bool success = true;
  TaskFailure failure = TaskFailure::kNone;
  int fetch_src = -1;      // kFetchFailed: node the fetch targeted
  int fetch_shuffle = -1;  // kFetchFailed: shuffle id (-1: cached data)
};

class ExecutorRuntime final : public adaptive::PoolEffector,
                              public adaptive::Sensor {
 public:
  /// Completion callback; `outcome.success` is false when the attempt
  /// failed and the driver should decide how (whether) to retry it.
  using TaskDone = std::function<void(const TaskSpec&, const TaskOutcome&)>;

  ExecutorRuntime(EngineEnv env, int node_id, int virtual_cores);
  ~ExecutorRuntime() override;
  ExecutorRuntime(const ExecutorRuntime&) = delete;
  ExecutorRuntime& operator=(const ExecutorRuntime&) = delete;

  // adaptive::PoolEffector — the [E]xecute phase's effector.
  void set_pool_size(int threads) override;
  int pool_size() const override { return pool_target_; }

  // adaptive::Sensor — the [M]onitor phase's sensor.
  adaptive::IoSample sample() override;

  void set_policy(std::unique_ptr<adaptive::ThreadPolicy> policy);
  adaptive::ThreadPolicy& policy() { return *policy_; }
  const adaptive::ThreadPolicy& policy() const { return *policy_; }

  int node_id() const noexcept { return node_id_; }
  int virtual_cores() const noexcept { return virtual_cores_; }
  int running() const noexcept { return running_; }
  bool has_free_slot() const noexcept { return running_ < pool_target_; }

  /// Starts a task; `on_done` fires (executor-side) at completion.
  void launch(const TaskSpec& spec, const Stage& stage, TaskDone on_done);

  /// Kills running attempts of stage `stage_uid`'s `partition` (speculation
  /// losers). The attempt drains its in-flight I/O and reports failure; the
  /// driver ignores the result since the partition is already done. Keyed by
  /// (stage, partition) because concurrent jobs share the executor.
  void cancel_task(int stage_uid, int partition);

  /// Fault injection: the executor process dies. Every running attempt
  /// drains and reports TaskFailure::kExecutorLost; tasks launched at a dead
  /// executor (messages in flight at kill time) fail the same way. The
  /// executor never comes back — mark it dead in the scheduler too.
  void kill();
  /// Chaos rejoin: a fresh, empty executor process replaces the killed one
  /// on the same node id (storage and shuffle state were dropped at kill
  /// time). No-op on a live executor.
  void revive();
  bool alive() const noexcept { return alive_; }

  /// Reserves cache-storage memory for one chunk of `(cache_id, partition)`;
  /// returns the granted amount (the rest must spill to disk through the
  /// caller's write channel). When a BlockManager is attached, the eviction
  /// policy may free committed blocks to make room — victims move to disk
  /// (a background write charged to this node's device) or are dropped for
  /// lineage recompute, and the CacheRegistry is updated either way.
  Bytes reserve_storage(int cache_id, int partition, Bytes bytes);
  Bytes storage_used() const noexcept { return storage_used_; }

  const metrics::IoCounters& io_counters() const noexcept {
    return io_.snapshot();
  }
  /// Per-second I/O throughput series (Fig. 12).
  const metrics::RateSeries& io_series() const noexcept { return io_series_; }
  /// Pool-size change history (Fig. 6 timelines).
  const metrics::TimeSeries& pool_history() const noexcept {
    return pool_history_;
  }

 private:
  struct TaskRun;

  void finish_task(TaskRun* run, const TaskOutcome& outcome);
  hw::Node& node() noexcept { return env_.cluster->node(node_id_); }

  EngineEnv env_;
  int node_id_;
  int virtual_cores_;
  int pool_target_;
  int running_ = 0;
  bool alive_ = true;
  Bytes storage_used_ = 0;
  std::unique_ptr<adaptive::ThreadPolicy> policy_;
  metrics::IoAccounting io_;
  metrics::RateSeries io_series_{1.0};
  metrics::TimeSeries pool_history_;
  Rng failure_rng_{0};
  std::list<std::unique_ptr<TaskRun>> active_;
};

}  // namespace saex::engine
