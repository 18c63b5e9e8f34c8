// Shuffle bookkeeping: map-output registry and reduce-side fetch planning.
//
// Map tasks write their shuffle output to the local disk (like Spark's
// sort-based shuffle) and register the byte count here. A reduce task for
// partition r fetches 1/R of every map node's output: the local share is a
// disk read, remote shares are a remote disk read + network transfer.
//
// Registration is per map partition with first-commit-wins semantics, as in
// Spark's MapOutputTracker: when speculation races two copies of the same
// map task, only the first StatusUpdate commits its output — the loser's
// bytes are discarded, never double-counted. Losing a node loses every
// partition committed there (on_node_lost), which is what drives
// lineage-based resubmission of the producing stage.
//
// A shuffle whose readers are all gone is released (release()): its
// registry state is freed, later commits to it are rejected without
// counting as duplicates, and node loss no longer reports it, so nothing
// recomputes map outputs no stage will fetch.
//
// Reduce-partition weights: by default every reduce partition gets an equal
// share of each node's output (remainder bytes to low partitions). A shuffle
// may instead carry a Zipf skew exponent (ShuffleTraits::skew, registered by
// the driver via set_reduce_skew), under which partition r's weight is
// 1/(r+1)^alpha. Both cases share one cumulative-share formulation, so range
// (coalesced) and sub-range (skew-split) fetch plans are exact: bytes never
// appear or vanish when the AQE layer re-tiles a reduce stage.
#pragma once

#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "common/units.h"

namespace saex::engine {

/// One entry of a rotation-ordered fetch plan: `bytes` to pull from `src`.
struct FetchShare {
  int src;
  Bytes bytes;
};

/// Rotation-ordered view of a per-node fetch plan: the non-empty
/// (source node, bytes) pairs a reducer running on `node_id` visits, local
/// share first, then remote nodes in rotating order (node_id + i) % n so
/// fetch load spreads evenly.
std::vector<FetchShare> rotate_fetch_plan(const std::vector<Bytes>& plan,
                                          int node_id);

class ShuffleManager {
 public:
  explicit ShuffleManager(int num_nodes) : num_nodes_(num_nodes) {}

  /// Commits map `partition`'s output bytes on `node`. Returns false (and
  /// changes nothing) if that partition already has a committed copy — a
  /// losing speculative duplicate — or the shuffle was released (a late
  /// copy draining after its last reader settled; not a duplicate).
  bool register_map_output(int shuffle_id, int node, int partition,
                           Bytes bytes);

  /// Declares the shuffle's reduce-partition weight profile: partition r
  /// weighs 1/(r+1)^alpha (alpha <= 0 keeps the uniform default). Idempotent;
  /// must be set before the first fetch_plan/stats call for the shuffle.
  void set_reduce_skew(int shuffle_id, double alpha);
  double reduce_skew(int shuffle_id) const noexcept;

  /// Bytes reduce partition `partition` (of `num_partitions`) must fetch
  /// from each node. Deterministic: remainder bytes go to low partitions.
  std::vector<Bytes> fetch_plan(int shuffle_id, int partition,
                                int num_partitions) const;

  /// Slice-aware fetch plan for an AQE-re-tiled reduce stage: the bytes a
  /// task covering original partitions [first, last] — sub-split
  /// `split_index` of `num_splits` when first == last — must fetch from each
  /// node. `num_partitions` is the stage's LOGICAL reduce partition count
  /// (the pre-AQE R). With first == last and num_splits == 1 this is exactly
  /// fetch_plan(first).
  std::vector<Bytes> fetch_plan_slice(int shuffle_id, int first, int last,
                                      int split_index, int num_splits,
                                      int num_partitions) const;

  /// Per-reduce-partition fetch totals (summed over nodes) — the map-output
  /// statistics the AQE planner re-plans from. O(nodes * R), no commit-array
  /// rescans; deterministic for a deterministic replay.
  std::vector<Bytes> reduce_partition_bytes(int shuffle_id,
                                            int num_partitions) const;

  /// Per-MAP-partition committed output bytes (index = map partition,
  /// 0 for uncommitted). A copy of the commit registry exposed as a stats
  /// accessor so callers never walk commit arrays themselves.
  std::vector<Bytes> map_partition_bytes(int shuffle_id) const;

  /// Drops every partition committed on `node` (executor loss). Returns
  /// shuffle id -> the map partitions that must be recomputed, for the
  /// driver's lineage-based stage resubmission. Released shuffles are
  /// skipped.
  std::map<int, std::vector<int>> on_node_lost(int node);

  /// Frees the shuffle's state once no stage will read it again. Idempotent.
  void release(int shuffle_id);
  bool released(int shuffle_id) const noexcept;
  /// Shuffles with committed outputs that are not released.
  int live_shuffles() const noexcept;

  Bytes total_output(int shuffle_id) const noexcept;
  Bytes node_output(int shuffle_id, int node) const noexcept;
  bool has_shuffle(int shuffle_id) const noexcept {
    // True once any commit was ever registered — node loss may later remove
    // every commit, but the shuffle itself stays known (as with the old
    // outputs_ map, whose entry survived on_node_lost) until released.
    const ShuffleState* s = find(shuffle_id);
    return s != nullptr && s->created;
  }
  bool partition_committed(int shuffle_id, int partition) const noexcept;
  /// Commits rejected because the partition was already committed (always 0
  /// unless speculation raced two copies past the driver's cancellation).
  int64_t duplicate_commits() const noexcept { return duplicate_commits_; }

 private:
  // Shuffle ids are handed out densely from 0 (DagScheduler's counter), so
  // everything is directly indexed: no map hops on the per-task commit and
  // fetch-plan paths. Shuffle id `base_ + i` lives at shuffles_[i]; the
  // released prefix is popped, so the registry is as long as the span of
  // live shuffles, not of every shuffle ever made.
  struct ShuffleState {
    bool created = false;
    bool released = false;
    double skew = 0.0;                 // reduce-weight Zipf exponent (0=uniform)
    std::vector<Bytes> per_node;       // committed bytes per node
    std::vector<int32_t> commit_node;  // partition -> node (-1: uncommitted)
    std::vector<Bytes> commit_bytes;   // partition -> committed copy's bytes
    // Lazily built cumulative weight prefix for the skewed case: cum_w[r] =
    // (sum of w_0..w_{r-1}) / (sum of all R weights), size R+1. Rebuilt when
    // a different R is requested (R is fixed per shuffle in practice).
    mutable std::vector<double> cum_w;
  };

  // Null for ids below base_ (released) or never touched.
  const ShuffleState* find(int shuffle_id) const noexcept {
    if (shuffle_id < base_) return nullptr;
    const auto i = static_cast<size_t>(shuffle_id - base_);
    return i < shuffles_.size() ? &shuffles_[i] : nullptr;
  }
  // Creates the slot if needed; `shuffle_id` must not be below base_.
  ShuffleState& state_for(int shuffle_id);
  // Bytes of `total` assigned to reduce partitions [0, upto) of R. Exact
  // (cum_share(R) == total), monotone, and for the uniform case bitwise
  // equal to the historical base+remainder split.
  static Bytes cum_share(const ShuffleState& s, Bytes total, int upto, int R);
  static void ensure_weights(const ShuffleState& s, int R);

  int num_nodes_;
  int base_ = 0;
  std::deque<ShuffleState> shuffles_;  // indexed by shuffle id - base_
  int64_t duplicate_commits_ = 0;
};

}  // namespace saex::engine
