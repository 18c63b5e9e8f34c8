// Logical RDD plan (the engine's dataflow language).
//
// Workloads build a DAG of RDD nodes through the Rdd handle API (textFile →
// map/filter/... → reduceByKey/join/sortByKey → saveAsTextFile). Narrow ops
// carry a cost model (CPU seconds per MiB processed, output-size ratio)
// instead of user functions: the engine is a performance simulator, so what
// matters downstream is how many bytes move and how much compute each byte
// costs. Wide ops mark shuffle boundaries for the DAG scheduler.
//
// Per the paper's static solution (§4), source and sink ops mark their stage
// as I/O-tagged: textFile(), saveAsTextFile(), saveAsHadoopFile().
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"

namespace saex::engine {

enum class OpKind {
  kTextFile,   // read a DFS file; partitions = blocks
  kNarrow,     // map/filter/flatMap/...: pipelined into the stage
  kShuffle,    // wide dependency: stage boundary
  kJoin,       // wide dependency with two parents
  kCache,      // persist this RDD in executor memory
  kSaveFile,   // write a DFS file (action)
  kCollect,    // action returning (negligible) data to the driver
};

/// Cost of one logical operator, applied to its input bytes.
struct OpCost {
  double cpu_seconds_per_mib = 0.0;  // per MiB of operator input
  double output_ratio = 1.0;         // operator output bytes / input bytes
};

/// Physical characteristics of a shuffle's reduce side.
struct ShuffleTraits {
  // Fraction of fetched data sort-spilled to disk and re-read while merging
  // (hash aggregations spill; streaming merges like TeraSort's do not).
  double spill_fraction = 0.5;
  // Device work per byte for the shuffle's on-disk data relative to a large
  // sequential run; >1 models scattered small-record access.
  double scatter = 1.0;
  // Reduce-partition weight skew: partition r receives a 1/(r+1)^skew weight
  // share of every map output (0 = uniform). Models hot keys hashing into a
  // few partitions — the shape AQE's skew splitting exists for.
  double skew = 0.0;
};

struct RddNode;
// Plan nodes live in the PlanBuilder's arena (stable addresses, owned by the
// SparkContext); handles and parent edges are plain pointers — building and
// walking a plan does no shared_ptr refcount traffic.
using RddNodeRef = const RddNode*;

struct RddNode {
  int id = 0;
  OpKind kind = OpKind::kNarrow;
  std::string name;
  OpCost cost;
  std::vector<RddNodeRef> parents;

  // kTextFile
  std::string input_path;

  // kSaveFile
  std::string output_path;
  int output_replication = 1;

  // kShuffle / kJoin: number of output partitions (0 = default parallelism)
  int num_partitions = 0;
  ShuffleTraits shuffle_traits;
};

/// Plan nodes with ids in [first, last): the nodes one builder call created.
struct NodeRange {
  int first = 0;
  int last = 0;
  bool empty() const noexcept { return first >= last; }
};

class PlanBuilder;

/// Value handle over an immutable plan node; all transformations return new
/// handles (RDDs are immutable, as in Spark).
class Rdd {
 public:
  Rdd() = default;

  /// Generic narrow transformation with an explicit cost model.
  Rdd map(std::string name, OpCost cost) const;
  Rdd filter(std::string name, double selectivity,
             double cpu_seconds_per_mib = 0.001) const;
  Rdd flat_map(std::string name, OpCost cost) const;

  /// Wide transformations (stage boundaries). `map_side`/`reduce_side` costs
  /// attach to the producing and consuming stages respectively via the
  /// shuffle node's cost (map side) and a follow-on narrow node.
  Rdd reduce_by_key(std::string name, OpCost map_side, double shuffle_ratio,
                    int num_partitions = 0, ShuffleTraits traits = {}) const;
  Rdd sort_by_key(std::string name, OpCost map_side,
                  int num_partitions = 0) const;
  Rdd join(const Rdd& other, std::string name, OpCost cost,
           double output_ratio, int num_partitions = 0,
           ShuffleTraits traits = {}) const;

  /// Marks this RDD persisted in executor memory.
  Rdd cache() const;

  /// Actions.
  Rdd save_as_text_file(std::string path, int replication = 1) const;
  Rdd save_as_hadoop_file(std::string path, int replication = 1) const;
  Rdd collect(std::string name = "collect") const;
  Rdd count() const { return collect("count"); }

  RddNodeRef node() const noexcept { return node_; }
  bool valid() const noexcept { return node_ != nullptr; }

 private:
  friend class PlanBuilder;
  Rdd(PlanBuilder* builder, RddNodeRef node) : builder_(builder), node_(node) {}

  PlanBuilder* builder_ = nullptr;
  RddNodeRef node_ = nullptr;
};

/// Allocates plan nodes with unique ids into an arena; owned by the
/// SparkContext, which outlives every Rdd handle and JobPlan built from it.
/// Nodes live until released: a caller that owns a range of nodes nothing
/// else references (a serve job attempt's private plan) frees it when done.
class PlanBuilder {
 public:
  Rdd text_file(std::string path);
  Rdd wrap(RddNode node);

  /// Frees the nodes in `range`; their Rdd handles dangle from here on.
  void release(NodeRange range);

  int num_nodes() const noexcept { return next_id_; }  // ids handed out
  int live_nodes() const noexcept { return live_; }

 private:
  int next_id_ = 0;
  int live_ = 0;
  // Node id `base_ + i` lives at arena_[i]; released nodes are null until
  // the released prefix is popped. unique_ptr elements: node addresses stay
  // stable as the arena grows.
  int base_ = 0;
  std::deque<std::unique_ptr<RddNode>> arena_;
};

}  // namespace saex::engine
