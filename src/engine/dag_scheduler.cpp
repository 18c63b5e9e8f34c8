#include "engine/dag_scheduler.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/format.h"
#include "common/log.h"

namespace saex::engine {
namespace {

constexpr double kBytesPerMib = static_cast<double>(kMiB);

struct Chain {
  // source → sink order after collection.
  std::vector<RddNodeRef> nodes;
  // What feeds the chain from below.
  StageSource source = StageSource::kNone;
  RddNodeRef boundary = nullptr;  // shuffle node (or join parents via
                                  // nodes.front())
  int cached_id = -1;
};

}  // namespace

DagScheduler::DagScheduler(const dfs::Dfs& dfs, int default_parallelism)
    : dfs_(&dfs), default_parallelism_(default_parallelism) {}

JobPlan DagScheduler::build(const Rdd& final) {
  if (!final.valid()) throw std::runtime_error("empty plan");
  JobPlan plan;
  build_stage_for(final.node(), plan.stages);
  for (size_t i = 0; i < plan.stages.size(); ++i) {
    plan.stages[i].ordinal = static_cast<int>(i);
  }
  return plan;
}

std::vector<int> DagScheduler::release(NodeRange nodes) {
  std::vector<int> shuffles;
  const auto in_range = [&](std::map<int, int>& memo) {
    return std::make_pair(memo.lower_bound(nodes.first),
                          memo.lower_bound(nodes.last));
  };
  const auto [s_first, s_last] = in_range(shuffle_by_node_);
  for (auto it = s_first; it != s_last; ++it) {
    shuffles.push_back(it->second);
    shuffle_producer_.erase(it->second);
    shuffle_bytes_.erase(it->second);
  }
  shuffle_by_node_.erase(s_first, s_last);
  const auto [t_first, t_last] = in_range(stage_by_node_);
  stage_by_node_.erase(t_first, t_last);
  std::sort(shuffles.begin(), shuffles.end());
  return shuffles;
}

// Collects the narrow chain that ends (at the top) in `top`, stopping at a
// stage boundary below. Returns nodes in source→sink order.
static Chain collect_chain(const RddNodeRef& top,
                           const std::map<int, int>& cache_by_node) {
  Chain chain;
  RddNodeRef cur = top;
  while (true) {
    if (cur->kind == OpKind::kCache) {
      const auto it = cache_by_node.find(cur->id);
      if (it != cache_by_node.end()) {
        // Already materialized by an earlier stage: read from cache.
        chain.source = StageSource::kCached;
        chain.cached_id = it->second;
        break;
      }
    }
    chain.nodes.push_back(cur);
    if (cur->kind == OpKind::kTextFile) {
      chain.source = StageSource::kDfs;
      break;
    }
    if (cur->kind == OpKind::kJoin) {
      chain.source = StageSource::kShuffle;  // both parents shuffled
      break;
    }
    assert(!cur->parents.empty());
    const RddNodeRef& parent = cur->parents.front();
    if (parent->kind == OpKind::kShuffle) {
      chain.source = StageSource::kShuffle;
      chain.boundary = parent;
      break;
    }
    cur = parent;
  }
  std::reverse(chain.nodes.begin(), chain.nodes.end());
  return chain;
}

int DagScheduler::materialize_shuffle(const RddNodeRef& node,
                                      std::vector<Stage>& out, double skew) {
  const auto it = shuffle_by_node_.find(node->id);
  if (it != shuffle_by_node_.end()) return it->second;

  const int shuffle_id = next_shuffle_id_++;
  shuffle_by_node_.emplace(node->id, shuffle_id);

  // Build the producing stage: the chain that ends in `node`. For an
  // explicit kShuffle node the chain includes it (map-side cost); for any
  // other node (a join input that is not pre-shuffled) we create an implicit
  // full shuffle of its output.
  const int producer_uid = build_stage_for(node, out);
  Stage& producer = *std::find_if(out.begin(), out.end(), [&](const Stage& s) {
    return s.uid == producer_uid;
  });
  producer.sink = StageSink::kShuffleWrite;
  producer.out_shuffle_id = shuffle_id;
  producer.out_skew = skew;
  shuffle_producer_.emplace(shuffle_id, producer_uid);
  shuffle_bytes_.emplace(shuffle_id, producer.output_bytes());
  return shuffle_id;
}

int DagScheduler::build_stage_for(const RddNodeRef& node,
                                  std::vector<Stage>& out) {
  const auto existing = stage_by_node_.find(node->id);
  if (existing != stage_by_node_.end()) return existing->second;

  Chain chain = collect_chain(node, cache_by_node_);

  Stage stage;
  stage.uid = next_stage_uid_++;
  stage.source = chain.source;

  if (chain.nodes.empty()) {
    // Pure passthrough of an already-cached RDD (e.g. a cached join input
    // being re-shuffled): no operators, all bytes forwarded.
    assert(chain.source == StageSource::kCached);
    const CacheInfo& info = caches_.at(chain.cached_id);
    stage.in_cache_id = chain.cached_id;
    stage.input_bytes = info.bytes;
    stage.num_tasks = info.partitions;
    stage.parent_uids.push_back(info.producer_uid);
    stage.name = "cached..shuffleWrite";
    stage_by_node_.emplace(node->id, stage.uid);
    out.push_back(stage);
    return stage.uid;
  }

  // Resolve the stage's input before aggregating costs.
  switch (chain.source) {
    case StageSource::kDfs: {
      const RddNodeRef& src = chain.nodes.front();
      const dfs::FileInfo* file = dfs_->lookup(src->input_path);
      if (file == nullptr) {
        throw std::runtime_error(
            strfmt::format("input file '{}' does not exist", src->input_path));
      }
      stage.input_path = src->input_path;
      stage.input_bytes = file->size;
      stage.num_tasks = static_cast<int>(file->blocks.size());
      break;
    }
    case StageSource::kShuffle: {
      const RddNodeRef& bottom = chain.nodes.front();
      int partitions = bottom->num_partitions;
      if (bottom->kind == OpKind::kJoin) {
        for (const RddNodeRef& parent : bottom->parents) {
          const int sid =
              materialize_shuffle(parent, out, bottom->shuffle_traits.skew);
          stage.in_shuffle_ids.push_back(sid);
        }
        stage.spill_fraction = bottom->shuffle_traits.spill_fraction;
        stage.scatter = bottom->shuffle_traits.scatter;
      } else {
        assert(chain.boundary && chain.boundary->kind == OpKind::kShuffle);
        stage.in_shuffle_ids.push_back(materialize_shuffle(
            chain.boundary, out, chain.boundary->shuffle_traits.skew));
        partitions = chain.boundary->num_partitions;
        stage.spill_fraction = chain.boundary->shuffle_traits.spill_fraction;
        stage.scatter = chain.boundary->shuffle_traits.scatter;
      }
      Bytes total = 0;
      for (const int sid : stage.in_shuffle_ids) {
        // The producer may belong to an earlier job (memoized shuffle);
        // its output size was recorded at materialization time.
        total += shuffle_bytes_.at(sid);
        stage.parent_uids.push_back(shuffle_producer_.at(sid));
      }
      stage.input_bytes = total;
      stage.num_tasks = partitions > 0 ? partitions : default_parallelism_;
      stage.reduce_partitions = stage.num_tasks;
      break;
    }
    case StageSource::kCached: {
      const CacheInfo& info = caches_.at(chain.cached_id);
      stage.in_cache_id = chain.cached_id;
      stage.input_bytes = info.bytes;
      stage.num_tasks = info.partitions;
      stage.parent_uids.push_back(info.producer_uid);
      break;
    }
    case StageSource::kNone:
      throw std::runtime_error("plan chain has no data source");
  }

  // Fold the narrow chain into stage aggregates.
  double ratio = 1.0;
  double cpu = 0.0;
  for (const RddNodeRef& op : chain.nodes) {
    switch (op->kind) {
      case OpKind::kTextFile:
        stage.io_tagged = true;
        break;
      case OpKind::kNarrow:
      case OpKind::kShuffle:  // map-side cost of the terminating shuffle
      case OpKind::kJoin:     // reduce-side cost of the originating join
        cpu += op->cost.cpu_seconds_per_mib * ratio;
        ratio *= op->cost.output_ratio;
        break;
      case OpKind::kCache: {
        const int cache_id = next_cache_id_++;
        cache_by_node_.emplace(op->id, cache_id);
        stage.cache_out_id = cache_id;
        stage.cache_ratio = ratio;
        caches_.emplace(
            cache_id,
            CacheInfo{stage.num_tasks,
                      static_cast<Bytes>(static_cast<double>(stage.input_bytes) * ratio),
                      stage.uid});
        break;
      }
      case OpKind::kSaveFile:
        stage.io_tagged = true;
        stage.sink = StageSink::kDfsWrite;
        stage.out_path = op->output_path;
        stage.out_replication = op->output_replication;
        break;
      case OpKind::kCollect:
        stage.sink = StageSink::kDriver;
        ratio = 0.0;  // negligible result returned to the driver
        break;
    }
  }
  stage.cpu_seconds_per_input_mib = cpu;
  stage.output_ratio = ratio;
  stage.name = strfmt::format("{}..{}", chain.nodes.front()->name,
                              chain.nodes.back()->name);

  stage_by_node_.emplace(node->id, stage.uid);
  out.push_back(stage);
  SAEX_DEBUG("stage uid={} '{}' tasks={} in={} ratio={:.3f} io={}", stage.uid,
             stage.name, stage.num_tasks, stage.input_bytes, stage.output_ratio,
             stage.io_tagged);
  return stage.uid;
}

}  // namespace saex::engine
