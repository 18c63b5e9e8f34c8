#include "engine/plan.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace saex::engine {

Rdd PlanBuilder::text_file(std::string path) {
  RddNode node;
  node.kind = OpKind::kTextFile;
  node.name = "textFile(" + path + ")";
  node.input_path = std::move(path);
  return wrap(std::move(node));
}

Rdd PlanBuilder::wrap(RddNode node) {
  node.id = next_id_++;
  arena_.push_back(std::make_unique<RddNode>(std::move(node)));
  ++live_;
  return Rdd(this, arena_.back().get());
}

void PlanBuilder::release(NodeRange range) {
  assert(range.last <= next_id_);
  for (int id = std::max(range.first, base_); id < range.last; ++id) {
    std::unique_ptr<RddNode>& slot = arena_[static_cast<size_t>(id - base_)];
    if (slot == nullptr) continue;
    slot.reset();
    --live_;
  }
  while (!arena_.empty() && arena_.front() == nullptr) {
    arena_.pop_front();
    ++base_;
  }
}

namespace {

RddNode child_of(const Rdd& parent, OpKind kind, std::string name) {
  assert(parent.valid());
  RddNode node;
  node.kind = kind;
  node.name = std::move(name);
  node.parents = {parent.node()};
  return node;
}

}  // namespace

Rdd Rdd::map(std::string name, OpCost cost) const {
  RddNode node = child_of(*this, OpKind::kNarrow, std::move(name));
  node.cost = cost;
  return builder_->wrap(std::move(node));
}

Rdd Rdd::filter(std::string name, double selectivity,
                double cpu_seconds_per_mib) const {
  RddNode node = child_of(*this, OpKind::kNarrow, std::move(name));
  node.cost = OpCost{cpu_seconds_per_mib, selectivity};
  return builder_->wrap(std::move(node));
}

Rdd Rdd::flat_map(std::string name, OpCost cost) const {
  return map(std::move(name), cost);
}

Rdd Rdd::reduce_by_key(std::string name, OpCost map_side, double shuffle_ratio,
                       int num_partitions, ShuffleTraits traits) const {
  RddNode node = child_of(*this, OpKind::kShuffle, std::move(name));
  // The shuffle node's cost is charged to the *producing* stage: map-side
  // combine CPU plus the fraction of input bytes that get shuffled.
  node.cost = OpCost{map_side.cpu_seconds_per_mib,
                     map_side.output_ratio * shuffle_ratio};
  node.num_partitions = num_partitions;
  node.shuffle_traits = traits;
  return builder_->wrap(std::move(node));
}

Rdd Rdd::sort_by_key(std::string name, OpCost map_side,
                     int num_partitions) const {
  // Range-partitioning shuffle; all bytes move. The reduce side merges
  // already-sorted runs as a stream: no spill, large sequential I/O.
  return reduce_by_key(std::move(name), map_side, 1.0, num_partitions,
                       ShuffleTraits{0.0, 1.0});
}

Rdd Rdd::join(const Rdd& other, std::string name, OpCost cost,
              double output_ratio, int num_partitions,
              ShuffleTraits traits) const {
  assert(valid() && other.valid());
  RddNode node;
  node.kind = OpKind::kJoin;
  node.name = std::move(name);
  node.parents = {this->node(), other.node()};
  // Reduce-side cost; output_ratio applies to the total co-partitioned input.
  node.cost = OpCost{cost.cpu_seconds_per_mib, output_ratio};
  node.num_partitions = num_partitions;
  node.shuffle_traits = traits;
  return builder_->wrap(std::move(node));
}

Rdd Rdd::cache() const {
  RddNode node = child_of(*this, OpKind::kCache, "cache");
  return builder_->wrap(std::move(node));
}

Rdd Rdd::save_as_text_file(std::string path, int replication) const {
  RddNode node = child_of(*this, OpKind::kSaveFile, "saveAsTextFile(" + path + ")");
  node.output_path = std::move(path);
  node.output_replication = replication;
  return builder_->wrap(std::move(node));
}

Rdd Rdd::save_as_hadoop_file(std::string path, int replication) const {
  RddNode node =
      child_of(*this, OpKind::kSaveFile, "saveAsHadoopFile(" + path + ")");
  node.output_path = std::move(path);
  node.output_replication = replication;
  return builder_->wrap(std::move(node));
}

Rdd Rdd::collect(std::string name) const {
  RddNode node = child_of(*this, OpKind::kCollect, std::move(name));
  return builder_->wrap(std::move(node));
}

}  // namespace saex::engine
