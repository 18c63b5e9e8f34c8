// Lifetime of a settled serve job's engine state: a job attempt's private
// plan (the nodes its builder call created) is freed when the attempt
// settles, with its DAG memos, shuffle registry entries, lineage copies and
// map-output blocks. A released shuffle is never recomputed, while run_job's
// shuffles stay for later jobs to reuse.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/context.h"
#include "engine/shuffle.h"
#include "serve/job_server.h"
#include "serve/trace.h"
#include "storage/block_manager.h"

namespace saex {
namespace {

using engine::EventBuffer;
using engine::EventKind;
using engine::JobReport;
using engine::NodeRange;
using engine::Rdd;
using engine::SparkContext;
using storage::BlockKind;

// ---------- the registries on their own ----------

TEST(ShuffleRelease, LateCommitIsRejectedWithoutCountingADuplicate) {
  engine::ShuffleManager shuffles(4);
  ASSERT_TRUE(shuffles.register_map_output(0, 1, 0, 100));
  ASSERT_TRUE(shuffles.register_map_output(1, 1, 0, 100));
  EXPECT_EQ(shuffles.live_shuffles(), 2);

  shuffles.release(0);
  EXPECT_TRUE(shuffles.released(0));
  EXPECT_FALSE(shuffles.has_shuffle(0));
  EXPECT_EQ(shuffles.live_shuffles(), 1);
  // A draining speculative loser or recovery task commits late.
  EXPECT_FALSE(shuffles.register_map_output(0, 2, 1, 100));
  EXPECT_FALSE(shuffles.register_map_output(0, 1, 0, 100));
  EXPECT_EQ(shuffles.duplicate_commits(), 0);
  EXPECT_FALSE(shuffles.has_shuffle(0));

  // Node loss reports the live shuffle only.
  const auto lost = shuffles.on_node_lost(1);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost.begin()->first, 1);

  shuffles.release(1);
  shuffles.release(1);  // idempotent
  EXPECT_EQ(shuffles.live_shuffles(), 0);
  EXPECT_TRUE(shuffles.on_node_lost(2).empty());
  // Ids above the released span are untouched.
  EXPECT_TRUE(shuffles.register_map_output(2, 3, 0, 7));
  EXPECT_EQ(shuffles.total_output(2), 7);
}

TEST(ShuffleRelease, ReleasingOutOfOrderKeepsLaterShufflesIndexed) {
  engine::ShuffleManager shuffles(2);
  for (int sid = 0; sid < 4; ++sid) {
    ASSERT_TRUE(shuffles.register_map_output(sid, sid % 2, 0, 10 + sid));
  }
  shuffles.release(2);
  shuffles.release(0);  // pops 0 only: 1 is still live
  EXPECT_EQ(shuffles.total_output(1), 11);
  EXPECT_EQ(shuffles.total_output(3), 13);
  EXPECT_TRUE(shuffles.released(2));
  shuffles.release(1);  // pops 1 and 2
  EXPECT_TRUE(shuffles.released(0));
  EXPECT_TRUE(shuffles.released(1));
  EXPECT_EQ(shuffles.total_output(3), 13);
  EXPECT_EQ(shuffles.live_shuffles(), 1);
}

TEST(BlockRelease, DropsOneShufflesOutputsOnly) {
  storage::BlockManager bm(0, {}, nullptr);
  bm.add_disk({BlockKind::kShuffleOutput, 3, 0}, 10);
  bm.add_disk({BlockKind::kShuffleOutput, 3, 7}, 20);
  bm.add_disk({BlockKind::kShuffleOutput, 4, 0}, 40);
  bm.add_disk({BlockKind::kCachePartition, 3, 0}, 80);
  EXPECT_EQ(bm.num_blocks(BlockKind::kShuffleOutput), 3u);

  bm.drop_all_of(BlockKind::kShuffleOutput, 3);
  EXPECT_EQ(bm.num_blocks(BlockKind::kShuffleOutput), 1u);
  EXPECT_EQ(bm.num_blocks(BlockKind::kCachePartition), 1u);
  EXPECT_EQ(bm.disk_used(), 120);
}

TEST(PlanRelease, FreesARangeAndKeepsTheRest) {
  engine::PlanBuilder plans;
  const Rdd kept = plans.text_file("/a").map("m", {});
  const int first = plans.num_nodes();
  (void)plans.text_file("/b").map("n", {}).collect();
  const NodeRange owned{first, plans.num_nodes()};
  EXPECT_EQ(plans.live_nodes(), 5);

  plans.release(owned);
  EXPECT_EQ(plans.live_nodes(), 2);
  EXPECT_EQ(plans.num_nodes(), 5);  // ids are never reused
  EXPECT_EQ(kept.node()->name, "m");
  EXPECT_EQ(kept.node()->parents.front()->name, "textFile(/a)");
  const Rdd next = kept.collect();
  EXPECT_EQ(next.node()->id, 5);
  plans.release({0, 2});
  EXPECT_EQ(plans.live_nodes(), 1);
}

// ---------- a drained serve replay leaves nothing behind ----------

// What the engine still holds for finished jobs.
void expect_no_job_state(SparkContext& ctx) {
  EXPECT_EQ(ctx.active_jobs(), 0);
  EXPECT_EQ(ctx.plan_builder().live_nodes(), 0);
  EXPECT_EQ(ctx.dag().memo_entries(), 0u);
  EXPECT_EQ(ctx.shuffles().live_shuffles(), 0);
  EXPECT_EQ(ctx.recorded_shuffle_producers(), 0);
  EXPECT_EQ(ctx.recovering_shuffles(), 0);
  EXPECT_EQ(ctx.storage().total_blocks(BlockKind::kShuffleOutput), 0u);
  EXPECT_EQ(ctx.scheduler().active_task_sets(), 0);
}

class DrainedReplay : public ::testing::TestWithParam<int> {};

// Kill/rejoin churn, fetch drops, retries, deadlines, quarantine and AQE:
// every way a job attempt can settle, including mid-recovery.
TEST_P(DrainedReplay, LeavesNoJobState) {
  serve::TraceOptions t;
  t.num_jobs = GetParam();
  t.mean_interarrival = 3.0;
  t.seed = 3;
  t.small_input = mib(256);
  t.big_input = mib(512);
  t.dim_input = mib(128);
  t.interactive_deadline = 8.0;
  t.batch_deadline = 60.0;
  conf::Config c;
  c.set_int("spark.default.parallelism", 16);
  c.set_int("saex.serve.maxConcurrentJobs", 8);
  c.set_int("saex.serve.maxQueuedJobs", 1 << 20);
  c.set_bool("saex.eventLog.enabled", false);
  c.set_bool("saex.fault.enabled", true);
  c.set("saex.fault.chaos",
        "kill:1@20,rejoin:1@50,kill:2@60,rejoin:2@90,kill:1@150,rejoin:1@200");
  c.set_double("saex.fault.fetchFailProb", 0.3);
  c.set_int("saex.fault.fetchFailNode", 3);
  c.set_int("saex.serve.maxRetries", 2);
  c.set("saex.serve.retryBackoff", "1s");
  c.set_bool("saex.resilience.quarantine", true);
  c.set_bool("saex.aqe.enabled", true);
  hw::ClusterSpec cs = hw::ClusterSpec::das5(8);
  cs.seed = 3;
  hw::Cluster cluster(cs);
  SparkContext ctx(cluster, c);
  serve::JobServer server(ctx);
  const serve::ServeReport report = server.replay(serve::make_trace(t), t);

  ASSERT_EQ(report.submitted, GetParam());
  EXPECT_GT(report.finished, 0);
  EXPECT_GT(report.retries, 0);
  EXPECT_GT(ctx.fault_plan()->kills_fired(), 0);
  EXPECT_GT(ctx.plan_builder().num_nodes(), GetParam());
  expect_no_job_state(ctx);
}

INSTANTIATE_TEST_SUITE_P(Jobs, DrainedReplay, ::testing::Values(100, 400));

// ---------- only live shuffles are recomputed ----------

// Job A (aggregation over /a) settles; job B (a sort of /b) is mid-shuffle
// when node 1 dies. Returns the stage names lineage recovery resubmitted.
std::vector<std::string> kill_between_jobs(bool a_owns_its_plan) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config c;
  c.set_int("spark.default.parallelism", 16);
  EventBuffer events;
  SparkContext ctx(cluster, c);
  ctx.event_log().attach(events);
  ctx.dfs().load_input("/a", gib(1), 1);
  ctx.dfs().load_input("/b", gib(2), 1);
  engine::PlanBuilder& plans = ctx.plan_builder();

  bool a_done = false;
  const int a_first = plans.num_nodes();
  const Rdd a = ctx.text_file("/a")
                    .reduce_by_key("groupA", {0.01, 1.0}, 1.0)
                    .save_as_text_file("/out/a");
  ctx.submit_job(a, "A", "default", [&](JobReport r) {
    EXPECT_FALSE(r.failed);
    a_done = true;
  }, a_owns_its_plan ? NodeRange{a_first, plans.num_nodes()} : NodeRange{});
  while (!a_done && cluster.sim().step()) {
  }
  EXPECT_TRUE(a_done);

  bool b_done = false;
  const int b_first = plans.num_nodes();
  const Rdd b = ctx.text_file("/b")
                    .sort_by_key("sortB", {0.02, 1.0})
                    .save_as_text_file("/out/b");
  ctx.submit_job(b, "B", "default", [&](JobReport r) {
    EXPECT_FALSE(r.failed);
    b_done = true;
  }, NodeRange{b_first, plans.num_nodes()});
  // B's map stage ends: its reduce stage is about to fetch.
  while (events.of_kind(EventKind::kStageEnd).size() < 3 && cluster.sim().step()) {
  }
  EXPECT_FALSE(b_done);
  ctx.kill_executor(1);
  cluster.sim().run();
  EXPECT_TRUE(b_done);
  if (a_owns_its_plan) expect_no_job_state(ctx);

  std::vector<std::string> resubmitted;
  for (const engine::Event& e : events.of_kind(EventKind::kStageResubmitted)) {
    resubmitted.push_back(e.label);
  }
  return resubmitted;
}

TEST(LiveShuffleRecovery, KillAfterAJobSettledRecomputesOnlyTheLiveShuffle) {
  const std::vector<std::string> resubmitted = kill_between_jobs(true);
  ASSERT_EQ(resubmitted.size(), 1u);
  EXPECT_EQ(resubmitted[0], "textFile(/b)..sortB");
}

// The control: when A's plan is not released (run_job semantics, or a
// caller that keeps its Rdd), the same kill also rebuilds A's shuffle.
TEST(LiveShuffleRecovery, AnUnownedPlanKeepsItsShuffleRecoverable) {
  const std::vector<std::string> resubmitted = kill_between_jobs(false);
  ASSERT_EQ(resubmitted.size(), 2u);
  EXPECT_EQ(resubmitted[0], "textFile(/a)..groupA");
  EXPECT_EQ(resubmitted[1], "textFile(/b)..sortB");
}

// A job cancelled while its shuffle is being rebuilt settles before the
// rebuild does: the rebuild ends with the shuffle, and no task of it is
// dispatched once the job has settled.
TEST(LiveShuffleRecovery, ARebuildEndsWhenItsJobSettles) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config c;
  c.set_int("spark.default.parallelism", 16);
  c.set_int("spark.executor.cores", 2);  // fewer slots than rebuild tasks
  EventBuffer events;
  SparkContext ctx(cluster, c);
  ctx.event_log().attach(events);
  ctx.dfs().load_input("/in", gib(8), 1);
  engine::PlanBuilder& plans = ctx.plan_builder();

  bool done = false;
  int64_t dispatched_at_settle = -1;
  const int first = plans.num_nodes();
  const Rdd job = ctx.text_file("/in")
                      .reduce_by_key("group", {0.01, 1.0}, 1.0)
                      .save_as_text_file("/out");
  const int job_id = ctx.submit_job(job, "J", "default", [&](JobReport r) {
    EXPECT_TRUE(r.cancelled);
    EXPECT_EQ(ctx.recovering_shuffles(), 0);
    dispatched_at_settle = ctx.scheduler().tasks_dispatched();
    done = true;
  }, NodeRange{first, plans.num_nodes()});
  // The map stage ends: the reduce stage is fetching.
  while (events.of_kind(EventKind::kStageEnd).empty() && cluster.sim().step()) {
  }
  ctx.kill_executor(1);
  ASSERT_EQ(ctx.recovering_shuffles(), 1);
  ASSERT_EQ(events.of_kind(EventKind::kStageResubmitted).size(), 1u);
  ASSERT_TRUE(ctx.cancel_job(job_id));
  cluster.sim().run();

  ASSERT_TRUE(done);
  // Only copies already running when the job settled drained.
  EXPECT_EQ(ctx.scheduler().tasks_dispatched(), dispatched_at_settle);
  expect_no_job_state(ctx);
}

// ---------- run_job keeps its shuffles ----------

TEST(RunJobShuffleReuse, ASecondJobOnTheSameShuffleSkipsItsMapStage) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config c;
  c.set_int("spark.default.parallelism", 16);
  SparkContext ctx(cluster, c);
  ctx.dfs().load_input("/in", gib(1), 1);
  const Rdd grouped =
      ctx.text_file("/in").reduce_by_key("group", {0.01, 1.0}, 1.0);

  const JobReport first = ctx.run_job(grouped.save_as_text_file("/o1"), "a");
  ASSERT_EQ(first.stages.size(), 2u);
  const int64_t dispatched = ctx.scheduler().tasks_dispatched();

  const JobReport second =
      ctx.run_job(grouped.map("post", {0.01, 1.0}).save_as_text_file("/o2"),
                  "b");
  ASSERT_EQ(second.stages.size(), 1u);  // the reduce side only
  EXPECT_EQ(second.stages[0].name, "post..saveAsTextFile(/o2)");
  EXPECT_EQ(ctx.scheduler().tasks_dispatched() - dispatched,
            second.stages[0].num_tasks);
  EXPECT_EQ(ctx.shuffles().live_shuffles(), 1);
  EXPECT_GT(ctx.storage().total_blocks(BlockKind::kShuffleOutput), 0u);
}

}  // namespace
}  // namespace saex
