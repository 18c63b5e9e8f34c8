// Fault tolerance: task failure injection, retries, stage abort, and
// speculative execution.
#include <gtest/gtest.h>

#include "common/format.h"
#include "engine/context.h"

namespace saex::engine {
namespace {

conf::Config faulty_config(double failure_prob, int max_failures = 4) {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  c.set_double("saex.sim.taskFailureProb", failure_prob);
  c.set_int("spark.task.maxFailures", max_failures);
  return c;
}

TEST(FaultTolerance, RetriesMakeTheJobSucceed) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  EventBuffer events;
  SparkContext ctx(cluster, faulty_config(0.15));
  ctx.event_log().attach(events);
  ctx.dfs().load_input("/in", gib(4), 4);
  const JobReport report =
      ctx.run_job(ctx.text_file("/in").map("m", {0.01, 1.0}).count(), "flaky");

  // With a 15% per-attempt failure rate over 32 tasks, failures are certain
  // under this seed; every one must have been retried transparently.
  const auto failures = events.of_kind(EventKind::kTaskFailed);
  EXPECT_GT(failures.size(), 0u);
  // Every partition eventually succeeded exactly once.
  EXPECT_EQ(events.of_kind(EventKind::kTaskEnd).size(), 32u);
  EXPECT_GT(report.total_runtime, 0.0);
}

TEST(FaultTolerance, FailedAttemptsCostTime) {
  auto run = [](double prob) {
    hw::Cluster cluster(hw::ClusterSpec::das5(4));
    SparkContext ctx(cluster, faulty_config(prob, /*max_failures=*/8));
    ctx.dfs().load_input("/in", gib(4), 4);
    return ctx.run_job(ctx.text_file("/in").count(), "x").total_runtime;
  };
  EXPECT_GT(run(0.22), run(0.0));
}

TEST(FaultTolerance, ExhaustedAttemptsAbortTheJob) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  // Every attempt fails and only one attempt is allowed.
  SparkContext ctx(cluster, faulty_config(1.0, /*max_failures=*/1));
  ctx.dfs().load_input("/in", mib(256), 2);
  EXPECT_THROW((void)ctx.run_job(ctx.text_file("/in").count(), "doomed"),
               std::runtime_error);
}

TEST(FaultTolerance, FailedAttemptsDoNotAdvanceTheTuningInterval) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config = faulty_config(1.0, /*max_failures=*/1);
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", mib(256), 2);
  try {
    (void)ctx.run_job(ctx.text_file("/in").count(), "doomed");
  } catch (const std::runtime_error&) {
  }
  // No attempt succeeded, so the executors report zero completions.
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(ctx.executor(n).io_counters().tasks_completed, 0u);
  }
}

TEST(FaultTolerance, DeterministicGivenSeed) {
  auto run = [] {
    hw::Cluster cluster(hw::ClusterSpec::das5(4));
    SparkContext ctx(cluster, faulty_config(0.2));
    ctx.dfs().load_input("/in", gib(2), 4);
    return ctx.run_job(ctx.text_file("/in").count(), "x").total_runtime;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Speculation, DuplicatesStragglersOnSlowNodes) {
  // One pathologically slow disk; speculation should re-run its tasks
  // elsewhere and beat the no-speculation run.
  auto run = [](bool speculation) {
    hw::ClusterSpec spec = hw::ClusterSpec::das5(4);
    spec.seed = 1234;
    spec.slow_disk_prob = 0.0;
    hw::Cluster cluster(spec);
    // Manually: the cluster spec draws factors near 1; emulate a straggler
    // node by giving node 3's tasks a huge cpu cost? Simpler: rely on the
    // built-in outlier by forcing the probability.
    (void)cluster;
    hw::ClusterSpec slow = spec;
    slow.slow_disk_prob = 0.25;  // likely exactly one slow disk at 44% speed
    slow.slow_disk_factor = 0.25;
    hw::Cluster c2(slow);
    conf::Config config;
    config.set("spark.default.parallelism", "16");
    config.set_bool("spark.speculation", speculation);
    config.set_double("spark.speculation.multiplier", 1.4);
    config.set_double("spark.speculation.quantile", 0.5);
    SparkContext ctx(c2, config);
    ctx.dfs().load_input("/in", gib(8), 4);
    const JobReport r = ctx.run_job(ctx.text_file("/in").count(), "spec");
    return std::make_pair(r.total_runtime,
                          ctx.scheduler().speculative_launches());
  };
  const auto [with_time, with_launches] = run(true);
  const auto [without_time, without_launches] = run(false);
  EXPECT_EQ(without_launches, 0);
  EXPECT_GT(with_launches, 0);
  EXPECT_LT(with_time, without_time);
}

TEST(Speculation, NoStragglersNoSpeculation) {
  hw::ClusterSpec spec = hw::ClusterSpec::das5(4);
  spec.disk_sigma = 0.0;  // perfectly homogeneous
  spec.slow_disk_prob = 0.0;
  spec.cpu_sigma = 0.0;
  hw::Cluster cluster(spec);
  conf::Config config;
  config.set("spark.default.parallelism", "16");
  config.set_bool("spark.speculation", true);
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", gib(4), 4);
  (void)ctx.run_job(ctx.text_file("/in").count(), "uniform");
  EXPECT_EQ(ctx.scheduler().speculative_launches(), 0);
}

}  // namespace
}  // namespace saex::engine

namespace saex::engine {
namespace {

TEST(Blacklisting, FlakyExecutorGetsExcluded) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config config;
  config.set("spark.default.parallelism", "16");
  config.set_int("saex.sim.flakyNode", 2);
  config.set_double("saex.sim.flakyNodeFailureProb", 1.0);  // always fails
  config.set_bool("spark.blacklist.enabled", true);
  config.set_int("spark.task.maxFailures", 12);
  EventBuffer events;
  SparkContext ctx(cluster, config);
  ctx.event_log().attach(events);
  ctx.dfs().load_input("/in", gib(4), 4);
  const JobReport report = ctx.run_job(ctx.text_file("/in").count(), "flaky2");
  // The job succeeds: node 2's work moved elsewhere once it was blacklisted.
  EXPECT_EQ(events.of_kind(EventKind::kTaskEnd).size(), 32u);
  EXPECT_GT(report.total_runtime, 0.0);
  // Node 2 never completed anything.
  EXPECT_EQ(ctx.executor(2).io_counters().tasks_completed, 0u);
}

TEST(Blacklisting, CutsWastedAttemptsOnAFullyFlakyNode) {
  auto failed_attempts = [](bool blacklist) {
    hw::Cluster cluster(hw::ClusterSpec::das5(4));
    conf::Config config;
    config.set("spark.default.parallelism", "16");
    config.set_int("saex.sim.flakyNode", 2);
    config.set_double("saex.sim.flakyNodeFailureProb", 1.0);
    config.set_bool("spark.blacklist.enabled", blacklist);
    config.set_int("spark.task.maxFailures", 16);
    EventBuffer events;
    SparkContext ctx(cluster, config);
    ctx.event_log().attach(events);
    // Replication 1: node 2's blocks are local only to node 2, so without
    // blacklisting it keeps re-picking (and killing) its own tasks until
    // delay scheduling lets healthy nodes steal them.
    ctx.dfs().load_input("/in", gib(4), 1);
    (void)ctx.run_job(ctx.text_file("/in").count(), "x");
    return events.of_kind(EventKind::kTaskFailed).size();
  };
  // With blacklisting node 2 is cut off after its second failure; without
  // it, the node keeps drawing and killing attempts until the stage ends.
  const size_t with = failed_attempts(true);
  const size_t without = failed_attempts(false);
  // The first wave (8 concurrent attempts on node 2) is already in flight
  // when the blacklist trips; everything after it is saved.
  EXPECT_LE(with, 10u);
  EXPECT_GT(without, with);
}

TEST(DelayScheduling, LocalityWaitKeepsTasksLocal) {
  auto net_bytes = [](double wait_seconds) {
    hw::ClusterSpec spec = hw::ClusterSpec::das5(4);
    // One markedly slow node: fast nodes drain their local tasks first and
    // would steal the slow node's blocks unless delay scheduling holds them.
    spec.disk_sigma = 0.0;
    spec.slow_disk_prob = 0.0;
    hw::Cluster cluster(spec);
    cluster.sim();  // (cluster unused; the slow variant below is what runs)
    hw::ClusterSpec slow = spec;
    slow.seed = 5;
    slow.slow_disk_prob = 0.25;
    slow.slow_disk_factor = 0.3;
    hw::Cluster c2(slow);
    conf::Config config;
    config.set("spark.default.parallelism", "16");
    config.set_int("spark.executor.cores", 8);  // 2+ waves of tasks
    config.set("spark.locality.wait",
               strfmt::format("{:.1f}s", wait_seconds));
    SparkContext ctx(c2, config);
    // Replication 1: every block has exactly one home.
    ctx.dfs().load_input("/in", gib(8), 1, mib(64));
    (void)ctx.run_job(ctx.text_file("/in").count(), "local");
    return c2.network().total_bytes();
  };
  // A generous wait keeps everything node-local; no wait lets idle nodes
  // steal remote blocks (some cross-node traffic appears).
  EXPECT_EQ(net_bytes(600.0), 0);
  EXPECT_GT(net_bytes(0.0), 0);
}

TEST(AimdPolicy, RunsAndStaysInBounds) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config config;
  config.set("saex.executor.policy", "aimd");
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", gib(8), 4);
  const JobReport report =
      ctx.run_job(ctx.text_file("/in").save_as_text_file("/out"), "aimd");
  for (const auto& s : report.stages) {
    for (const auto& es : s.executors) {
      EXPECT_GE(es.threads_settled, 2);
      EXPECT_LE(es.threads_settled, 32);
    }
  }
  EXPECT_EQ(report.policy_name, "aimd");
}

// Shuffle fetch faults: the per-chunk fetch path must leave the hw::Network
// open-stream ledger balanced however its fetches end.
struct ShuffleRun {
  double makespan = 0.0;
  int64_t dropped = 0;
  int open_fetches = 0;  // Σ fetches_to + senders_to at job end — must be 0
};

ShuffleRun run_faulty_shuffle(conf::Config config) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  config.set("spark.default.parallelism", "16");
  config.set_bool("saex.fault.enabled", true);
  SparkContext ctx(cluster, std::move(config));
  ctx.dfs().load_input("/in", gib(2), 4);
  const JobReport report = ctx.run_job(
      ctx.text_file("/in").reduce_by_key("g", {0.01, 1.0}, 1.0).count(),
      "fetchfaults");
  ShuffleRun out;
  out.makespan = report.total_runtime;
  out.dropped = cluster.network().dropped_fetches();
  for (int n = 0; n < cluster.size(); ++n) {
    out.open_fetches += cluster.network().fetches_to(n);
    out.open_fetches += cluster.network().senders_to(n);
  }
  return out;
}

TEST(FetchFaults, DroppedFetchesUnregister) {
  // Seeded fetch drops force the abort/retry path; afterwards every
  // register_fetch must have been matched by unregister_fetch (the
  // open-request and distinct-sender rollups read zero), or the incast
  // model would degrade for the rest of the run.
  conf::Config c;
  c.set_double("saex.fault.fetchFailProb", 0.05);
  const ShuffleRun run = run_faulty_shuffle(std::move(c));
  EXPECT_GT(run.dropped, 0);
  EXPECT_EQ(run.open_fetches, 0);
  EXPECT_GT(run.makespan, 0.0);
}

TEST(FetchFaults, OpenStreamsBalanceUnderChaosChurn) {
  // Kill an executor mid-shuffle (in-flight fetches to/from it die with
  // lineage recovery) and rejoin it later; the open-stream ledger must
  // still unwind to zero.
  conf::Config c;
  c.set("saex.fault.chaos", "kill:1@40,rejoin:1@120");
  const ShuffleRun run = run_faulty_shuffle(std::move(c));
  EXPECT_EQ(run.open_fetches, 0);
  EXPECT_GT(run.makespan, 0.0);
}

TEST(Report, CsvHasHeaderAndOneRowPerStage) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config;
  config.set("spark.default.parallelism", "8");
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", mib(512), 2);
  const JobReport report = ctx.run_job(
      ctx.text_file("/in").reduce_by_key("g", {0.01, 1.0}, 1.0).count(), "csv");
  const std::string csv = report.to_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2 stages
  EXPECT_NE(csv.find("app,policy,stage"), std::string::npos);
  EXPECT_NE(csv.find("csv,default,0"), std::string::npos);
}

}  // namespace
}  // namespace saex::engine
