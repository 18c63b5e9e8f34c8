// saex::shard: topology partitioning, router determinism, and the headline
// guarantee — an N-shard replay on any worker count merges to a report
// bitwise-identical to fewer workers, and a 1-shard replay is
// bitwise-identical to the serial JobServer path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/format.h"
#include "serve/job_server.h"
#include "shard/router.h"
#include "shard/sharded_server.h"
#include "shard/topology.h"

namespace saex::shard {
namespace {

conf::Config shard_config(int shards, int workers,
                          const std::string& placement = "hash") {
  conf::Config c;
  c.set("spark.default.parallelism", "64");
  c.set_int("saex.shard.count", shards);
  c.set_int("saex.shard.workers", workers);
  c.set("saex.shard.placement", placement);
  return c;
}

serve::TraceOptions small_trace(uint64_t seed = 7) {
  serve::TraceOptions t;
  t.num_jobs = 16;
  t.mean_interarrival = 1.0;
  t.num_clients = 8;
  t.seed = seed;
  t.small_input = mib(256);
  t.big_input = mib(512);
  t.dim_input = mib(128);
  return t;
}

hw::ClusterSpec spec_for(int nodes, uint64_t seed = 42) {
  hw::ClusterSpec s = hw::ClusterSpec::das5(nodes);
  s.seed = seed;
  return s;
}

// ---------- topology ----------

TEST(ShardTopology, PartitionsEvenlyWithRemainderUpFront) {
  const ShardTopology topo(10, 4);  // 3,3,2,2
  EXPECT_EQ(topo.shards(), 4);
  EXPECT_EQ(topo.shard_size(0), 3);
  EXPECT_EQ(topo.shard_size(1), 3);
  EXPECT_EQ(topo.shard_size(2), 2);
  EXPECT_EQ(topo.shard_size(3), 2);
  EXPECT_EQ(topo.shard_begin(2), 6);
  int total = 0;
  for (int s = 0; s < topo.shards(); ++s) total += topo.shard_size(s);
  EXPECT_EQ(total, 10);
}

TEST(ShardTopology, NodeMappingRoundTrips) {
  const ShardTopology topo(13, 5);
  for (int node = 0; node < 13; ++node) {
    const int s = topo.shard_of(node);
    const int local = topo.local_node(node);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 5);
    ASSERT_GE(local, 0);
    ASSERT_LT(local, topo.shard_size(s));
    EXPECT_EQ(topo.global_node(s, local), node);
  }
}

TEST(ShardTopology, RejectsBadCounts) {
  EXPECT_THROW(ShardTopology(4, 0), conf::ConfigError);
  EXPECT_THROW(ShardTopology(4, 5), conf::ConfigError);
}

TEST(ShardOptions, ParsesAndValidates) {
  const ShardOptions o = ShardOptions::from_config(shard_config(4, 2, "least"));
  EXPECT_EQ(o.count, 4);
  EXPECT_EQ(o.workers, 2);
  EXPECT_EQ(o.placement, "least");

  conf::Config bad = shard_config(0, 1);
  EXPECT_THROW(ShardOptions::from_config(bad), conf::ConfigError);
  bad = shard_config(2, 1, "random");
  EXPECT_THROW(ShardOptions::from_config(bad), conf::ConfigError);
}

// ---------- router ----------

TEST(JobRouter, HashPlacementIsDeterministicAndClientSticky) {
  const auto trace = serve::make_trace(small_trace());
  const JobRouter router(4, "hash", 99);
  const std::vector<int> a = router.route(trace);
  const std::vector<int> b = router.route(trace);
  EXPECT_EQ(a, b);  // pure function of (trace, shards, seed)

  std::map<std::string, int> client_shard;
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_GE(a[i], 0);
    ASSERT_LT(a[i], 4);
    const auto it = client_shard.find(trace[i].client);
    if (it == client_shard.end()) {
      client_shard.emplace(trace[i].client, a[i]);
    } else {
      EXPECT_EQ(it->second, a[i]) << "client affinity broken";
    }
  }
}

TEST(JobRouter, SeedChangesHashPlacement) {
  serve::TraceOptions t = small_trace();
  t.num_jobs = 64;
  t.num_clients = 64;
  const auto trace = serve::make_trace(t);
  const auto a = JobRouter(4, "hash", 1).route(trace);
  const auto b = JobRouter(4, "hash", 2).route(trace);
  EXPECT_NE(a, b);
}

TEST(JobRouter, LeastLoadedBalancesEstimatedCost) {
  serve::TraceOptions t = small_trace();
  t.num_jobs = 40;
  const auto trace = serve::make_trace(t);
  const auto placement = JobRouter(4, "least", 0).route(trace);
  std::vector<double> load(4, 0.0);
  for (size_t i = 0; i < trace.size(); ++i) {
    load[static_cast<size_t>(placement[i])] +=
        JobRouter::workload_cost(trace[i].workload);
  }
  const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  // Greedy placement keeps the spread below one max-cost job.
  EXPECT_LE(*hi - *lo, JobRouter::workload_cost("join"));
}

TEST(JobRouter, RoundRobinCyclesByJobId) {
  const auto trace = serve::make_trace(small_trace());
  const auto placement = JobRouter(3, "rr", 0).route(trace);
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(placement[i], trace[i].id % 3);
  }
}

TEST(JobRouter, RejectsUnknownPolicy) {
  EXPECT_THROW(JobRouter(2, "banana", 0), conf::ConfigError);
}

// ---------- sharded replay: the determinism guarantees ----------

std::string sharded_render(int nodes, int shards, int workers,
                           const serve::TraceOptions& t, int kill_node = -1,
                           double kill_time = -1.0) {
  conf::Config config = shard_config(shards, workers);
  if (kill_node >= 0) {
    config.set_bool("saex.fault.enabled", true);
    config.set_int("saex.fault.killNode", kill_node);
    config.set_double("saex.fault.killTime", kill_time);
  }
  ShardedServer server(spec_for(nodes), config);
  const ShardedServeReport report =
      server.replay(serve::make_trace(t), t);
  // Merged render only: the footer prints the worker count, which is
  // execution detail, not scenario semantics.
  return report.merged.render() + "\n" + report.render_jobs();
}

TEST(ShardedServer, OneShardMatchesSerialJobServerBitwise) {
  const serve::TraceOptions t = small_trace();

  conf::Config serial_config;
  serial_config.set("spark.default.parallelism", "64");
  hw::ClusterSpec spec = spec_for(8);
  hw::Cluster cluster(spec);
  engine::SparkContext ctx(cluster, serial_config);
  serve::JobServer server(ctx);
  const serve::ServeReport serial = server.replay(serve::make_trace(t), t);

  const std::string sharded = sharded_render(8, 1, 1, t);
  EXPECT_EQ(sharded, serial.render() + "\n" + serial.render_jobs());
}

TEST(ShardedServer, WorkerCountDoesNotChangeTheMergedReport) {
  const serve::TraceOptions t = small_trace(11);
  const std::string serial = sharded_render(8, 4, 1, t);
  const std::string parallel = sharded_render(8, 4, 4, t);
  EXPECT_EQ(serial, parallel);
}

TEST(ShardedServer, KillNodeFaultIsIdenticalAcrossWorkerCounts) {
  const serve::TraceOptions t = small_trace(17);
  // Global node 5 lives on shard 1 of a 2x4 split; the fault must land there
  // and only there, independent of worker count.
  const std::string serial =
      sharded_render(8, 2, 1, t, /*kill_node=*/5, /*kill_time=*/4.0);
  const std::string parallel =
      sharded_render(8, 2, 2, t, /*kill_node=*/5, /*kill_time=*/4.0);
  EXPECT_EQ(serial, parallel);
}

TEST(ShardedServer, KillNodeLandsOnOwningShardOnly) {
  const serve::TraceOptions t = small_trace(17);
  conf::Config config = shard_config(2, 1);
  config.set_bool("saex.fault.enabled", true);
  config.set_int("saex.fault.killNode", 5);
  config.set_double("saex.fault.killTime", 4.0);
  ShardedServer server(spec_for(8), config);
  const ShardedServeReport report = server.replay(serve::make_trace(t), t);
  EXPECT_EQ(report.shards[0].executors_lost, 0);
  EXPECT_EQ(report.shards[1].executors_lost, 1);
  EXPECT_EQ(report.merged.executors_lost, 1);
}

TEST(ShardedServer, RoutesEveryJobAndMergesAllRecords) {
  const serve::TraceOptions t = small_trace(19);
  ShardedServer server(spec_for(9), shard_config(3, 2));
  const auto trace = serve::make_trace(t);
  const ShardedServeReport report = server.replay(trace, t);

  ASSERT_EQ(report.placement.size(), trace.size());
  ASSERT_EQ(report.merged.jobs.size(), trace.size());
  int routed = 0;
  for (const ShardStats& s : report.stats) routed += s.jobs;
  EXPECT_EQ(routed, static_cast<int>(trace.size()));
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(report.merged.jobs[i].submission_id, static_cast<int>(i));
    // Merged record really is the routed shard's job, not a mixup: the name
    // embeds the global trace id.
    EXPECT_EQ(report.merged.jobs[i].name,
              strfmt::format("{}#{}", trace[i].workload, trace[i].id));
  }
  EXPECT_EQ(report.merged.finished, static_cast<int>(trace.size()));
}

TEST(ShardedServer, RejectsMoreShardsThanNodes) {
  EXPECT_THROW(ShardedServer(spec_for(2), shard_config(4, 1)),
               conf::ConfigError);
}

}  // namespace
}  // namespace saex::shard
