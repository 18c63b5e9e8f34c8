// Offer-path oracle for engine::TaskScheduler.
//
// Each case runs one scenario end to end and pins an FNV-1a digest of the
// full event log (EventBuffer::to_json_lines) plus every double of the
// resulting reports, printed as hex floats. The pinned values were recorded
// once, on the commit before the scheduler's two offer loops (an exhaustive
// executor x set scan for speculation/blacklisting, a sparse loop otherwise)
// were folded into one. They are never regenerated: a changed digest means a
// changed dispatch or event sequence, which the offer loop must not cause.
//
// The LocalityDeadline cases check the delay-scheduling deadline, including
// two runs whose simulated clock once stopped at a locality deadline.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/format.h"
#include "engine/context.h"
#include "engine/task_scheduler.h"
#include "serve/job_server.h"
#include "serve/trace.h"
#include "workloads/workloads.h"

namespace saex {
namespace {

using engine::EventBuffer;
using engine::SparkContext;

std::string hexf(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string fnv1a_hex(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

void digest_job(std::string& out, const engine::JobReport& r) {
  out += strfmt::format("job {} {} rt={} sub={} first={} fin={} disk={} "
                        "failed={} cancelled={}\n",
                        r.job_id, r.app_name, hexf(r.total_runtime),
                        hexf(r.submit_time), hexf(r.first_launch_time),
                        hexf(r.finish_time), r.total_disk_bytes, r.failed,
                        r.cancelled);
  for (const engine::StageStats& s : r.stages) {
    out += strfmt::format(
        " stage {} {} tasks={} t={}..{} in={} rd={} wr={} net={} cpu={} "
        "disk={} iow={} threads={} ts={} p50={} p95={} max={}\n",
        s.ordinal, s.name, s.num_tasks, hexf(s.start_time), hexf(s.end_time),
        s.input_bytes, s.disk_read, s.disk_written, s.net_bytes,
        hexf(s.cpu_utilization), hexf(s.disk_utilization),
        hexf(s.iowait_fraction), s.threads_total, hexf(s.task_seconds),
        hexf(s.task_p50), hexf(s.task_p95), hexf(s.task_max));
    for (const engine::ExecutorStageStats& e : s.executors) {
      out += strfmt::format("  exec {} threads={} blocked={} io={}\n", e.node,
                            e.threads_settled, hexf(e.blocked_seconds),
                            e.io_bytes);
    }
  }
}

void digest_serve(std::string& out, const serve::ServeReport& r) {
  out += strfmt::format(
      "serve sub={} start={} fin={} failed={} rej={}/{}/{} shed={} "
      "cancelled={} retries={} slo={}/{} exec={}/{}/{} q={}/{}/{} "
      "total={} makespans={} qwait95={} fairness={}\n",
      r.submitted, r.started, r.finished, r.failed, r.rejected_queue_full,
      r.rejected_client_quota, r.rejected_deadline, r.shed, r.cancelled,
      r.retries, r.slo_met, r.slo_tracked, r.executors_granted,
      r.executors_released, r.executors_lost, r.quarantines, r.probes,
      r.reinstatements, hexf(r.total_time), hexf(r.makespan_sum),
      hexf(r.queue_wait_p95), hexf(r.fairness_index));
  for (const serve::PoolStats& p : r.pools) {
    out += strfmt::format(" pool {} jobs={} failed={} qw={}/{} ms={}/{} ss={}\n",
                          p.pool, p.jobs, p.failed, hexf(p.queue_wait_mean),
                          hexf(p.queue_wait_p95), hexf(p.makespan_mean),
                          hexf(p.makespan_p95), hexf(p.slot_seconds));
  }
  for (const serve::JobRecord& rec : r.jobs) {
    out += strfmt::format(
        "sub {} job {} {} adm={} out={} t={}/{}/{} dl={} retries={}",
        rec.submission_id, rec.job_id, rec.name,
        serve::admission_name(rec.admission), serve::outcome_name(rec.outcome),
        hexf(rec.submit_time), hexf(rec.start_time), hexf(rec.finish_time),
        hexf(rec.deadline), rec.retries);
    for (const double t : rec.retry_times) {
      out += ' ';
      out += hexf(t);
    }
    out += "\n";
    digest_job(out, rec.report);
  }
}

// The digest of one run: the event stream, then the report text.
std::string digest(const EventBuffer& events, const std::string& reports) {
  return fnv1a_hex(events.to_json_lines() + reports);
}

// ---------- single-application runs (SparkContext::run_job) ----------

struct AppRun {
  std::string digest;
  int speculative = 0;
  int64_t task_failures = 0;
  int64_t executor_lost = 0;
  int64_t fetch_failures = 0;
  int kills = 0;
};

AppRun run_app(const workloads::WorkloadSpec& spec, hw::ClusterSpec cs,
               conf::Config config) {
  hw::Cluster cluster(cs);
  EventBuffer events;
  SparkContext ctx(cluster, std::move(config));
  ctx.event_log().attach(events);
  std::string reports;
  for (const engine::Rdd& action : spec.build(ctx)) {
    digest_job(reports, ctx.run_job(action, spec.name));
  }
  AppRun out;
  out.digest = digest(events, reports);
  out.speculative = ctx.scheduler().speculative_launches();
  out.task_failures = static_cast<int64_t>(
      events.of_kind(engine::EventKind::kTaskFailed).size());
  out.executor_lost = ctx.scheduler().executor_lost_failures();
  out.fetch_failures = ctx.scheduler().fetch_failures();
  out.kills = ctx.fault_plan() != nullptr ? ctx.fault_plan()->kills_fired() : 0;
  EXPECT_EQ(ctx.scheduler().dispatch_overcommits(), 0);
  return out;
}

TEST(OfferOracle, FifoTerasortDynamicPolicy) {
  hw::ClusterSpec cs = hw::ClusterSpec::das5(4);
  cs.seed = 11;
  conf::Config c;
  c.set("saex.executor.policy", "dynamic");
  c.set_int("spark.default.parallelism", 64);
  const AppRun run = run_app(workloads::terasort(gib(4)), cs, c);
  EXPECT_EQ(run.digest, "0fa0f0c57444bc30");
}

// bench/fault_recovery's straggler, on a smaller input.
TEST(OfferOracle, SpeculationStraggler) {
  hw::ClusterSpec cs = hw::ClusterSpec::das5(4);
  cs.slow_disk_prob = 0.0;
  conf::Config c;
  c.set_int("spark.default.parallelism", 128);
  c.set_bool("saex.fault.enabled", true);
  c.set_int("saex.fault.slowNode", 1);
  c.set_double("saex.fault.slowFactor", 0.15);
  c.set("saex.fault.slowTime", "0");
  c.set_bool("spark.speculation", true);
  c.set_double("spark.speculation.multiplier", 1.3);
  c.set_double("spark.speculation.quantile", 0.6);
  const AppRun run = run_app(workloads::terasort(gib(2)), cs, c);
  EXPECT_GT(run.speculative, 0);
  EXPECT_EQ(run.digest, "93289360250f1f46");
}

// tests/engine_faults_test.cpp's CutsWastedAttemptsOnAFullyFlakyNode with
// blacklisting on: replication 1, node 2 fails every attempt.
TEST(OfferOracle, BlacklistFlakyNodeReplicationOne) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  c.set_int("saex.sim.flakyNode", 2);
  c.set_double("saex.sim.flakyNodeFailureProb", 1.0);
  c.set_bool("spark.blacklist.enabled", true);
  c.set_int("spark.task.maxFailures", 16);
  EventBuffer events;
  SparkContext ctx(cluster, c);
  ctx.event_log().attach(events);
  ctx.dfs().load_input("/in", gib(4), 1);
  std::string reports;
  digest_job(reports, ctx.run_job(ctx.text_file("/in").count(), "x"));
  EXPECT_GT(events.of_kind(engine::EventKind::kTaskFailed).size(), 0u);
  EXPECT_EQ(digest(events, reports), "068bc02ae9ff1bbd");
}

// Speculation, blacklisting and an executor kill in one run: the kill loses
// map outputs, so lineage recovery holds the reading sets while a flaky node
// trips its blacklist and a slow node draws speculative copies.
TEST(OfferOracle, SpeculationBlacklistAndKill) {
  hw::ClusterSpec cs = hw::ClusterSpec::das5(4);
  cs.seed = 5;
  cs.slow_disk_prob = 0.0;
  conf::Config c;
  c.set_int("spark.default.parallelism", 64);
  c.set_bool("spark.speculation", true);
  c.set_double("spark.speculation.multiplier", 1.3);
  c.set_double("spark.speculation.quantile", 0.5);
  c.set_bool("spark.blacklist.enabled", true);
  c.set_int("spark.task.maxFailures", 16);
  c.set_int("saex.sim.flakyNode", 3);
  c.set_double("saex.sim.flakyNodeFailureProb", 0.5);
  c.set_bool("saex.fault.enabled", true);
  c.set_int("saex.fault.slowNode", 1);
  c.set_double("saex.fault.slowFactor", 0.2);
  c.set("saex.fault.slowTime", "0");
  c.set_int("saex.fault.killNode", 2);
  c.set("saex.fault.killTime", "90s");
  const AppRun run = run_app(workloads::terasort(gib(4)), cs, c);
  EXPECT_GT(run.speculative, 0);
  EXPECT_GT(run.task_failures, 0);
  EXPECT_EQ(run.kills, 1);
  EXPECT_GT(run.executor_lost, 0);
  EXPECT_GT(run.fetch_failures, 0);
  EXPECT_EQ(run.digest, "98f42981b508f241");
}

// ---------- multi-tenant serve runs (JobServer::replay) ----------

serve::TraceOptions trace_options(uint64_t seed, int jobs) {
  serve::TraceOptions t;
  t.num_jobs = jobs;
  t.mean_interarrival = 1.0;
  t.seed = seed;
  t.small_input = mib(256);
  t.big_input = mib(512);
  t.dim_input = mib(128);
  return t;
}

struct ServeRun {
  std::string digest;
  serve::ServeReport report;
  int speculative = 0;
};

ServeRun run_serve(conf::Config config, const serve::TraceOptions& t,
                   uint64_t cluster_seed = 42, int nodes = 4) {
  hw::ClusterSpec cs = hw::ClusterSpec::das5(nodes);
  cs.seed = cluster_seed;
  hw::Cluster cluster(cs);
  EventBuffer events;
  SparkContext ctx(cluster, std::move(config));
  ctx.event_log().attach(events);
  serve::JobServer server(ctx);
  ServeRun out;
  out.report = server.replay(serve::make_trace(t), t);
  std::string reports;
  digest_serve(reports, out.report);
  out.digest = digest(events, reports);
  out.speculative = ctx.scheduler().speculative_launches();
  EXPECT_EQ(ctx.scheduler().dispatch_overcommits(), 0);
  return out;
}

conf::Config fair_config() {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  c.set("saex.scheduler.mode", "FAIR");
  c.set("saex.scheduler.pools", "interactive:3:16,batch:1:0");
  return c;
}

TEST(OfferOracle, FairServeWithDeadlines) {
  serve::TraceOptions t = trace_options(19, 16);
  t.interactive_deadline = 8.0;
  t.batch_deadline = 40.0;
  const ServeRun run = run_serve(fair_config(), t);
  EXPECT_GT(run.report.slo_tracked, 0);
  EXPECT_EQ(run.digest, "d76e075880ffbbda");
}

// tests/serve_test.cpp's DynamicAllocationGrowsAndShrinks settings.
TEST(OfferOracle, DynamicAllocationServe) {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  c.set("spark.dynamicAllocation.enabled", "true");
  c.set("spark.dynamicAllocation.minExecutors", "1");
  c.set("spark.dynamicAllocation.initialExecutors", "1");
  c.set("spark.dynamicAllocation.executorIdleTimeout", "2s");
  c.set("spark.dynamicAllocation.schedulerBacklogTimeout", "500ms");
  c.set("spark.dynamicAllocation.sustainedSchedulerBacklogTimeout", "500ms");
  serve::TraceOptions t = trace_options(17, 8);
  const ServeRun run = run_serve(c, t);
  EXPECT_EQ(run.report.finished, run.report.started);
  EXPECT_GT(run.report.executors_granted, 0);
  EXPECT_EQ(run.digest, "14a9312cf801959e");
}

TEST(OfferOracle, ChaosChurnWithFetchDropsAndAqe) {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  c.set_bool("saex.fault.enabled", true);
  c.set("saex.fault.chaos", "kill:1@3,rejoin:1@12,kill:2@15,rejoin:2@25");
  c.set_double("saex.fault.fetchFailProb", 0.5);
  c.set_int("saex.fault.fetchFailNode", 3);
  c.set_int("saex.serve.maxRetries", 2);
  c.set("saex.serve.retryBackoff", "1s");
  c.set_bool("saex.resilience.quarantine", true);
  c.set_bool("saex.aqe.enabled", true);
  const ServeRun run = run_serve(c, trace_options(7, 16));
  EXPECT_GT(run.report.submitted, 0);
  EXPECT_EQ(run.digest, "49a953516ad253e9");
}

TEST(OfferOracle, FairServeWithSpeculation) {
  conf::Config c = fair_config();
  c.set_bool("spark.speculation", true);
  c.set_double("spark.speculation.multiplier", 1.3);
  c.set_double("spark.speculation.quantile", 0.5);
  c.set_bool("saex.fault.enabled", true);
  c.set_int("saex.fault.slowNode", 2);
  c.set_double("saex.fault.slowFactor", 0.2);
  c.set("saex.fault.slowTime", "0");
  const ServeRun run = run_serve(c, trace_options(23, 12));
  EXPECT_GT(run.speculative, 0);
  EXPECT_EQ(run.digest, "8806b7e5ac097c96");
}

// ---------- delay scheduling: one absolute locality deadline ----------

// About ten times what the larger repro below needs to drain.
constexpr uint64_t kStallEventCap = 2'000'000;

// Runs the kernel until it is empty, but at most `max_events` events: a
// livelock at one simulated instant never leaves Simulation::run_until
// either, so the cap is on events, not on time. True if it drained.
bool drain_capped(sim::Simulation& sim, uint64_t max_events) {
  for (uint64_t n = 0; n < max_events; ++n) {
    if (!sim.step()) return true;
  }
  return sim.pending() == 0;
}

// A set submitted at 0x1.ce2526405862ap+0 with a 3 s locality wait: at its
// deadline fl(submit + 3) the relative test `now - submit >= 3` is false by
// one ulp. The re-offer timer fires exactly at the deadline, where the set
// must count as waited out and let a non-preferred executor steal its task.
TEST(LocalityDeadline, ReofferAtTheDeadlineStealsTheTask) {
  constexpr double kSubmit = 0x1.ce2526405862ap+0;
  constexpr double kWait = 3.0;
  ASSERT_LT((kSubmit + kWait) - kSubmit, kWait);  // the ulp case

  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config c;
  c.set("spark.locality.wait", "3s");
  SparkContext ctx(cluster, c);
  engine::TaskScheduler& sched = ctx.scheduler();
  sched.set_executor_active(1, false);  // the preferred node takes no offers

  engine::Stage stage;
  stage.uid = 1;
  stage.name = "ulp";
  stage.num_tasks = 1;
  engine::TaskSpec task;
  task.stage_uid = 1;
  task.cpu_seconds = 0.5;
  task.preferred_nodes = {1};
  bool done = false;
  engine::TaskScheduler::TaskSetResult result;
  cluster.sim().schedule_at(kSubmit, [&] {
    sched.submit_stage(stage, {task}, /*job_id=*/0, "default",
                       [&](const engine::TaskScheduler::TaskSetResult& r) {
                         result = r;
                         done = true;
                       });
  });

  ASSERT_TRUE(drain_capped(cluster.sim(), 100000));
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.submit_time, kSubmit);
  EXPECT_EQ(result.first_launch_time, kSubmit + kWait);
}

// Schedules every trace submission on `server`, as JobServer::replay does,
// without draining.
void schedule_trace(serve::JobServer& server, SparkContext& ctx,
                    const std::vector<serve::TraceJob>& trace,
                    const serve::TraceOptions& options) {
  serve::load_trace_inputs(ctx, options);
  for (const serve::TraceJob& job : trace) {
    ctx.cluster().sim().schedule_at(job.arrival_time, [&server, job] {
      server.submit(strfmt::format("{}#{}", job.workload, job.id), job.client,
                    job.pool,
                    [job](SparkContext& cx) {
                      return serve::build_trace_job(cx, job);
                    },
                    job.deadline);
    });
  }
}

int unsettled(const serve::ServeReport& report) {
  int n = 0;
  for (const serve::JobRecord& rec : report.jobs) {
    if (serve::admitted(rec.admission) &&
        rec.outcome == serve::JobOutcome::kNone) {
      ++n;
    }
  }
  return n;
}

// `saexsim serve --jobs 2 --nodes 16 --dynalloc` with saexsim's defaults
// (perfbench's stall_dynalloc): this clock stopped at a locality deadline.
TEST(LocalityDeadline, DynamicAllocationServeDrains) {
  serve::TraceOptions t;
  t.num_jobs = 2;
  t.mean_interarrival = 3.0;
  t.seed = 42;
  hw::ClusterSpec cs = hw::ClusterSpec::das5(16);
  cs.seed = 42;
  conf::Config c;
  c.set("saex.executor.policy", "dynamic");
  c.set_int("spark.default.parallelism", 16 * 32);
  c.set("saex.scheduler.mode", "FAIR");
  c.set("saex.scheduler.pools", "interactive:3:16,batch:1:0");
  c.set_bool("spark.dynamicAllocation.enabled", true);
  c.set_int("spark.dynamicAllocation.minExecutors", 1);
  c.set_int("spark.dynamicAllocation.initialExecutors", 1);
  c.set("spark.dynamicAllocation.executorIdleTimeout", "10s");
  hw::Cluster cluster(cs);
  SparkContext ctx(cluster, c);
  serve::JobServer server(ctx);
  schedule_trace(server, ctx, serve::make_trace(t), t);

  ASSERT_TRUE(drain_capped(cluster.sim(), kStallEventCap));
  const serve::ServeReport report = server.drain();
  EXPECT_EQ(report.submitted, 2);
  EXPECT_EQ(report.finished, 2);
  EXPECT_EQ(unsettled(report), 0);
}

// Partition 0 of perfbench's stall_churn_waves, run on its own: the first
// 400 jobs of the seed-41 churn trace routed round-robin over 4 partitions
// of a 32-node cluster, with the kill/rejoin wave on nodes 0, 2 and 3
// repeated every 240 s, node-1 fetch drops, retries, quarantine and AQE.
// This clock stopped at t=1024.355 s.
TEST(LocalityDeadline, RepeatedChurnWavesDrain) {
  serve::TraceOptions t;
  t.num_jobs = 400;
  t.mean_interarrival = 3.0;
  t.num_clients = 8;
  t.seed = 41;
  t.small_input = mib(256);
  t.big_input = mib(512);
  t.dim_input = mib(128);
  t.interactive_deadline = 45.0;
  t.batch_deadline = 600.0;
  const std::vector<serve::TraceJob> trace = serve::make_trace(t);
  std::vector<serve::TraceJob> partition0;
  for (const serve::TraceJob& job : trace) {
    if (job.id % 4 == 0) partition0.push_back(job);
  }
  std::string chaos;
  const int waves = static_cast<int>(trace.back().arrival_time / 240.0) + 1;
  for (int w = 0; w < waves; ++w) {
    for (const auto& [kind, node, at] :
         {std::tuple{"kill", 2, 20}, {"rejoin", 2, 50}, {"kill", 3, 60},
          {"rejoin", 3, 90}, {"kill", 2, 120}, {"rejoin", 2, 150},
          {"kill", 0, 180}, {"rejoin", 0, 210}}) {
      if (!chaos.empty()) chaos += ",";
      chaos += strfmt::format("{}:{}@{}", kind, node, 240.0 * w + at);
    }
  }
  conf::Config c;
  c.set_int("spark.default.parallelism", 16);  // 64 scaled to 8 of 32 nodes
  c.set_int("saex.serve.maxConcurrentJobs", 16);
  c.set_int("saex.serve.maxQueuedJobs", 1 << 20);
  c.set_bool("saex.eventLog.enabled", false);
  c.set_bool("saex.fault.enabled", true);
  c.set("saex.fault.chaos", chaos);
  c.set_double("saex.fault.fetchFailProb", 0.6);
  c.set_int("saex.fault.fetchFailNode", 1);
  c.set_int("saex.serve.maxRetries", 2);
  c.set("saex.serve.retryBackoff", "2s");
  c.set("saex.serve.retryBackoffMax", "20s");
  c.set_bool("saex.resilience.quarantine", true);
  c.set_int("saex.resilience.quarantineThreshold", 3);
  c.set("saex.resilience.quarantineWindow", "60s");
  c.set("saex.resilience.quarantineCooldown", "45s");
  c.set_bool("saex.aqe.enabled", true);
  hw::ClusterSpec cs = hw::ClusterSpec::das5(8);
  cs.seed = 41;
  hw::Cluster cluster(cs);
  SparkContext ctx(cluster, c);
  serve::JobServer server(ctx);
  schedule_trace(server, ctx, partition0, t);

  ASSERT_TRUE(drain_capped(cluster.sim(), kStallEventCap));
  const serve::ServeReport report = server.drain();
  EXPECT_EQ(report.submitted, static_cast<int>(partition0.size()));
  EXPECT_EQ(unsettled(report), 0);
  EXPECT_GT(cluster.sim().now(), 1024.355);
}

}  // namespace
}  // namespace saex
