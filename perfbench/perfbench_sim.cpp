// perfbench_sim: one iteration of one benchmark workload.
//
// run.py starts one process per iteration, so peak RSS and set-up time are
// never inherited from an earlier simulation. The program builds the workload
// from its seed through the layers' public entry points, times set-up and
// the simulation phase with benchmark-side spans, checks the simulator's
// outputs, and prints one JSON object on stdout.
//
// Usage: perfbench_sim --workload NAME --seed N [--profile 0|1]
//                      [--workers W] [--setup-only 0|1] [--spans FILE]
//
//   --profile 1   enable prof::Profiler and embed its report_json()
//   --workers W   harness workers for the partitioned workload (default 2,
//                 capped at the host's core count)
//   --setup-only 1  build the workload's set-up, time it and exit without
//                 running the simulation (a set-up sample in a fresh process)
//   --spans FILE  write this iteration's spans as JSON to FILE
//
// Exit codes: 0 ran (check results are in the JSON), 2 bad arguments,
// 3 refused (unoptimised or sanitizer build), 4 the simulation threw.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/stats.h"
#include "engine/context.h"
#include "prof/profiler.h"
#include "serve/job_server.h"
#include "serve/trace.h"
#include "shard/sharded_server.h"
#include "workloads/workloads.h"

namespace {

using namespace saex;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Build facts, printed beside every result.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

bool sanitized_build() {
  return kSanitized || std::string_view(PERFBENCH_CXX_FLAGS).find(
                           "-fsanitize") != std::string_view::npos;
}

int host_cores() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// JSON output helpers.

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Benchmark-side spans around public calls. Every span of one iteration
// shares trace_id; parent is the index of the enclosing span (-1: root).
// Spans stay in memory and are written once, after the run.

class Spans {
 public:
  explicit Spans(uint64_t trace_id) : trace_id_(trace_id), t0_(Clock::now()) {}

  class Scope {
   public:
    Scope(Spans& spans, std::string name)
        : spans_(spans), index_(static_cast<int>(spans.spans_.size())) {
      const int parent = spans_.stack_.empty() ? -1 : spans_.stack_.back();
      spans_.spans_.push_back(Span{std::move(name), parent, spans_.now_ns(), 0});
      spans_.stack_.push_back(index_);
    }
    ~Scope() {
      spans_.spans_[static_cast<size_t>(index_)].end_ns = spans_.now_ns();
      spans_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_;
  };

  /// Median duration of the spans with this name, in milliseconds (0 when
  /// there are none).
  double median_ms(std::string_view name) const {
    std::vector<double> ms;
    for (const Span& s : spans_) {
      if (s.name == name) ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
    return ms.empty() ? 0.0 : percentile(ms, 0.5);
  }

  /// Spans as JSON; self_ns is the duration minus the time child spans cover.
  std::string json() const {
    std::string out = "{\"trace_id\": " + std::to_string(trace_id_) +
                      ", \"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      int64_t children = 0;
      for (const Span& c : spans_) {
        if (c.parent == static_cast<int>(i)) children += c.end_ns - c.start_ns;
      }
      out += (i == 0 ? "\n  " : ",\n  ");
      out += "{\"id\": " + std::to_string(i) +
             ", \"trace_id\": " + std::to_string(trace_id_) +
             ", \"name\": " + quoted(s.name) +
             ", \"parent\": " + std::to_string(s.parent) +
             ", \"start_ns\": " + std::to_string(s.start_ns) +
             ", \"end_ns\": " + std::to_string(s.end_ns) +
             ", \"self_ns\": " + std::to_string(s.end_ns - s.start_ns - children) +
             "}";
    }
    return out + "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
        .count();
  }

  uint64_t trace_id_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Builds the workload's set-up, the one the simulation then uses, under a
/// "bench.setup" span. It is the process's first and only set-up, so it is
/// timed cold.
template <typename Build>
auto timed_setup(Spans& spans, Build build) {
  Spans::Scope s(spans, "bench.setup");
  return build();
}

// ---------------------------------------------------------------------------
// What one iteration measured.

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

struct Result {
  // Simulated outcome.
  double makespan = 0.0;
  std::vector<double> latencies;  // successful jobs, submission -> finish
  double queue_wait_p95 = 0.0;    // successful jobs (serve workloads)
  int submitted = 0;
  int succeeded = 0;
  int failed = 0;
  int rejected = 0;
  int shed = 0;
  int cancelled = 0;
  int slo_tracked = 0;
  int slo_met = 0;
  std::string digest_text;  // canonical per-job records + stage stats

  std::vector<std::pair<std::string, double>> layers;
  std::vector<Check> checks;

  void layer(std::string name, double value) {
    layers.emplace_back(std::move(name), value);
  }
  void check(std::string name, bool ok, std::string detail) {
    checks.push_back(Check{std::move(name), ok, std::move(detail)});
  }
};

uint64_t fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Hex floats: the digest changes iff some simulated double changes.
std::string hexf(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void digest_job(std::string& out, const engine::JobReport& r) {
  out += strfmt::format("job {} {} rt={} disk={}\n", r.job_id, r.app_name,
                        hexf(r.total_runtime), r.total_disk_bytes);
  for (const engine::StageStats& s : r.stages) {
    out += strfmt::format(" stage {} {} tasks={} t={}..{} in={} rd={} wr={} "
                          "net={} threads={}\n",
                          s.ordinal, s.name, s.num_tasks, hexf(s.start_time),
                          hexf(s.end_time), s.input_bytes, s.disk_read,
                          s.disk_written, s.net_bytes, s.threads_total);
  }
}

// ---------------------------------------------------------------------------
// Counters every workload reads from its SparkContexts, through public
// accessors and metrics::Registry names only.

struct EngineCounters {
  double events = 0, pending_events = 0, active_flows = 0, disk_bytes = 0,
         net_transfers = 0, net_bytes = 0, dropped_fetches = 0, dispatched = 0,
         finished = 0, fetch_failures = 0, executor_lost = 0, speculative = 0,
         duplicate_commits = 0, event_log = 0, resizes = 0, replans = 0,
         storage_hits = 0, storage_misses = 0, storage_evictions = 0,
         storage_recomputes = 0, kills_fired = 0, fetch_drops = 0;

  void add(engine::SparkContext& ctx) {
    hw::Cluster& cluster = ctx.cluster();
    events += static_cast<double>(cluster.sim().processed());
    pending_events += static_cast<double>(cluster.sim().pending());
    disk_bytes += static_cast<double>(cluster.total_disk_bytes());
    hw::Network& net = cluster.network();
    active_flows += net.active_flows();
    net_transfers += static_cast<double>(net.transfers_started());
    net_bytes += static_cast<double>(net.total_bytes());
    dropped_fetches += static_cast<double>(net.dropped_fetches());
    engine::TaskScheduler& sched = ctx.scheduler();
    dispatched += static_cast<double>(sched.tasks_dispatched());
    finished += static_cast<double>(sched.tasks_finished());
    fetch_failures += static_cast<double>(sched.fetch_failures());
    executor_lost += static_cast<double>(sched.executor_lost_failures());
    speculative += sched.speculative_launches();
    duplicate_commits += static_cast<double>(ctx.shuffles().duplicate_commits());
    event_log += static_cast<double>(ctx.event_log().size());
    metrics::Registry& reg = ctx.metrics();
    resizes += reg.counter_value("engine/executor_resizes");
    replans += reg.counter_value("aqe/replans");
    storage_recomputes += reg.counter_value("storage/recomputes");
    storage_hits += static_cast<double>(ctx.storage().total_hits());
    storage_misses += static_cast<double>(ctx.storage().total_misses());
    storage_evictions += static_cast<double>(ctx.storage().total_evictions());
    if (ctx.fault_plan() != nullptr) {
      kills_fired += static_cast<double>(ctx.fault_plan()->kills_fired());
    }
    fetch_drops += static_cast<double>(ctx.fault_state().fetch_drops());
  }

  void report(Result& r) const {
    r.layer("sim.events", events);
    r.layer("hw.disk.bytes", disk_bytes);
    r.layer("hw.network.transfers", net_transfers);
    r.layer("hw.network.bytes", net_bytes);
    r.layer("hw.network.dropped_fetches", dropped_fetches);
    r.layer("engine.scheduler.tasks_dispatched", dispatched);
    r.layer("engine.scheduler.tasks_finished", finished);
    r.layer("engine.scheduler.task_success_ratio",
            dispatched > 0 ? finished / dispatched : 0.0);
    r.layer("engine.scheduler.fetch_failures", fetch_failures);
    r.layer("engine.scheduler.executor_lost_failures", executor_lost);
    r.layer("engine.scheduler.speculative_launches", speculative);
    r.layer("engine.shuffle.duplicate_commits", duplicate_commits);
    r.layer("engine.event_log.records", event_log);
    r.layer("adaptive.resizes", resizes);
    r.layer("aqe.replans", replans);
    r.layer("storage.hits", storage_hits);
    r.layer("storage.misses", storage_misses);
    r.layer("storage.evictions", storage_evictions);
    r.layer("storage.recomputes", storage_recomputes);
    r.layer("fault.kills_fired", kills_fired);
    r.layer("fault.fetch_drops", fetch_drops);
    r.check("no_pending_events", pending_events == 0,
            strfmt::format("{} events left in the kernel queue", pending_events));
    r.check("network_flows_drained", active_flows == 0,
            strfmt::format("{} network flows still active", active_flows));
  }
};

// ---------------------------------------------------------------------------
// terasort_adaptive: the paper's own experiment. One Terasort application
// (sampling job + sort job) under the MAPE-K `dynamic` policy on 32 HDD
// nodes. The WorkloadSpec's jobs run through SparkContext::run_job, the
// calls workloads::run makes, so set-up can be timed apart from the run.

constexpr int kTerasortNodes = 32;
constexpr double kTerasortGib = 1000.0;
// The application's SLO in simulated seconds; README.md gives its basis.
constexpr double kTerasortDeadline = 1500.0;

struct TerasortSetup {
  std::unique_ptr<hw::Cluster> cluster;  // outlives ctx (declared first)
  std::unique_ptr<engine::SparkContext> ctx;
  std::vector<engine::Rdd> actions;
};

void run_terasort(uint64_t seed, bool setup_only, Spans& spans, Result& r) {
  const workloads::WorkloadSpec spec = workloads::terasort(gib(kTerasortGib));
  TerasortSetup st = timed_setup(spans, [&] {
    TerasortSetup s;
    {
      Spans::Scope span(spans, "hw.cluster_build");
      hw::ClusterSpec cs = hw::ClusterSpec::das5(kTerasortNodes);
      cs.seed = seed;
      s.cluster = std::make_unique<hw::Cluster>(cs);
    }
    {
      Spans::Scope span(spans, "engine.context_build");
      conf::Config config;
      config.set("saex.executor.policy", "dynamic");
      config.set_int("spark.default.parallelism", kTerasortNodes * 32);
      s.ctx = std::make_unique<engine::SparkContext>(*s.cluster, std::move(config));
    }
    {
      // WorkloadSpec::build registers the DFS input and builds both plans.
      Spans::Scope span(spans, "workloads.plan_build");
      s.actions = spec.build(*s.ctx);
    }
    return s;
  });

  if (setup_only) return;

  std::vector<engine::JobReport> reports;
  {
    Spans::Scope run(spans, "bench.run");
    for (const engine::Rdd& action : st.actions) {
      Spans::Scope span(spans, "engine.run_job");
      reports.push_back(st.ctx->run_job(action, spec.name));
    }
  }

  Spans::Scope checks(spans, "bench.checks");
  for (const engine::JobReport& rep : reports) {
    digest_job(r.digest_text, rep);
    r.makespan += rep.total_runtime;  // the jobs run back to back
    r.latencies.push_back(rep.total_runtime);
    if (!rep.failed) ++r.succeeded;
  }
  r.submitted = static_cast<int>(st.actions.size());
  r.failed = static_cast<int>(reports.size()) - r.succeeded;
  r.slo_tracked = 1;
  r.slo_met = r.succeeded == r.submitted && r.makespan <= kTerasortDeadline;
  r.check("every_submission_settles", r.succeeded == r.submitted,
          strfmt::format("{}/{} jobs finished", r.succeeded, r.submitted));

  EngineCounters c;
  c.add(*st.ctx);
  c.report(r);
  r.check("terasort_moved_data", c.disk_bytes > 0 && c.net_bytes > 0,
          "disk and network bytes are non-zero");
}

// ---------------------------------------------------------------------------
// Serve-report accounting shared by serve_fair and churn_partitioned. SLO
// attainment counts every deadline-carrying submission, so a rejected,
// shed, cancelled or failed job is a miss.

void serve_outcome(const serve::ServeReport& rep,
                   const std::vector<serve::TraceJob>& trace, Result& r) {
  r.makespan = rep.total_time;
  r.submitted = rep.submitted;
  // ServeReport::finished counts failed jobs too (they ran to an end).
  r.succeeded = rep.finished - rep.failed;
  r.failed = rep.failed;
  r.rejected = rep.rejected_queue_full + rep.rejected_client_quota +
               rep.rejected_deadline;
  r.shed = rep.shed;
  r.cancelled = rep.cancelled;
  r.queue_wait_p95 = rep.queue_wait_p95;
  for (const serve::TraceJob& j : trace) {
    if (j.deadline > 0.0) ++r.slo_tracked;
  }
  int unsettled = 0;
  for (const serve::JobRecord& rec : rep.jobs) {
    if (rec.outcome == serve::JobOutcome::kFinished && !rec.failed) {
      r.latencies.push_back(rec.makespan());
      if (rec.deadline >= 0.0 && rec.finish_time <= rec.deadline) ++r.slo_met;
    }
    if (serve::admitted(rec.admission) && rec.outcome == serve::JobOutcome::kNone) {
      ++unsettled;
    }
    r.digest_text += strfmt::format(
        "sub {} job {} {} {} {} adm={} out={} t={}/{}/{} dl={} retries={}\n",
        rec.submission_id, rec.job_id, rec.name, rec.client, rec.pool,
        serve::admission_name(rec.admission), serve::outcome_name(rec.outcome),
        hexf(rec.submit_time), hexf(rec.start_time), hexf(rec.finish_time),
        hexf(rec.deadline), rec.retries);
    digest_job(r.digest_text, rec.report);
  }

  const int settled = r.succeeded + r.failed + r.rejected + r.shed + r.cancelled;
  r.check("every_submission_settles",
          settled == r.submitted && unsettled == 0 &&
              r.submitted == static_cast<int>(trace.size()),
          strfmt::format("succeeded {} + failed {} + rejected {} + shed {} + "
                         "cancelled {} = {}; submitted {}; trace {}; "
                         "unsettled records {}",
                         r.succeeded, r.failed, r.rejected, r.shed, r.cancelled,
                         settled, r.submitted, trace.size(), unsettled));
  r.check("slo_matches_report", r.slo_met == rep.slo_met,
          strfmt::format("bench {} vs report {} SLOs met", r.slo_met, rep.slo_met));

  r.layer("resilience.retries", static_cast<double>(rep.retries));
  r.layer("resilience.quarantines", rep.quarantines);
  r.layer("resilience.reinstatements", rep.reinstatements);
  r.layer("resilience.shed", rep.shed);
  r.layer("resilience.cancelled", rep.cancelled);
  r.layer("serve.submitted", rep.submitted);
  r.layer("serve.rejected", r.rejected);
}

// Rebuilding the report from its records through the public aggregation
// must reproduce what replay() returned; the span times the report layer.
void check_report_rebuild(const serve::ServeReport& rep,
                          engine::TaskScheduler& scheduler, Spans& spans,
                          Result& r) {
  serve::ServeReport rebuilt;
  {
    Spans::Scope s(spans, "serve.report");
    rebuilt = serve::build_serve_report(rep.jobs, scheduler.scheduling_mode(),
                                        scheduler.pools());
  }
  r.check("report_rebuild_matches",
          rebuilt.finished == rep.finished && rebuilt.slo_met == rep.slo_met &&
              rebuilt.total_time == rep.total_time &&
              rebuilt.queue_wait_p95 == rep.queue_wait_p95,
          "build_serve_report(records) reproduces the replay() report");
}

// ---------------------------------------------------------------------------
// serve_fair: one 256-node cluster replaying a seeded multi-tenant trace
// through JobServer: FAIR pools, admission control, enforced per-pool
// deadlines, static allocation, event log on (its default). The arrival
// rate sits on the stable side of the overload cliff (README.md).

struct ServeSetup {
  serve::TraceOptions options;
  std::unique_ptr<hw::Cluster> cluster;  // outlives ctx and server
  std::unique_ptr<engine::SparkContext> ctx;
  std::unique_ptr<serve::JobServer> server;
  std::vector<serve::TraceJob> trace;
};

void run_serve_fair(uint64_t seed, bool setup_only, Spans& spans, Result& r) {
  ServeSetup st = timed_setup(spans, [&] {
    ServeSetup s;
    s.options.num_jobs = 1000;
    s.options.mean_interarrival = 3.0;
    s.options.num_clients = 8;
    s.options.seed = seed;
    s.options.small_input = mib(256);
    s.options.big_input = gib(1.0);
    s.options.dim_input = mib(128);
    s.options.interactive_deadline = 120.0;
    s.options.batch_deadline = 1200.0;
    {
      Spans::Scope span(spans, "hw.cluster_build");
      hw::ClusterSpec cs = hw::ClusterSpec::das5(256);
      cs.seed = seed;
      s.cluster = std::make_unique<hw::Cluster>(cs);
    }
    {
      Spans::Scope span(spans, "engine.context_build");
      conf::Config config;
      config.set_int("spark.default.parallelism", 64);
      config.set("saex.scheduler.mode", "FAIR");
      config.set("saex.scheduler.pools", "interactive:3:16,batch:1:0");
      config.set_int("saex.serve.maxConcurrentJobs", 32);
      s.ctx = std::make_unique<engine::SparkContext>(*s.cluster, std::move(config));
      s.server = std::make_unique<serve::JobServer>(*s.ctx);
    }
    {
      Spans::Scope span(spans, "dfs.load");
      serve::load_trace_inputs(*s.ctx, s.options);
    }
    {
      Spans::Scope span(spans, "workloads.plan_build");
      s.trace = serve::make_trace(s.options);
    }
    return s;
  });

  if (setup_only) return;

  serve::ServeReport rep;
  {
    Spans::Scope run(spans, "bench.run");
    Spans::Scope span(spans, "serve.replay");
    rep = st.server->replay(st.trace, st.options);
  }

  Spans::Scope checks(spans, "bench.checks");
  serve_outcome(rep, st.trace, r);
  check_report_rebuild(rep, st.ctx->scheduler(), spans, r);
  EngineCounters c;
  c.add(*st.ctx);
  c.report(r);
  r.check("registry_matches_report",
          st.server->metrics().counter_value("serve/jobs/submitted") == rep.submitted,
          "registry serve/jobs/submitted equals report.submitted");
}

// ---------------------------------------------------------------------------
// churn_partitioned: the partitioned cluster (4 partitions of 8 nodes) on
// its failure and recovery paths, in the serve_resilience shape: one
// scripted kill/rejoin wave over nodes 0, 2 and 3 in the first 240 simulated
// seconds, fetches from node 1 dropped with p=0.6, enforced deadlines,
// seeded retries, quarantine and AQE.

// `waves` copies of the kill/rejoin wave, 240 simulated seconds apart.
// churn_partitioned runs one; repeating it over the whole trace livelocks
// the faulty partition on some seeds (stall_churn_waves below).
std::string churn_chaos(int waves) {
  struct Step {
    const char* kind;
    int node;
    double at;
  };
  constexpr Step kWave[] = {{"kill", 2, 20},   {"rejoin", 2, 50},
                            {"kill", 3, 60},   {"rejoin", 3, 90},
                            {"kill", 2, 120},  {"rejoin", 2, 150},
                            {"kill", 0, 180},  {"rejoin", 0, 210}};
  std::string spec;
  for (int i = 0; i < waves; ++i) {
    for (const Step& w : kWave) {
      if (!spec.empty()) spec += ",";
      spec += strfmt::format("{}:{}@{}", w.kind, w.node, 240.0 * i + w.at);
    }
  }
  return spec;
}

serve::TraceOptions churn_trace_options(uint64_t seed, int num_jobs) {
  serve::TraceOptions o;
  o.num_jobs = num_jobs;
  o.mean_interarrival = 3.0;
  o.num_clients = 8;
  o.seed = seed;
  o.small_input = mib(256);
  o.big_input = mib(512);
  o.dim_input = mib(128);
  o.interactive_deadline = 45.0;
  o.batch_deadline = 600.0;
  return o;
}

conf::Config churn_config(int workers, int waves) {
  conf::Config c;
  c.set_int("spark.default.parallelism", 64);
  c.set_int("saex.serve.maxConcurrentJobs", 16);
  c.set_int("saex.serve.maxQueuedJobs", 1 << 20);
  c.set_int("saex.shard.count", 4);
  // Round-robin, not the default client hash: with 8 clients the hash can
  // leave partition 0, which holds every faulty node, without jobs.
  c.set("saex.shard.placement", "rr");
  c.set_int("saex.shard.workers", workers);
  c.set_bool("saex.eventLog.enabled", false);
  c.set_bool("saex.fault.enabled", true);
  c.set("saex.fault.chaos", churn_chaos(waves));
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
  return c;
}

hw::ClusterSpec churn_cluster(uint64_t seed) {
  hw::ClusterSpec cs = hw::ClusterSpec::das5(32);
  cs.seed = seed;
  return cs;
}

struct ChurnSetup {
  serve::TraceOptions options;
  std::vector<serve::TraceJob> trace;
  std::unique_ptr<shard::ShardedServer> server;
};

void run_churn(uint64_t seed, int workers, bool setup_only, Spans& spans,
               Result& r) {
  ChurnSetup st = timed_setup(spans, [&] {
    ChurnSetup s;
    s.options = churn_trace_options(seed, 6000);
    {
      Spans::Scope span(spans, "workloads.plan_build");
      s.trace = serve::make_trace(s.options);
    }
    conf::Config c = churn_config(workers, 1);
    // The partitioned server builds each partition's cluster, context and
    // job server; the DFS inputs load inside replay().
    Spans::Scope span(spans, "hw.cluster_build");
    s.server = std::make_unique<shard::ShardedServer>(churn_cluster(seed), c);
    return s;
  });

  if (setup_only) return;

  shard::ShardedServeReport rep;
  {
    Spans::Scope run(spans, "bench.run");
    Spans::Scope span(spans, "shard.replay");
    rep = st.server->replay(st.trace, st.options);
  }

  Spans::Scope checks(spans, "bench.checks");
  serve_outcome(rep.merged, st.trace, r);
  check_report_rebuild(rep.merged, st.server->context(0).scheduler(), spans, r);
  EngineCounters c;
  for (int i = 0; i < st.server->topology().shards(); ++i) {
    c.add(st.server->context(i));
  }
  c.report(r);
  double max_events = 0.0;
  for (const shard::ShardStats& s : rep.stats) {
    max_events = std::max(max_events, static_cast<double>(s.events));
  }
  const double mean_events =
      rep.stats.empty() ? 0.0 : c.events / static_cast<double>(rep.stats.size());
  r.layer("shard.events_max_over_mean",
          mean_events > 0 ? max_events / mean_events : 0.0);
  r.layer("harness.workers", rep.workers);
  r.check("partition_events_add_up", static_cast<double>(rep.events) == c.events,
          strfmt::format("report {} vs kernels {} events", rep.events, c.events));
  r.check("churn_exercised_failures",
          c.kills_fired > 0 && c.fetch_drops > 0 && rep.merged.retries > 0,
          "kills, fetch drops and retries all occurred");
}

// ---------------------------------------------------------------------------
// Known defects. run.py runs each repro and its control under a host-time
// cap and names the stall.
//
// With dynamic allocation on, `saexsim serve --jobs 2 --nodes 16 --dynalloc`
// never finishes: the simulated clock stops advancing while the kernel keeps
// processing events. stall_dynalloc is that run with saexsim's defaults;
// stall_control is the same run without dynamic allocation.

void run_stall(bool dynalloc, Result& r) {
  serve::TraceOptions t;
  t.num_jobs = 2;
  t.mean_interarrival = 3.0;
  t.seed = 42;
  hw::ClusterSpec cs = hw::ClusterSpec::das5(16);
  cs.seed = 42;
  conf::Config config;
  config.set("saex.executor.policy", "dynamic");
  config.set_int("spark.default.parallelism", 16 * 32);
  config.set("saex.scheduler.mode", "FAIR");
  config.set("saex.scheduler.pools", "interactive:3:16,batch:1:0");
  if (dynalloc) {
    config.set_bool("spark.dynamicAllocation.enabled", true);
    config.set_int("spark.dynamicAllocation.minExecutors", 1);
    config.set_int("spark.dynamicAllocation.initialExecutors", 1);
    config.set("spark.dynamicAllocation.executorIdleTimeout", "10s");
  }
  hw::Cluster cluster(cs);
  engine::SparkContext ctx(cluster, std::move(config));
  serve::JobServer server(ctx);
  const std::vector<serve::TraceJob> trace = serve::make_trace(t);
  serve_outcome(server.replay(trace, t), trace, r);
}

// With the churn wave repeated every 240 s over the whole trace, partition 0
// of churn_partitioned livelocks on some seeds: seed 41 stops its simulated
// clock at t=1024.355 s, in the fifth wave, while its kernel keeps
// processing events. stall_churn_waves is that run cut to 400 jobs (the
// trace's prefix, so the same instant); stall_churn_control is the same run
// with the single wave churn_partitioned uses.

void run_stall_churn(bool repeat_wave, Result& r) {
  constexpr uint64_t kSeed = 41;
  const serve::TraceOptions options = churn_trace_options(kSeed, 400);
  const std::vector<serve::TraceJob> trace = serve::make_trace(options);
  const int waves =
      repeat_wave ? static_cast<int>(trace.back().arrival_time / 240.0) + 1 : 1;
  shard::ShardedServer server(churn_cluster(kSeed), churn_config(1, waves));
  serve_outcome(server.replay(trace, options).merged, trace, r);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool profile = false;
  int workers = 2;
  bool setup_only = false;
  std::string spans_path;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
      have_seed = true;
    } else if (flag == "--profile") {
      if (value != "0" && value != "1") return false;
      a.profile = value == "1";
    } else if (flag == "--workers") {
      a.workers = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0' || a.workers < 1) return false;
    } else if (flag == "--setup-only") {
      if (value != "0" && value != "1") return false;
      a.setup_only = value == "1";
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && !a.workload.empty();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string result_json(const Args& args, int workers, const Spans& spans,
                        const Result& r) {
  const std::vector<double>& lat = r.latencies;
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, fnv1a(r.digest_text));
  std::string out = "{\"workload\": " + quoted(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"workers\": " + std::to_string(workers);
  out += ", \"build\": {\"type\": " + quoted(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + quoted(__VERSION__) +
         ", \"flags\": " + quoted(PERFBENCH_CXX_FLAGS) +
         ", \"nproc\": " + std::to_string(host_cores()) + "}";
  out += ", \"digest\": " + quoted(digest);
  out += ", \"host\": {\"setup_s\": " + num(spans.median_ms("bench.setup") / 1e3) +
         ", \"wall_s\": " + num(spans.median_ms("bench.run") / 1e3) +
         ", \"peak_rss_mb\": " + num(peak_rss_mb()) + "}";
  out += ", \"sim\": {\"makespan_s\": " + num(r.makespan) +
         ", \"job_latency_p50_s\": " + num(lat.empty() ? 0.0 : percentile(lat, 0.50)) +
         ", \"job_latency_p99_s\": " + num(lat.empty() ? 0.0 : percentile(lat, 0.99)) +
         ", \"job_latency_samples\": " + std::to_string(lat.size()) +
         ", \"queue_wait_p95_s\": " + num(r.queue_wait_p95) +
         ", \"submitted\": " + std::to_string(r.submitted) +
         ", \"succeeded\": " + std::to_string(r.succeeded) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"rejected\": " + std::to_string(r.rejected) +
         ", \"shed\": " + std::to_string(r.shed) +
         ", \"cancelled\": " + std::to_string(r.cancelled) +
         ", \"slo_tracked\": " + std::to_string(r.slo_tracked) +
         ", \"slo_met\": " + std::to_string(r.slo_met) + "}";
  out += ", \"spans_ms\": {";
  constexpr const char* kSpanNames[] = {
      "hw.cluster_build", "engine.context_build", "dfs.load",
      "workloads.plan_build", "serve.replay", "serve.report", "shard.replay"};
  for (const char* name : kSpanNames) {
    out += (out.back() == '{' ? "" : ", ") + quoted(name) + ": " +
           num(spans.median_ms(name));
  }
  out += "}, \"layers\": {";
  for (const auto& [name, value] : r.layers) {
    out += (out.back() == '{' ? "" : ", ") + quoted(name) + ": " + num(value);
  }
  out += "}, \"checks\": [";
  for (const Check& c : r.checks) {
    out += (out.back() == '[' ? "" : ", ") + std::string("{\"name\": ") +
           quoted(c.name) + ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + quoted(c.detail) + "}";
  }
  out += "]";
  if (args.profile) {
    // Recorded as report_json() gives it, on the result's single line.
    std::string prof_json = prof::Profiler::report_json();
    std::replace(prof_json.begin(), prof_json.end(), '\n', ' ');
    out += ", \"profile\": " + prof_json;
  }
  return out + "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_sim --workload NAME --seed N "
                 "[--profile 0|1] [--workers W] [--setup-only 0|1] "
                 "[--spans FILE]\n");
    return 2;
  }
  if (!kOptimized || sanitized_build()) {
    std::fprintf(stderr,
                 "refusing to report host timings from this build (type %s, "
                 "optimized %d, sanitized %d, flags '%s')\n",
                 PERFBENCH_BUILD_TYPE, kOptimized ? 1 : 0,
                 sanitized_build() ? 1 : 0, PERFBENCH_CXX_FLAGS);
    return 3;
  }
  // Engine WARN lines would put stderr writes inside the timed phase.
  log::set_level(log::Level::kError);
  prof::Profiler::set_enabled(args.profile);
  const int workers = std::min(args.workers, host_cores());

  // The iteration's trace id: its start time, unique per process.
  Spans spans(static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count()));
  Result r;
  try {
    Spans::Scope root(spans, "bench.iteration");
    if (args.workload == "terasort_adaptive") {
      run_terasort(args.seed, args.setup_only, spans, r);
    } else if (args.workload == "serve_fair") {
      run_serve_fair(args.seed, args.setup_only, spans, r);
    } else if (args.workload == "churn_partitioned") {
      run_churn(args.seed, workers, args.setup_only, spans, r);
    } else if (args.workload == "stall_dynalloc" ||
               args.workload == "stall_control") {
      run_stall(args.workload == "stall_dynalloc", r);
    } else if (args.workload == "stall_churn_waves" ||
               args.workload == "stall_churn_control") {
      run_stall_churn(args.workload == "stall_churn_waves", r);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: simulation threw: %s\n", args.workload.c_str(),
                 e.what());
    return 4;
  }

  if (!args.spans_path.empty()) {
    std::ofstream out(args.spans_path);
    out << spans.json();
    r.check("spans_written", out.good(), args.spans_path);
  }
  std::fputs(result_json(args, workers, spans, r).c_str(), stdout);
  return 0;
}
