// Fault recovery bench (extension beyond the paper's figures):
//
//   (a) speculative execution vs a 1-slow-node straggler on Terasort —
//       first-result-wins copies must cut the makespan by >= 25%,
//   (b) executor-kill recovery — same seed, same kill, run twice under each
//       executor policy (default / static / dynamic): the event streams must
//       be bitwise identical and every policy must finish the job,
//   (c) under the same kill, the paper's dynamic self-adaptive policy must
//       beat Spark's default thread configuration.
//
// Exit code is non-zero if any criterion fails. `--smoke` shrinks the inputs
// for CI; `--json <path>` emits the machine-readable (name, wall seconds,
// events, events/sec) record guarded by tools/check_bench.py.
#include <chrono>
#include <cstring>

#include "bench_common.h"

namespace {

using namespace saexbench;

bool g_smoke = false;
int g_failures = 0;
BenchJson g_json;

using Clock = std::chrono::steady_clock;

void check(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

struct AppResult {
  double runtime = 0.0;   // simulated seconds
  double wall = 0.0;      // host seconds
  uint64_t processed = 0; // simulation events processed
  bool failed = false;
  std::string events;  // full event log, one JSON object per line
};

// Mirrors workloads::run() but keeps the context so the event log (the
// determinism witness) survives the run.
AppResult run_app(const workloads::WorkloadSpec& spec,
                  const std::map<std::string, std::string>& overrides) {
  hw::ClusterSpec cs = hw::ClusterSpec::das5(4);
  cs.slow_disk_prob = 0.0;  // stragglers come from injection only
  hw::Cluster cluster(cs);

  conf::Config config;
  // nodes x 32 as on the testbed: the thread-policy comparison needs real
  // per-node I/O contention, which lower parallelism would hide.
  config.set_int("spark.default.parallelism", 128);
  for (const auto& [k, v] : overrides) config.set(k, v);

  engine::EventBuffer events;
  engine::SparkContext ctx(cluster, std::move(config));
  ctx.event_log().attach(events);
  AppResult out;
  const auto t0 = Clock::now();
  try {
    for (const engine::Rdd& action : spec.build(ctx)) {
      const engine::JobReport report = ctx.run_job(action, spec.name);
      out.runtime += report.total_runtime;
      out.processed += report.events_processed;
    }
  } catch (const engine::StageAbortedError& e) {
    std::printf("  job failed: %s\n", e.what());
    out.failed = true;
  }
  out.wall = std::chrono::duration<double>(Clock::now() - t0).count();
  out.events = events.to_json_lines();
  return out;
}

workloads::WorkloadSpec app() {
  return workloads::terasort(g_smoke ? gib(4) : gib(32));
}

void bench_speculation() {
  std::printf("\n-- speculation vs a 1-slow-node straggler (Terasort) --\n");
  const std::map<std::string, std::string> straggler = {
      {"saex.fault.enabled", "true"},
      {"saex.fault.slowNode", "1"},
      {"saex.fault.slowFactor", "0.15"},
      {"saex.fault.slowTime", "0"},
  };
  auto with_speculation = straggler;
  with_speculation["spark.speculation"] = "true";
  with_speculation["spark.speculation.multiplier"] = "1.3";
  with_speculation["spark.speculation.quantile"] = "0.6";

  const AppResult off = run_app(app(), straggler);
  const AppResult on = run_app(app(), with_speculation);
  g_json.record("fault_straggler", off.wall, off.processed);
  g_json.record("fault_straggler_spec", on.wall, on.processed);
  const double gain = 100.0 * (off.runtime - on.runtime) / off.runtime;

  TextTable t({"speculation", "makespan", "vs off"});
  t.add_row({"off", format_duration(off.runtime), "-"});
  t.add_row({"on", format_duration(on.runtime),
             strfmt::format("-{:.1f}%", gain)});
  std::printf("%s", t.render().c_str());
  check(!off.failed && !on.failed, "straggler runs finish");
  check(gain >= 25.0,
        strfmt::format("speculation cuts the straggler makespan by >=25% "
                       "(measured {:.1f}%)",
                       gain));
}

void bench_kill_recovery() {
  std::printf("\n-- executor-kill recovery: determinism per policy --\n");
  const std::map<std::string, std::string> kill = {
      {"saex.fault.enabled", "true"},
      {"saex.fault.killNode", "2"},
      {"saex.fault.killAfterTasks", g_smoke ? "20" : "80"},
  };

  TextTable t({"policy", "makespan", "replay"});
  std::map<std::string, double> runtime;
  for (const std::string policy : {"default", "static", "dynamic"}) {
    auto overrides = kill;
    overrides["saex.executor.policy"] = policy;
    const AppResult a = run_app(app(), overrides);
    const AppResult b = run_app(app(), overrides);
    g_json.record("fault_kill_" + policy, a.wall, a.processed);
    const bool identical = !a.failed && !b.failed && a.runtime == b.runtime &&
                           a.events == b.events;
    runtime[policy] = a.runtime;
    t.add_row({policy, format_duration(a.runtime),
               identical ? "bitwise identical" : "DIVERGED"});
    check(!a.failed, policy + ": job survives the executor kill");
    check(identical, policy + ": kill replay is bitwise deterministic");
  }
  std::printf("%s", t.render().c_str());

  check(runtime["dynamic"] < runtime["default"],
        strfmt::format("dynamic beats default under the kill ({} vs {})",
                       format_duration(runtime["dynamic"]),
                       format_duration(runtime["default"])));
}

}  // namespace

int main(int argc, char** argv) {
  g_smoke = has_flag(argc, argv, "--smoke");
  const std::string json_path = json_path_arg(argc, argv);

  print_title("Fault recovery",
              "speculation vs stragglers; lineage recovery after an executor "
              "kill",
              "speculation gains >=25% on a 1-slow-node Terasort; kill "
              "recovery is bitwise seed-stable under default/static/dynamic; "
              "dynamic beats default under faults");
  if (g_smoke) std::printf("(smoke inputs)\n");

  bench_speculation();
  bench_kill_recovery();

  int rc = g_failures == 0 ? 0 : 1;
  if (!json_path.empty()) {
    const bool ok = g_json.write("fault_recovery", json_path);
    std::printf("%s %s\n", ok ? "wrote" : "FAILED to write", json_path.c_str());
    if (!ok) rc = 1;
  }
  std::printf("\n%d criterion failure(s)\n", g_failures);
  return rc;
}
