#!/usr/bin/env python3
"""Repository benchmark: host cost and simulated outcome of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the simulator library from src/ plus a one-iteration
program perfbench_sim) into .bench_build/perfbench, then runs the named
workload for about S seconds: one process per iteration, so peak RSS and
set-up time are never inherited. Every iteration is checked (see README.md);
any failed check makes the result incorrect.

--trace 0 prints the end-to-end metrics: medians over the iterations, and
for setup_s over the cold set-ups of the iterations and of set-up-only
processes started between them.
--trace 1 alternates untraced and traced (profiler + spans) iterations and
prints the per-layer metrics, the tracing overhead, the known-stall checks,
and, for churn_partitioned, the cross-worker determinism check.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; attempted counts simulations run and failed counts those
that crashed, stalled past the host-time cap or failed a check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SIM = os.path.join(BUILD, "perfbench_sim")
TRACES = os.path.join(BUILD, "traces")

# BENCHMARK.json is the one list of workloads and metrics (names, units).
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Per-layer prefixes of layers that only some workloads reach.
WORKLOAD_LAYERS = ("serve.", "resilience.", "shard.", "harness.")

MIN_ITERATIONS = 3
# Host-time cap on one simulation. The slowest iteration takes about 9 s, so
# a simulation still running at the cap has stalled; it is killed and the run
# reports it by name instead of hanging.
ITERATION_CAP_S = 60.0
# Host-time cap on a known-stall repro (README.md); each control run takes
# well under a second.
STALL_CAP_S = 3.0
CHURN_WORKERS = 2
# After every untraced iteration, this many set-up-only processes each time
# one cold set-up; setup_s is the median of these and the iterations' own
# set-ups. One set-up takes 1-6 ms, so a few samples would be mostly noise.
SETUP_SAMPLES = 20

# prof::Profiler subsystem -> per-layer metric prefix. The subsystems "dfs"
# and "other" have no profiler scope in src/ yet, so they are not read.
PROFILER_LAYERS = {
    "sim": "sim",
    "hw/disk": "hw.disk",
    "hw/network": "hw.network",
    "engine/scheduler": "engine.scheduler",
    "engine/shuffle": "engine.shuffle",
    "adaptive": "adaptive",
    "metrics": "metrics",
    "storage": "storage",
}

SPAN_LAYERS = {  # benchmark-side span -> per-layer metric
    "hw.cluster_build": "hw.cluster_build_ms",
    "engine.context_build": "engine.context_build_ms",
    "dfs.load": "dfs.load_ms",
    "workloads.plan_build": "workloads.plan_build_ms",
    "serve.replay": "serve.replay_ms",
    "serve.report": "serve.report_ms",
    "shard.replay": "shard.replay_ms",
}


def log(msg):
    print(msg, flush=True)


def build():
    """Configures once, then builds incrementally; exits 1 on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def run_sim(workload, seed, profile=False, workers=CHURN_WORKERS,
            spans=None, setup_only=False, cap=ITERATION_CAP_S):
    """One iteration in its own process: (result, None) or (None, error)."""
    cmd = [SIM, "--workload", workload, "--seed", str(seed),
           "--profile", "1" if profile else "0", "--workers", str(workers),
           "--setup-only", "1" if setup_only else "0"]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=cap)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "stalled: no result within %.0f s of host time" % cap
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        return None, "perfbench_sim exit %d: %s" % (proc.returncode, err.strip())
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "perfbench_sim printed no result"


def failed_checks(res):
    return ["%s (%s)" % (c["name"], c["detail"]) for c in res["checks"]
            if not c["ok"]]


def end_to_end(sim):
    submitted = sim["submitted"]
    return {
        "sim_makespan_s": sim["makespan_s"],
        "sim_slo_attainment": sim["slo_met"] / sim["slo_tracked"]
        if sim["slo_tracked"] else 0.0,
        "jobs_finished_share": sim["succeeded"] / submitted if submitted else 0.0,
    }


class Run:
    """Iterations of one workload and the problems found in them."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0  # iterations that crashed, stalled or failed a check
        self.failures = []

    def iterate(self, label, **kw):
        self.attempted += 1
        res, err = run_sim(self.workload, self.seed, **kw)
        if err:
            self.failed += 1
            self.failures.append("%s seed %d %s: %s" % (
                self.workload, self.seed, label, err))
            return None
        bad = failed_checks(res)
        if bad:
            self.failed += 1
            self.failures.append("%s seed %d %s: failed checks: %s" % (
                self.workload, self.seed, label, "; ".join(bad)))
        return res

    def same_simulation(self, a, b, what):
        """Simulated results must match exactly (digest and sim metrics)."""
        if a["digest"] != b["digest"] or a["sim"] != b["sim"]:
            self.failures.append("%s seed %d: %s: simulated results differ "
                                 "(digest %s vs %s)" % (
                                     self.workload, self.seed, what,
                                     a["digest"], b["digest"]))


def timed_loop(run, seconds, kinds, after=None):
    """Cycles through `kinds` (label, kwargs) until `seconds` have passed,
    calling `after` (if given) after every iteration."""
    results = {label: [] for label, _ in kinds}
    start = time.monotonic()
    i = 0
    while True:
        label, kw = kinds[i % len(kinds)]
        t0 = time.monotonic()
        res = run.iterate("%s iteration %d" % (label, len(results[label]) + 1),
                          **kw)
        if res is None:
            break
        results[label].append(res)
        if after:
            after(res)
        i += 1
        elapsed = time.monotonic() - start
        done = all(len(v) >= MIN_ITERATIONS for v in results.values())
        if done and elapsed + (time.monotonic() - t0) > seconds:
            break
    return results


def describe(res):
    b = res["build"]
    log("build: %s, %s, flags '%s', nproc %d" % (
        b["type"], b["compiler"], b["flags"].strip(), b["nproc"]))
    s = res["sim"]
    log("simulated: makespan %.3f s, %d submitted, %d succeeded, %d failed, "
        "%d rejected, %d shed, %d cancelled, SLO %d/%d, job latency p50 %.3f s "
        "p99 %.3f s over %d jobs" % (
            s["makespan_s"], s["submitted"], s["succeeded"], s["failed"],
            s["rejected"], s["shed"], s["cancelled"], s["slo_met"],
            s["slo_tracked"], s["job_latency_p50_s"], s["job_latency_p99_s"],
            s["job_latency_samples"]))
    log("digest of simulated report: %s" % res["digest"])


def cold_setups(run, iteration):
    """The iteration's set-up and SETUP_SAMPLES more cold set-ups, each in a
    fresh process."""
    setups = [iteration["host"]["setup_s"]]
    for _ in range(SETUP_SAMPLES):
        res, err = run_sim(run.workload, run.seed, setup_only=True)
        if err:
            run.failures.append("%s seed %d set-up sample: %s" % (
                run.workload, run.seed, err))
            break
        setups.append(res["host"]["setup_s"])
    return setups


def measure_end_to_end(run, seconds):
    setups = []
    results = timed_loop(
        run, seconds, [("untraced", {})],
        after=lambda res: setups.extend(cold_setups(run, res)))["untraced"]
    if not results:
        return {}
    first = results[0]
    for other in results[1:]:
        run.same_simulation(first, other, "repeat of the same seed")
    describe(first)
    log("iterations: %d, wall_s each: %s" % (
        len(results), " ".join("%.3f" % r["host"]["wall_s"] for r in results)))
    q = statistics.quantiles(setups, n=4)
    log("setup_s: %d cold set-ups, quartiles %.4f %.4f %.4f ms" % (
        len(setups), q[0] * 1e3, q[1] * 1e3, q[2] * 1e3))
    metrics = {k: statistics.median(r["host"][k] for r in results)
               for k in ("wall_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    metrics.update(end_to_end(first["sim"]))
    return metrics


# Known simulator defects (README.md), each replayed by name in every traced
# run: (name, repro, control, what the repro is). The control is the same run
# without the trigger and must finish.
KNOWN_STALLS = (
    ("serve_dynalloc", "stall_dynalloc", "stall_control",
     "2 jobs, 16 nodes, dynamic allocation"),
    ("churn_waves", "stall_churn_waves", "stall_churn_control",
     "churn_partitioned seed 41, 400 jobs, kill/rejoin wave every 240 s"),
)


def known_stall_check(run):
    """The known livelocks, reported by name, never skipped."""
    for name, repro, control, what in KNOWN_STALLS:
        res, err = run_sim(control, 42, cap=STALL_CAP_S)
        if err or failed_checks(res):
            run.failures.append("known-stall %s: control (without the trigger) "
                                "failed: %s" % (name, err or failed_checks(res)))
            continue
        _, err = run_sim(repro, 42, cap=STALL_CAP_S)
        if err and err.startswith("stalled"):
            log("known stall: %s (%s) %s; the same run without the trigger "
                "finished" % (name, what, err))
        elif err:
            run.failures.append("known-stall %s: repro failed another way: %s"
                                % (name, err))
        else:
            log("known stall: %s now finishes within %.0f s; the defect looks "
                "fixed (README.md says what may follow)" % (name, STALL_CAP_S))


def measure_per_layer(run, seconds):
    os.makedirs(TRACES, exist_ok=True)
    spans = os.path.join(TRACES, "%s-seed%d.json" % (run.workload, run.seed))
    results = timed_loop(run, seconds, [
        ("untraced", {}),
        ("traced", {"profile": True, "spans": spans}),
    ])
    untraced, traced = results["untraced"], results["traced"]
    if not untraced or not traced:
        return {}
    base = untraced[0]
    for other in untraced[1:] + traced:
        run.same_simulation(base, other, "untraced repeat or traced run")
    if run.workload == "churn_partitioned":
        single = run.iterate("one harness worker", workers=1)
        if single is not None:
            run.same_simulation(base, single, "1 vs %d harness workers" %
                                base["workers"])
    known_stall_check(run)
    describe(base)
    log("iterations: %d untraced, %d traced; spans of the last traced "
        "iteration: %s" % (len(untraced), len(traced),
                           os.path.relpath(spans, ROOT)))
    log("profiler caveat: hw/* scopes include engine completion callbacks, "
        "so hw.disk/hw.network exclusive times are inflated (ROADMAP item 1)")

    metrics = dict(base["layers"])
    s = base["sim"]
    metrics["sim.job_latency_p50_s"] = s["job_latency_p50_s"]
    metrics["sim.job_latency_p99_s"] = s["job_latency_p99_s"]
    metrics["sim.job_latency_samples"] = s["job_latency_samples"]
    metrics["sim.queue_wait_p95_s"] = s["queue_wait_p95_s"]

    untraced_wall = statistics.median(r["host"]["wall_s"] for r in untraced)
    traced_wall = statistics.median(r["host"]["wall_s"] for r in traced)
    events = base["layers"]["sim.events"]
    metrics["sim.ns_per_event"] = untraced_wall * 1e9 / events
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    for span, name in SPAN_LAYERS.items():
        metrics[name] = statistics.median(r["spans_ms"][span] for r in traced)
    for sub, prefix in PROFILER_LAYERS.items():
        rows = [{row["name"]: row for row in r["profile"]["subsystems"]}.get(sub)
                for r in traced]
        calls = statistics.median(row["calls"] if row else 0 for row in rows)
        excl = statistics.median(row["exclusive_ns"] if row else 0 for row in rows)
        metrics[prefix + ".calls"] = calls
        metrics[prefix + ".excl_ms"] = excl / 1e6
    net = metrics["hw.network.calls"]
    metrics["hw.network.ns_per_call"] = (
        metrics["hw.network.excl_ms"] * 1e6 / net if net else 0.0)
    return metrics


def listed(run, computed, spec):
    """Pairs each metric BENCHMARK.json lists with its unit, and fails the
    run when the file and the computed metrics disagree. A metric of a layer
    the workload never reaches (WORKLOAD_LAYERS) reads 0."""
    missing = sorted(n for n in spec
                     if n not in computed and not n.startswith(WORKLOAD_LAYERS))
    unlisted = sorted(set(computed) - set(spec))
    if missing:
        run.failures.append("listed in BENCHMARK.json but not computed: " +
                            ", ".join(missing))
    if unlisted:
        run.failures.append("computed but not listed in BENCHMARK.json: " +
                            ", ".join(unlisted))
    return {n: (computed.get(n, 0), unit) for n, unit in spec.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    run = Run(args.workload, args.seed)
    log("workload %s, seed %d, %s run of about %g s" % (
        args.workload, args.seed, "traced" if args.trace else "untraced",
        args.seconds))
    if args.trace:
        computed, spec = measure_per_layer(run, args.seconds), PER_LAYER
    else:
        computed, spec = measure_end_to_end(run, args.seconds), END_TO_END
    measured = listed(run, computed, spec) if computed else {}

    for problem in run.failures:
        log("FAILED: " + problem)
    for name, (value, unit) in measured.items():
        log("%-42s %18.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not run.failures and bool(measured),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
