#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source, runs one workload
as a closed loop for a measuring window, checks every output and prints the
metrics. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured on the
untraced binary; with --trace 1 they are the per-layer ones, measured on
the traced binary, plus the traced run's own overhead. See README.md.

    python3 perfbench/run.py --workload paper_sweep --seed 42 --seconds 15 --trace 0
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper_sweep", "ocean64_par", "fuzz_observed", "model_check")
# The end-to-end runs put the parallel workloads' 4 domains on one worker: on a
# shared host, spin-waiting workers made run-to-run spread 0.18-0.37 of the
# median. Traced runs also measure min(nproc, 4) workers.
PARALLEL = ("ocean64_par", "fuzz_observed")
DEFAULT_SEED = 42  # os::KernelConfig's default; the fig4 baseline's seed
# Measuring (after the build) must end within this many seconds; a benchmark
# process still running at the deadline is killed.
MEASURE_BUDGET_S = 170

# name -> unit. Every end-to-end metric is reported on every workload. The
# summary also prints a wall_s tail percentile, sim_kips or states_per_s,
# sim_mcycles, noc_mbytes and fail_frac; they are left out of the JSON
# because a tail percentile of a few jobs is too noisy to gate on, the rate
# is throughput under its own name, the simulated figures are 0 on
# model_check, and fail_frac is carried by "attempted" and "failed".
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "throughput": "k/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.run_s": "s",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.allocs_per_event": "count",
    "sim.queue_ns_per_op": "ns",
    "sim.parallel.epochs": "count",
    "sim.parallel.events_per_epoch": "count",
    "sim.parallel.barrier_wait_share": "ratio",
    "sim.parallel.mailbox_max": "count",
    "sim.parallel.workers": "count",
    "sim.parallel.speedup": "ratio",
    "sim.obs.export_s": "s",
    "sim.obs.run_overhead": "ratio",
    "sim.obs.trace_bytes": "bytes",
    "check.loads_verified": "count",
    "check.violations": "count",
    "cpu.instructions": "count",
    "cpu.ops": "count",
    "cpu.d_stall_cycles": "cycles",
    "cpu.i_stall_cycles": "cycles",
    "cpu.context_switches": "count",
    "cache.icache_accesses": "count",
    "cache.icache_miss_ratio": "ratio",
    "cache.dcache_accesses": "count",
    "cache.dcache_miss_ratio": "ratio",
    "cache.invalidations": "count",
    "cache.writebacks": "count",
    "cache.wbuf_full": "count",
    "cache.ns_per_ifetch": "ns",
    "cache.ns_per_dcache_hit": "ns",
    "noc.packets": "count",
    "noc.bytes": "bytes",
    "noc.fifo_overflow_cycles": "cycles",
    "noc.latency_mean": "cycles",
    "noc.ns_per_packet": "ns",
    "noc.allocs_per_packet": "count",
    "mem.bank_requests": "count",
    "mem.bank_busy_cycles": "cycles",
    "mem.bank_queue_delay_mean": "cycles",
    "mem.block_conflicts": "count",
    "mem.invalidations_sent": "count",
    "mem.l2_fills": "count",
    "mem.l2_recalls": "count",
    "mem.ns_per_dir_op": "ns",
    "verify.states": "count",
    "verify.edges": "count",
    "verify.explore_s": "s",
    "verify.bytes_per_state": "bytes",
    "verify.dead_rows": "count",
    "sim_mcycles": "Mcycles",
    "noc_mbytes": "MB",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
}

class BenchError(Exception):
    """The benchmark could not measure (no result is printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build both binaries; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", str(min(nproc(), 4))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return out


def run_binary(binary, args, seconds, work_dir, deadline, workers=1):
    """Run one benchmark process; returns (raw report, peak RSS in MB)."""
    work_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = work_dir / "stdout.txt", work_dir / "stderr.txt"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--workers", str(workers),
           "--work-dir", str(work_dir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.fault:
        cmd += ["--fault", args.fault]
    if args.workload == "paper_sweep" and args.seed == DEFAULT_SEED and not args.smoke:
        # At the default seed the n<=16 points must equal the committed baseline.
        cmd += ["--baseline", str(ROOT / "bench" / "baselines" / "BENCH_fig4_small.json")]
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    # The heartbeat's stderr one-liners are summarised by the traced metrics.
    errors = [line for line in err_path.read_text(errors="replace").splitlines()
              if not line.startswith("[heartbeat]")]
    for line in errors[-40:]:
        log(line)
    lines = out_path.read_text().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{binary.name} exited with status {proc.returncode}")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def refuse_unfit_build(build_info):
    why = []
    if not build_info["optimized"]:
        why.append("unoptimised")
    if build_info["harden"]:
        why.append("hardened (_GLIBCXX_ASSERTIONS)")
    if build_info["sanitizers"].strip() or "-fsanitize" in build_info["cxx_flags"]:
        why.append("sanitized")
    if why:
        raise BenchError("refusing to report timings: the build is " + ", ".join(why) +
                         " (" + build_info["cxx_flags"] + ")")


def failed_jobs(raw):
    """Count failed jobs, echoing the first errors to stderr."""
    failed = 0
    for job in raw["jobs"]:
        failed += bool(job["errors"])
        for e in job["errors"][:3]:
            log(f"FAIL: {e}")
    return failed


def median(values):
    return statistics.median(values)


def tail(values):
    """The highest whole percentile with at least ten samples beyond it, as
    (percentile, value); None when fewer than 20 samples allow none above
    the median."""
    pct = int(100 * (1 - 10 / len(values)))
    if pct <= 50:
        return None
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_job(raw, key):
    return [job[key] for job in raw["jobs"]]


def end_to_end(raw, rss_mb):
    walls = per_job(raw, "wall_s")
    return {
        "wall_s": median(walls),
        "setup_s": median(raw["setup_s"]),
        # k-units of work per host second: simulated kilo-instructions
        # (= sim_kips, instructions per host ms) or thousand explored states.
        "throughput": median([j["work"] / 1000.0 / j["wall_s"] for j in raw["jobs"]]),
        "peak_rss_mb": rss_mb,
    }


def layer_median(raw, name):
    return median([j["layers"].get(name, 0.0) for j in raw["jobs"]])


def per_layer(untraced, traced, multi):
    """Per-layer figures of the traced one-worker run; the barrier share and
    the speed-up come from the traced multi-worker run, when there is one."""
    values = {}
    for name in PER_LAYER:
        if name in traced["micro"]:
            values[name] = traced["micro"][name]
        else:
            values[name] = layer_median(traced, name)
    if multi is not None:
        values["sim.parallel.barrier_wait_share"] = layer_median(
            multi, "sim.parallel.barrier_wait_share")
        values["sim.parallel.workers"] = multi["workers"]
        values["sim.parallel.speedup"] = (median(per_job(traced, "wall_s")) /
                                          median(per_job(multi, "wall_s")))
    values["sim_mcycles"] = median(per_job(traced, "sim_cycles")) / 1e6
    values["noc_mbytes"] = median(per_job(traced, "noc_bytes")) / 1e6
    values["trace.wall_s"] = median(per_job(traced, "wall_s"))
    values["trace.untraced_wall_s"] = median(per_job(untraced, "wall_s"))
    values["trace.overhead"] = values["trace.wall_s"] / values["trace.untraced_wall_s"]
    return values


def describe_host(build_info):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_model": model, "compiler": build_info["compiler"],
            "build_type": build_info["build_type"], "cxx_flags": build_info["cxx_flags"]}


def print_summary(args, raw, metrics, attempted, failed):
    print(f"perfbench {args.workload} seed={args.seed} window={args.seconds}s "
          f"jobs={attempted} trace={args.trace}")
    print("  (the model is not validated against hardware: simulated figures are"
          " the modelled design's results, with no error figure)")
    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if not args.trace:
        walls = per_job(raw, "wall_s")
        high = tail(walls)
        if high is not None:
            print(f"  {f'wall_p{high[0]}_s':34s} {high[1]:14.6g} s")
        print(f"  {'jobs':34s} {len(walls):14d} count")
        sim = args.workload != "model_check"
        rate = metrics["throughput"]
        print(f"  {'sim_kips' if sim else 'states_per_s':34s} "
              f"{rate if sim else rate * 1000:14.6g} {'kinstr/s' if sim else 'states/s'}")
        if sim:
            print(f"  {'sim_mcycles':34s} {median(per_job(raw, 'sim_cycles')) / 1e6:14.6g} Mcycles")
            print(f"  {'noc_mbytes':34s} {median(per_job(raw, 'noc_bytes')) / 1e6:14.6g} MB")
    print(f"  {'fail_frac':34s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--fault", choices=("skip-invalidate",),
                    help="inject a protocol bug; the runs must then fail")
    args = ap.parse_args()

    try:
        out = build()
        work_dir = out / "run"
        deadline = time.monotonic() + MEASURE_BUDGET_S
        if args.trace:
            # Half the window untraced, half traced: the traced run's
            # overhead is read against the untraced one.
            half = args.seconds / 2
            raw, _ = run_binary(out / "perfbench", args, half, work_dir, deadline)
            traced, _ = run_binary(out / "perfbench_traced", args, half, work_dir, deadline)
            runs = [raw, traced]
            multi = None
            if args.workload in PARALLEL:
                multi, _ = run_binary(out / "perfbench_traced", args, half, work_dir, deadline,
                                      workers=min(nproc(), 4))
                runs.append(multi)
            metrics = per_layer(raw, traced, multi)
        else:
            raw, rss_mb = run_binary(out / "perfbench", args, args.seconds, work_dir, deadline)
            runs = (raw,)
            metrics = end_to_end(raw, rss_mb)
        refuse_unfit_build(raw["build"])
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    attempted = sum(len(r["jobs"]) for r in runs)
    failed = sum(failed_jobs(r) for r in runs)
    print_summary(args, raw, metrics, attempted, failed)
    print("host " + json.dumps(describe_host(raw["build"])))
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
