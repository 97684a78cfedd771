#!/usr/bin/env python3
"""Self-test of the benchmark, on small inputs (about a minute):

  1. BENCHMARK.json names exactly the metrics and units run.py emits.
  2. A smoke run of every workload, untraced and traced, emits every named
     metric with its unit, and passes its output checks.
  3. A run with the skip-invalidate protocol bug injected is counted as
     failed (fail_frac > 0), not reported as a pass.

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


def check_metrics(result, names, label):
    metrics = result["metrics"]
    expect(set(metrics) == set(names), f"{label}: emits exactly the named metrics")
    expect(all(metrics[n]["unit"] == names[n] for n in names if n in metrics),
           f"{label}: every metric carries its unit")
    expect(all(isinstance(m["value"], (int, float)) for m in metrics.values()),
           f"{label}: every value is a number")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")

    for workload in run.WORKLOADS:
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            label = f"{workload} --trace {trace}"
            result = bench(workload, trace)
            expect(result is not None, f"{label}: exits 0 with a result line")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: passes its output checks")
            check_metrics(result, names, label)
            if trace == 0:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{label}: no end-to-end metric is 0")

    for workload in ("fuzz_observed", "model_check"):
        result = bench(workload, 0, "--fault", "skip-invalidate")
        label = f"{workload} with skip-invalidate injected"
        expect(result is not None and not result["correct"] and result["failed"] > 0,
               f"{label}: counted in fail_frac, not a pass")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
