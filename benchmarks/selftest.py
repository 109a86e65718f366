"""Self-test of the benchmark at tiny sizes.

    python3 benchmarks/selftest.py

For each workload, with one pass per run:

* two untraced runs with one seed agree exactly on every count, quality
  metric and result digest;
* a traced run returns the same regret traces and estimates as the
  untraced run, and two traced runs agree exactly on every layer count;
* a second seed runs clean.

It also checks that the benchmark refuses a tree without cdfreg sources.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import run  # sets the BLAS thread count before numpy is imported
from workloads import TINY, WORKLOADS

TIMED = ("setup_s", "samples_per_s", "rounds_per_s", "regress_p50_s", "regress_p75_s",
         "peak_rss_mb", "machine_speed", "trace.overhead_frac")


def measure(pkg, workload, seed, trace):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)
    tally = run.Tally()
    metrics, _ = (run.traced if trace else run.end_to_end)(pkg, args, TINY, tally)
    digests = {key: sorted(d) for key, d in tally.digests.items()}
    exact = {k: v for k, (v, _) in metrics.items()
             if k not in TIMED and not k.startswith("wall.") and not k.endswith(".self_s")}
    return tally, digests, exact, {k: u for k, (_, u) in metrics.items()}


def main():
    pkg = run.import_package(run.ROOT)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    checks = []

    def check(name, ok, detail=""):
        checks.append(ok)
        print("%s %s%s" % ("PASS" if ok else "FAIL", name, (" (%s)" % detail) if detail else ""))

    check("BENCHMARK.json lists the gated metrics",
          [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
          and [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER))
    check("BENCHMARK.json lists the workloads",
          [w["name"] for w in spec["workloads"]] == list(WORKLOADS))

    def units_match(units, names):
        return all(units.get(n) == declared[n] for n in names)

    for workload in WORKLOADS:
        t1, d1, q1, u1 = measure(pkg, workload, 7, trace=0)
        t2, d2, q2, _ = measure(pkg, workload, 7, trace=0)
        check(workload + ": untraced runs are clean", t1.failed == t2.failed == 0,
              "; ".join(t1.reasons) or "")
        check(workload + ": quality metrics repeat exactly", q1 == q2, str(q1))
        check(workload + ": results repeat exactly", d1 == d2)

        check(workload + ": end-to-end units match BENCHMARK.json",
              units_match(u1, run.END_TO_END))

        tr1, dr1, c1, ur1 = measure(pkg, workload, 7, trace=1)
        tr2, _, c2, _ = measure(pkg, workload, 7, trace=1)
        check(workload + ": layer units match BENCHMARK.json", units_match(ur1, run.PER_LAYER))
        check(workload + ": traced runs are clean", tr1.failed == tr2.failed == 0,
              "; ".join(tr1.reasons) or "")
        check(workload + ": traced results equal untraced ones", dr1 == d1)
        check(workload + ": layer counts repeat exactly", c1 == c2)
        check(workload + ": layers were traced", c1["operators.basis_eval.calls"] > 0
              and c1["regression.regress.calls"] > 0)

        t3, _, _, _ = measure(pkg, workload, 8, trace=0)
        check(workload + ": a second seed is clean", t3.failed == 0, "; ".join(t3.reasons))

    try:
        run.import_package(run.BENCH_DIR / "out" / "no-such-checkout")
        check("a tree without sources is refused", False)
    except SystemExit:
        check("a tree without sources is refused", True)

    print("%d of %d checks passed" % (sum(checks), len(checks)))
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
