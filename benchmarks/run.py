"""cdfreg benchmark: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload episode --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's own ``src/``. Every metric is printed by name
with its unit, and the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. It times each set-up, each
job and each of the engine's oracle calls with a calibrated clock
(``clock.py``) and nothing else. ``--trace 1`` runs one untraced reference
pass, then traced passes, and reports per-layer calls and self times for
one set-up plus one pass; the spans go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the order of reductions stays fixed, so counts and
# results repeat exactly for a seed, and runs do not fight over 2 cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

from clock import REFERENCE_S, Clock  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import FULL, WORKLOADS, make_workload  # noqa: E402

# Metrics BENCHMARK.json bounds, in its order: those that
# exist on every workload and stay steady from run to run. The others
# (regress_p50_s, regress_p75_s, rounds_per_s, regret_slope, heldout_err,
# failed_frac) are printed but not gated.
END_TO_END = ("setup_s", "samples_per_s", "coverage_frac", "peak_rss_mb")
# BENCHMARK.json lists self times only for layers that run on every
# workload (elsewhere they would read exactly 0 s); the rest are printed.
# It lists call counts for every layer.
LAYERS_ON_EVERY_WORKLOAD = (
    "operators.basis_eval", "operators.point_kernel", "regression.design_operator",
    "numerics.sym_eig", "regression.project_to_C", "regression.empirical_target",
    "regression.loss", "regression.pseudo_inverse_apply", "regression.regress",
    "harness.resolve_gamma",
)
PER_LAYER = (tuple(n + ".calls" for n in SPAN_NAMES)
             + tuple(n + ".self_s" for n in LAYERS_ON_EVERY_WORKLOAD)
             + ("regression.project_to_C.iterations",
                "regression.project_to_C.converged_ratio"))
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_TARGET_S = 3, 200, 2.0
P75_MIN_BEYOND = 10


class Plain:
    """Leaves environments and functionals untimed."""

    @staticmethod
    def environment(env):
        return env

    @staticmethod
    def functional(fn):
        return fn


def import_package(root: Path):
    """Import cdfreg from the checkout's src/, never from anywhere else."""
    src = root / "src"
    if not (src / "cdfreg" / "__init__.py").is_file():
        raise SystemExit("benchmark: no cdfreg sources under %s" % src)
    sys.path.insert(0, str(src))
    import cdfreg
    from cdfreg import engine, environments, harness, numerics, operators, regression  # noqa: F401

    if Path(cdfreg.__file__).resolve().parent != (src / "cdfreg").resolve():
        raise SystemExit("benchmark: imported cdfreg from %s, not from the checkout"
                         % cdfreg.__file__)
    return cdfreg


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable (unresolved %s)" % name


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "cdfreg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def metadata(root: Path, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root), "source_sha256": source_digest(root),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": BLAS_THREADS, "machine": platform.machine(),
    }


class Tally:
    """Attempts, failures and their reasons, each job's first result, and
    the digests of all its results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}
        self.first: dict = {}
        self.digests: dict = {}

    def run(self, key, job, clock):
        """One attempt of a job; a repeat, traced or not, must reproduce the
        job's first result exactly."""
        self.attempted += 1
        try:
            out = job(clock)
        except Exception:  # a failing operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.fail(key, ["raised " + traceback.format_exc().strip().splitlines()[-1]])
            return None
        problems = list(out.failures)
        self.digests.setdefault(key, set()).add(out.fingerprint)
        if self.first.setdefault(key, out).fingerprint != out.fingerprint:
            problems.append("result differs from the first run of the same job")
        if problems:
            self.fail(key, problems)
        return out

    def fail(self, key, problems):
        self.failed += 1
        for p in problems:
            reason = "%s: %s" % (key, p)
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


def run_jobs(jobs, tally, clock, seconds: float, start: float) -> dict:
    """Cycle through the jobs until ``seconds`` have passed since ``start``,
    at least once each; returns the outcomes of each job."""
    outcomes = {key: [] for key, _, _ in jobs}
    k = 0
    while k < len(jobs) or time.perf_counter() - start < seconds:
        key, _, job = jobs[k % len(jobs)]
        out = tally.run(key, job, clock)
        if out is not None:
            if outcomes[key]:
                out.result = None  # the quality pass reads first results only
            outcomes[key].append(out)
        k += 1
    return outcomes


def repeated_setup(make, clock):
    """Set up several times; returns the last workload built and the clock
    segment of each set-up."""
    segments = []
    while (len(segments) < SETUP_MIN_REPEATS
           or (sum(map(clock.raw, segments)) < SETUP_TARGET_S
               and len(segments) < SETUP_MAX_REPEATS)):
        wl = make()
        clock.start()
        wl.setup(Plain)
        segments.append(clock.split())
    return wl, segments


def timing_metrics(prefix, seconds, setup_segments, jobs, outcomes, episode):
    """Set-up, throughput and oracle latency, with ``seconds`` turning a
    clock segment into raw or calibrated seconds."""
    metrics = {prefix + "setup_s": (float(np.median(list(map(seconds, setup_segments)))), "s")}
    # Means over a job's repeats: the machine's speed drifts in stretches of
    # tens of seconds, which a mean averages and a median snaps between.
    job_s = [float(np.mean([sum(map(seconds, o.segments)) for o in outcomes[key]]))
             for key, _, _ in jobs]
    oracle_s = [float(np.mean(list(map(seconds, calls)))) for key, _, _ in jobs
                for calls in zip(*[o.oracle_segments for o in outcomes[key]])]
    rate = sum(samples for _, samples, _ in jobs) / sum(job_s)
    metrics[prefix + "samples_per_s"] = (rate, "1/s")
    if episode:
        metrics[prefix + "rounds_per_s"] = (rate, "1/s")
    metrics[prefix + "regress_p50_s"] = (float(np.median(oracle_s)), "s")
    if len(oracle_s) >= 4 * P75_MIN_BEYOND:
        metrics[prefix + "regress_p75_s"] = (float(np.percentile(oracle_s, 75)), "s")
    return metrics, len(oracle_s)


def end_to_end(pkg, args, sizes, tally):
    clock = Clock()
    wl, setup_times = repeated_setup(
        lambda: make_workload(args.workload, pkg, sizes, args.seed), clock)
    jobs = wl.jobs(Plain)
    outcomes = run_jobs(jobs, tally, clock, args.seconds, time.perf_counter())
    if any(not outs for outs in outcomes.values()):
        return {}, {"setup_repeats": len(setup_times)}

    episode = wl.name == "episode"
    metrics, n_calls = timing_metrics("", clock.calibrated, setup_times, jobs, outcomes, episode)
    metrics.update(wl.quality({key: outs[0].result for key, outs in outcomes.items()}))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics.update(timing_metrics("wall.", clock.raw, setup_times, jobs, outcomes, episode)[0])
    metrics["machine_speed"] = (
        REFERENCE_S / float(np.median([p for _, p in clock.probes])), "ratio")
    notes = {"setup_repeats": len(setup_times), "jobs": len(jobs),
             "job_runs": sum(len(o) for o in outcomes.values()),
             "regress_calls_timed": n_calls}
    return metrics, notes


def traced(pkg, args, sizes, tally):
    tracer = Tracer(pkg)
    wl = make_workload(args.workload, pkg, sizes, args.seed)
    tracer.install()
    try:
        m0 = tracer.mark()
        wl.setup(tracer)
        m1 = tracer.mark()
    finally:
        tracer.uninstall()

    clock = Clock()

    def job_s(out):
        return sum(map(clock.calibrated, out.segments)) if out is not None else 0.0

    start = time.perf_counter()
    reference = run_jobs(wl.jobs(Plain), tally, clock, 0.0, start)
    reference_s = sum(job_s(outs[0]) for outs in reference.values() if outs)
    jobs = wl.jobs(tracer)
    marks, pass_s = [m1], []
    tracer.install()
    try:
        while not pass_s or time.perf_counter() - start < args.seconds:
            pass_s.append(sum(job_s(tally.run(key, job, clock)) for key, _, job in jobs))
            marks.append(tracer.mark())
    finally:
        tracer.uninstall()

    setup = tracer.layer_totals(m0, m1)
    passes = [tracer.layer_totals(a, b) for a, b in zip(marks, marks[1:])]
    metrics = {}
    for name in SPAN_NAMES:
        counts = {p[name]["calls"] for p in passes}
        if len(counts) > 1:
            tally.fail(name, ["call counts differ between passes: %s" % sorted(counts)])
        calls = setup[name]["calls"] + passes[0][name]["calls"]
        self_s = setup[name]["self_s"] + float(np.median([p[name]["self_s"] for p in passes]))
        metrics[name + ".calls"] = (calls, "count")
        metrics[name + ".self_s"] = (self_s, "s")
    proj = "regression.project_to_C"
    counters = tracer.counters_between(m0, marks[1])
    n_proj = metrics[proj + ".calls"][0]
    metrics[proj + ".iterations"] = (counters[proj + ".iterations"], "count")
    metrics[proj + ".converged_ratio"] = (
        counters[proj + ".converged"] / n_proj if n_proj else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (float(np.median(pass_s)) / reference_s - 1.0, "ratio")
    metrics["trace.spans_per_pass"] = (marks[1][0] - marks[0][0], "count")

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / ("spans-%s.csv" % args.workload)
    tracer.write_spans(spans_path)
    return metrics, {"traced_passes": len(pass_s), "reference_pass_s": "%.4f" % reference_s,
                     "spans_file": str(spans_path.relative_to(ROOT))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package(ROOT)
    for key, value in metadata(ROOT, args).items():
        print("meta %s = %s" % (key, value))
    tally = Tally()
    measure = traced if args.trace else end_to_end
    metrics, notes = measure(pkg, args, FULL, tally)
    metrics["failed_frac"] = (tally.failed / max(tally.attempted, 1), "ratio")
    for key, value in notes.items():
        print("note %s = %s" % (key, value))
    for reason, count in sorted(tally.reasons.items()):
        print("failure %s (x%d)" % (reason, count), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("metric %s = %.6g %s" % (name, value, unit))

    gated = END_TO_END if not args.trace else PER_LAYER
    missing = [m for m in gated if m not in metrics]
    if missing:
        print("benchmark: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]} for m in gated},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
