#!/usr/bin/env python3
"""Checked benchmark of the modalg chain: hull -> relations -> Lie-Ritt
ideal -> points -> Picard-Vessiot comparison.

Run from the root of a checkout:

    python3 bench/run.py --workload chain-deep --seed 1 --seconds 30 --trace 0

One client, closed loop: a pass solves every timed problem of the workload
in turn, each from freshly built inputs to an answer checked against the
theory, and the next pass starts only after the previous one is checked.
Passes repeat until --seconds have gone by.

--trace 0 prints the end-to-end metrics: set-up time (median over fresh
interpreters that import the library and build the inputs), the median pass
time, both scaled to the baseline machine's speed by reference kernels
timed around every pass, and the peak resident memory; the wall times and
the failure share, probes included, are printed beside them.  --trace 1
alternates untraced and traced passes and prints per-layer call counts and
self times (see spans.py), the tracing overhead and the failure share, and
writes the spans to .bench_trace/.  The last line of output is one JSON
object; the exit code is nonzero when any timed answer differs from the
theory value.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_TIMEOUT_S = 60
# reference_time() on the baseline machine at low load (BASELINE.json)
REFERENCE_S = 0.17


def _use_checkout_library():
    """Import modalg from the checkout's src/, never from anywhere else."""
    if not (SRC / "modalg" / "__init__.py").is_file():
        sys.exit(f"bench: no library at {SRC / 'modalg'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import modalg

    if Path(modalg.__file__).resolve().parent != SRC / "modalg":
        sys.exit(f"bench: imported modalg from {modalg.__file__}, not from {SRC}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the library, build the inputs, print 'ready', "
                         "then print the time of the reference kernels")
    return ap.parse_args(argv)


def _tail(xs):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(xs)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(xs)[n - 11]


# ------------------------------------------------------- machine speed


def _dict_kernel(n=150_000):
    d = {}
    for i in range(n):
        d[(i % 997, i % 991, i)] = (i * 7919) % 10007
    return sorted(d.items(), key=lambda kv: kv[1])


def _fraction_kernel(n=40, reps=4):
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(n) for j in range(3)}
    b = {(i, j): Fraction(j - 3, i + 1) for i in range(n) for j in range(3)}
    for _ in range(reps):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
    return out


def reference_time() -> float:
    """Seconds of fixed pure-Python work that does not touch modalg: the
    geometric mean of a large dict fill and sort, and a sparse product of
    Fraction-coefficient dicts keyed by exponent tuples.  It tracks how fast
    the shared machine runs Python at the moment; of the kernels tried, this
    mix followed the library's pass times most closely."""
    times = []
    for kernel in (_dict_kernel, _fraction_kernel):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return math.sqrt(times[0] * times[1])


# ------------------------------------------------------------------ passes


def solve_one(problem, inputs):
    """(answer, mismatches with the theory); a raised error is a mismatch."""
    try:
        ans = problem.solve(inputs)
        return ans, problem.check(ans)
    except Exception as exc:  # a failing problem is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return {"raised": f"{type(exc).__name__}: {exc}"}, [f"raised {type(exc).__name__}: {exc}"]


def run_pass(problems, tracer=None):
    """Solve every problem once; returns (seconds, [(answer, mismatches)]).
    Inputs are built before the clock starts and, when traced, before the
    tracer is installed."""
    inputs = [p.build() for p in problems]
    if tracer is not None:
        tracer.install()
        tracer.reset_stats()
    try:
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("pass"):
                results = [solve_one(p, x) for p, x in zip(problems, inputs)]
        else:
            results = [solve_one(p, x) for p, x in zip(problems, inputs)]
        return time.perf_counter() - t0, results
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_probes(probes, tracer=None):
    """Known defects, once each, outside the timed passes: [(name, seconds, mismatches)]."""
    out = []
    for p in probes:
        inputs = p.build()
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.request = p.name
                with tracer.span(p.name):
                    _, bad = solve_one(p, inputs)
            else:
                _, bad = solve_one(p, inputs)
            out.append((p.name, time.perf_counter() - t0, bad))
        finally:
            if tracer is not None:
                tracer.uninstall()
    return out


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Start a fresh interpreter that imports the library, builds the inputs
    and then runs reference_time().  Returns (seconds from the start to the
    inputs being built, the reference time).  The kernels run in the child
    so that their memory stays out of this process's peak."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        rest, _ = proc.communicate(timeout=SETUP_TIMEOUT_S)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    return t1 - t0, float(rest)


# ----------------------------------------------------------------- reports


def _failure_lines(problems, results_by_pass):
    lines = []
    for results in results_by_pass:
        for p, (_, bad) in zip(problems, results):
            if bad:
                lines.append(f"  FAILED {p.name}: {'; '.join(bad)}")
    return lines


def _emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def main_untraced(args, problems, probes) -> int:
    # The machine is shared, and its speed drifts by tens of percent within
    # minutes.  A set-up child runs before every pass and after the last one,
    # so each pass is bracketed by two reference times; every time is scaled
    # by REFERENCE_S over the mean of the reference times around it, which
    # reports it at the baseline machine's speed.
    t, r = measure_setup(args.workload, args.seed)
    setup, refs = [t], [r]
    times, results_by_pass = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        dt, results = run_pass(problems)
        times.append(dt)
        results_by_pass.append(results)
        t, r = measure_setup(args.workload, args.seed)
        setup.append(t)
        refs.append(r)
        if time.perf_counter() >= deadline:
            break
    probe_out = run_probes(probes)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def scaled(seconds, i):
        return seconds * REFERENCE_S / ((refs[i] + refs[i + 1]) / 2)

    # a set-up sample is scaled by the reference time of its own child
    setup_s = statistics.median(t * REFERENCE_S / r for t, r in zip(setup, refs))
    passes = [scaled(t, i) for i, t in enumerate(times)]
    solve_s = statistics.median(passes)
    speed = REFERENCE_S / statistics.median(refs)

    attempted = len(problems) * len(times)
    failed = sum(1 for rs in results_by_pass for _, bad in rs if bad)
    probe_failed = sum(1 for _, _, bad in probe_out if bad)
    fail_frac = (failed + probe_failed) / (attempted + len(probe_out))
    tail = _tail(passes)

    print(f"workload {args.workload} seed {args.seed}: {len(times)} passes of "
          f"{len(problems)} problems, {failed} of {attempted} timed answers wrong")
    for line in _failure_lines(problems, results_by_pass)[:10]:
        print(line)
    print(f"machine speed {speed:.3f} of the baseline (reference time, median of {len(refs)});"
          f" times below are scaled to the baseline")
    print(f"setup_s     {setup_s:.4f} s   median of {len(setup)} fresh interpreters"
          f" (wall {statistics.median(setup):.4f} s)")
    print(f"solve_s     {solve_s:.4f} s   median of {len(times)} passes"
          f" (wall {statistics.median(times):.4f} s)"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail else ", too few passes for a tail percentile"))
    print(f"peak_rss_mb {peak_mb:.1f} MB")
    print(f"fail_frac   {fail_frac:.4f}   ({failed + probe_failed} of {attempted + len(probe_out)}"
          f" operations, probes included)")
    for name, _, bad in probe_out:
        print(f"  probe {name}: {'FAILED ' + '; '.join(bad) if bad else 'ok'}")

    correct = failed == 0
    _emit(correct, attempted, failed, {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    })
    return 0 if correct else 1


def main_traced(args, problems, probes) -> int:
    from spans import KERNELS, STAGES, Tracer

    tracer = Tracer()
    untraced, traced, snaps = [], [], []
    results_by_pass = []
    deadline = time.perf_counter() + args.seconds
    while True:
        tracing = len(untraced) > len(traced)
        if tracing:
            tracer.request = f"pass {len(traced)}"
            dt, results = run_pass(problems, tracer)
            traced.append(dt)
            snaps.append(tracer.snapshot())
        else:
            dt, results = run_pass(problems)
            untraced.append(dt)
        results_by_pass.append(results)
        if time.perf_counter() >= deadline and traced:
            break
    probe_out = run_probes(probes, tracer)

    attempted = len(problems) * len(results_by_pass)
    failed = sum(1 for rs in results_by_pass for _, bad in rs if bad)
    probe_failed = sum(1 for _, _, bad in probe_out if bad)
    reference = [ans for ans, _ in results_by_pass[0]]
    same = all([ans for ans, _ in rs] == reference for rs in results_by_pass)

    metrics = {}
    for name in KERNELS + STAGES:
        metrics[f"{name}.calls"] = (statistics.median([s[name][0] for s in snaps]), "count")
        metrics[f"{name}.self_s"] = (statistics.median([s[name][1] for s in snaps]), "s")
    for name in STAGES:
        metrics[f"{name}.share"] = (statistics.median([s[name][2] / dt for s, dt in zip(snaps, traced)]),
                                    "share")

    def share(name):
        calls = sum(s[name][0] for s in snaps)
        return sum(s[name][3] for s in snaps) / calls if calls else 0.0

    metrics["exactalg.frac.const_den_share"] = (share("exactalg.frac.new"), "share")
    metrics["exactalg.poly.gcd.trivial_share"] = (share("exactalg.poly.gcd"), "share")
    metrics["exactalg.linalg.rref.cells"] = (statistics.median([s["exactalg.linalg.rref"][4] for s in snaps]),
                                             "count")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["fail_frac"] = ((failed + probe_failed) / (attempted + len(probe_out)), "share")

    print(f"workload {args.workload} seed {args.seed} traced: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {failed} of {attempted} timed answers wrong, "
          f"traced answers {'equal' if same else 'DIFFER FROM'} untraced")
    for line in _failure_lines(problems, results_by_pass)[:10]:
        print(line)
    print(f"solve_s untraced {statistics.median(untraced):.4f} s, traced "
          f"{statistics.median(traced):.4f} s")
    for name, dt, bad in probe_out:
        print(f"  probe {name}: {dt:.4f} s, {'FAILED ' + '; '.join(bad) if bad else 'ok'}")
    for name in KERNELS + STAGES:
        calls, self_s = metrics[f"{name}.calls"][0], metrics[f"{name}.self_s"][0]
        if calls:
            print(f"  {name:36s} {calls:>10.0f} calls  {self_s:9.4f} s self")
    out = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json"
    tracer.write(out, {"workload": args.workload, "seed": args.seed,
                       "untraced_s": untraced, "traced_s": traced})
    print(f"spans written to {out.relative_to(ROOT)}")

    correct = failed == 0 and same
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    _use_checkout_library()
    from workloads import workload

    problems, probes = workload(args.workload, args.seed)
    if args.setup_only:
        for p in problems:
            p.build()
        print("ready", flush=True)
        print(reference_time())
        return 0
    if args.trace:
        return main_traced(args, problems, probes)
    return main_untraced(args, problems, probes)


if __name__ == "__main__":
    sys.exit(main())
