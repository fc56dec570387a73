#!/usr/bin/env python3
"""foliops benchmark: one seeded workload in a fresh interpreter.

    python3 perfbench/run.py --workload battery|nonlinear|multi-f \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end figures and, as the last line, a
JSON object ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` first times the
workload untraced, then again with the outside-in tracer installed, and
reports the per-layer metrics; its spans go to
``perfbench/out/trace-<workload>-s<seed>.tsv.gz``.

Set-up (importing foliops, building the workspace, fixtures and kernels)
is timed once in this interpreter and ``SETUP_REPEATS - 1`` times in
fresh child interpreters (half before the body, half after it); the
median is reported.  The body then repeats until
``--seconds`` have passed (at least once); times are medians over those
iterations.  Outputs are checked outside the timed region: every
iteration must reproduce the first bit for bit, the battery's checks
must pass, and ``nonlinear``/``multi-f`` outputs are compared with
independent scipy references (``oracles.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5  # one in this process, the rest in fresh child interpreters
REF_TOL = 1e-6  # max abs error against the references (accuracy gate)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Gated metrics: every workload reports each of them, and none is ever 0.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def cap_threads():
    """Cap BLAS/OpenMP pools at the CPUs this process may use."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def summary(samples):
    """Median, the highest percentile with >= 10 samples above it, and n."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail_pct": None, "tail": None,
           "samples": list(samples)}
    if n >= 11:
        out["tail_pct"] = round(100.0 * (n - 10) / n, 2)
        out["tail"] = xs[n - 11]
    return out


def same_outputs(a, b):
    """Bit-for-bit equality of two output dicts (NaN equals NaN)."""
    import numpy as np

    if a.keys() != b.keys():
        return False
    for k in a:
        x, y = a[k], b[k]
        if isinstance(x, np.ndarray):
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
        elif json.dumps(x, sort_keys=True) != json.dumps(y, sort_keys=True):
            return False
    return True


def assess(workload, out):
    """(attempted, failed, tol_use_max) for one iteration's outputs.

    A battery operation is one verification check; tol_use_max is its
    measured value over its tolerance, inverted for order checks (which
    pass when measured >= tolerance).  Elsewhere an operation is one
    output value and a NaN counts as failed.
    """
    import numpy as np

    if workload == "battery":
        report = out["report"]
        uses = []
        for e in report:
            m, tol, passed = e["measured"], e["tolerance"], e["status"] == "pass"
            if not np.isfinite(m):
                uses.append(float("inf"))
            elif (m >= tol) == passed and m != tol:  # an "at least" check
                uses.append(tol / m if m else float("inf"))
            else:
                uses.append(m / tol)
        failed = sum(e["status"] != "pass" for e in report)
        return len(report), failed, max(uses)
    vals = [np.asarray(v, float).ravel() for v in out.values()]
    attempted = sum(v.size for v in vals)
    failed = sum(int(np.sum(~np.isfinite(v))) for v in vals)
    return attempted, failed, None


def run_phase(body, spec, fx, seconds, tracer=None):
    """Repeat the body for about ``seconds``; returns per-iteration records."""
    walls, ops, outs = [], {}, []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.new_iteration()
        t0 = time.perf_counter()
        try:
            out, times = body(spec, fx)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            out, times = None, {}
        dt = time.perf_counter() - t0
        walls.append(dt)
        outs.append(out)
        for k, v in times.items():
            ops.setdefault(k, []).append(v)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * dt >= seconds:
            break
    return {"walls": walls, "ops": ops, "outs": outs}


def set_up(setup, spec):
    """Import foliops from src/ and build the fixtures; returns (fx, seconds)."""
    t0 = time.perf_counter()
    import foliops

    if not os.path.abspath(foliops.__file__).startswith(SRC + os.sep):
        raise ImportError(f"foliops imported from {foliops.__file__}, not {SRC}")
    fx = setup(spec)
    return fx, time.perf_counter() - t0


def setup_probe(args):
    """Set-up time measured in a fresh child interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def reference_errors(workload, spec, out, seed):
    import numpy as np

    import oracles

    rng = np.random.default_rng(seed)
    if workload == "nonlinear":
        return oracles.nonlinear_errors(spec, out, rng)
    if workload == "multi-f":
        return oracles.multi_f_errors(spec, out, rng)
    return {}


def environment(nthreads):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": nthreads,
        "thread_vars": list(THREAD_VARS),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up and print it (used in child interpreters)")
    args = ap.parse_args(argv)

    nthreads = cap_threads()
    if not os.path.isfile(os.path.join(SRC, "foliops", "__init__.py")):
        print(f"error: foliops sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    make_spec, setup, body = workloads.WORKLOADS[args.workload]
    spec = make_spec(args.seed)

    # --- set-up: import foliops and build the fixtures, several times over
    try:
        fx, setup_self = set_up(setup, spec)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_self}))
        return 0
    # Half the child set-ups run before the body and half after it, so the
    # median does not hinge on one stretch of machine load.
    n_before = (SETUP_REPEATS - 1) // 2
    setups = [setup_self] + [setup_probe(args) for _ in range(n_before)]

    # --- timed body
    seconds = args.seconds if not args.trace else args.seconds / 2
    plain = run_phase(body, spec, fx, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [setup_probe(args) for _ in range(SETUP_REPEATS - 1 - n_before)]
    setup_s = statistics.median(setups)
    traced = tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer().install()
        try:
            traced = run_phase(body, spec, fx, seconds, tracer)
        finally:
            tracer.uninstall()

    # --- correctness, outside the timed region
    attempted = failed = 0
    tol_use = None
    first = next((o for o in plain["outs"] if o is not None), None)
    phases = [plain] + ([traced] if traced else [])
    consistent = True
    for phase in phases:
        for out in phase["outs"]:
            if out is None:
                n = assess(args.workload, first)[0] if first else 1
                attempted += n
                failed += n
                continue
            a, f, use = assess(args.workload, out)
            attempted += a
            failed += f
            if use is not None:
                tol_use = use if tol_use is None else max(tol_use, use)
            if not same_outputs(out, first):
                consistent = False
    ref = reference_errors(args.workload, spec, first, args.seed) if first else {}
    bad_ref = [k for k, v in ref.items() if not v <= REF_TOL]
    failed += len(bad_ref)
    ref_err = max(ref.values()) if ref else None
    correct = failed == 0 and consistent and first is not None

    e2e = {
        "wall_s": {**summary(plain["walls"]), "unit": "s"},
        "setup_s": {"median": setup_s, "n": len(setups), "samples": setups,
                    "unit": "s"},
        "peak_rss_mb": {"median": peak_rss_mb, "n": 1, "unit": "MB"},
        "fail_frac": {"median": failed / max(1, attempted), "n": attempted,
                      "unit": "ratio"},
    }
    if ref_err is not None:
        e2e["ref_err"] = {"median": ref_err, "n": len(ref), "bound": REF_TOL,
                          "per_output": ref, "unit": "abs"}
    if tol_use is not None:
        e2e["tol_use_max"] = {"median": tol_use, "n": attempted, "bound": 1.0,
                              "unit": "ratio"}
    for k, v in plain["ops"].items():
        e2e[k] = {**summary(v), "unit": "s"}

    report = {"workload": args.workload, "seed": args.seed,
              "iterations": len(plain["walls"]), "consistent": consistent,
              "env": environment(nthreads), "end_to_end": e2e}
    for k, v in e2e.items():
        print(f"{args.workload:10s} {k:14s} {v['median']:.6g} {v['unit']}  (n={v['n']})")

    if args.trace:
        wall_traced = sum(traced["walls"])
        layer = tracer.metrics(len(traced["walls"]), wall_traced)
        overhead = (statistics.median(traced["walls"])
                    - statistics.median(plain["walls"]))
        layer["trace.overhead_s"] = (overhead, "s")
        report["traced_iterations"] = len(traced["walls"])
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-s{args.seed}.tsv.gz")
        tracer.write(path)
        report["spans_file"] = os.path.relpath(path, ROOT)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": e2e[k]["median"], "unit": u}
                   for k, u in END_TO_END.items()}

    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
