"""Benchmark of the valentiner package: solving, basin rendering, verification.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {solve-window,basins,verify} \
        --seed N --seconds S --trace {0,1}

With --trace 0 it runs whole rounds of the workload's operations until S
seconds have passed and reports the end-to-end metrics; with --trace 1 it
runs a fixed set of operations untraced, traced and untraced again and
reports the per-layer metrics.  The last line of standard output is one JSON
object; raw outputs go to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3      # fresh-process set-ups per run, this one included
REPEATED_SOLVES = 3    # solve-window: the first round is solved twice
CHILD_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["solve-window", "basins", "verify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def child_setup_seconds(workload):
    """Set-up seconds measured in a fresh interpreter (setup_probe.py)."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=str(HERE.parent), env=os.environ.copy())
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def machine_facts():
    import mpmath
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ledger:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(problems)}")


# --- untraced runs ----------------------------------------------------------------


def run_solve_window(wl, state, args, deadline_s, n_triples=None, op=nullcontext):
    """Solves in rounds of (general, general, special) until the deadline,
    or n_triples rounds when given.  Returns (inputs, results, seconds).
    op(label) is entered around each timed call."""
    from valentiner.invariants import build_invariants

    stream = wl.SolveInputs(args.seed, build_invariants("bub22"))
    inputs, results, secs = [], [], []
    t_begin = time.perf_counter()
    while (n_triples is None and time.perf_counter() - t_begin < deadline_s) \
            or (n_triples is not None and len(inputs) < 3 * n_triples):
        for inp in stream.triple():
            t0 = time.perf_counter()
            try:
                with op(f"solve {len(inputs)}"):
                    r = wl.solve_once(state, inp)
            except Exception as e:  # a raising solve is a failed operation
                r = None
                inp["error"] = f"{type(e).__name__}: {e}"
            secs.append(time.perf_counter() - t0)
            inputs.append(inp)
            results.append(r)
    return inputs, results, secs


def check_solves(wl, state, inputs, results, ledger):
    """Check every solve.  The first round is solved again, untimed, and a
    root that does not repeat bit for bit fails."""
    for i, (inp, r) in enumerate(zip(inputs, results)):
        problems = wl.check_solve(inp, r)
        if i < REPEATED_SOLVES:
            problems += wl.check_repeat(state, inp, r)
        ledger.record(f"solve {i} ({inp['case']})", problems)


def solve_details(inputs, secs):
    """The solve figures by name."""
    import reference as ref

    gen = [s for inp, s in zip(inputs, secs) if inp["case"] == "general"]
    spe = [s for inp, s in zip(inputs, secs) if inp["case"] == "special"]
    tail = ref.p90(secs)
    return {
        "solves": len(secs),
        "solves_per_s": len(secs) / sum(secs),
        "solve_ms_p50": 1000 * statistics.median(secs),
        "solve_ms_p90": None if tail is None else 1000 * tail[0],
        "solve_ms_p90_samples": len(secs),
        "solve_general_ms_p50": 1000 * statistics.median(gen) if gen else None,
        "solve_special_ms_p50": 1000 * statistics.median(spe) if spe else None,
    }


def run_basins(wl, state, args, ledger, deadline_s, n_rounds=None, op=nullcontext):
    """Rounds of (rp2, conic, line45) renders; each round draws its extent.

    The five-fold rotation check runs once, on the first round's extent,
    and its outcome counts on every rp2 render.  Returns (rounds, mismatch).
    """
    import numpy as np

    rng = np.random.default_rng(args.seed)
    rounds = []
    t_begin = time.perf_counter()
    while (n_rounds is None and time.perf_counter() - t_begin < deadline_s) \
            or (n_rounds is not None and len(rounds) < n_rounds):
        extent = wl.round_extent(rng)
        renders = []
        for slice_id, res, max_iter in wl.SLICES:
            t0 = time.perf_counter()
            try:
                with op(f"round {len(rounds)} {slice_id}"):
                    grid = wl.render_once(state, slice_id, res, max_iter, extent)
                problems = None
            except Exception as e:  # a raising render is a failed operation
                grid, problems = None, [f"{type(e).__name__}: {e}"]
            dt = time.perf_counter() - t0
            renders.append({
                "slice": slice_id, "seconds": dt, "cells": res * res,
                "map_evals": wl.map_evals(grid, max_iter) if grid is not None else 0,
                "digest": wl.grid_digest(grid) if grid is not None else None,
                "problems": problems if problems else wl.check_grid(slice_id, grid)})
        rounds.append({"extent": extent, "renders": renders})
    mismatch = wl.d5_mismatch(state, rounds[0]["extent"])
    d5_bad = [] if mismatch < wl.D5_MAX_MISMATCH else [f"D5 mismatch {mismatch:.4f}"]
    for k, rnd in enumerate(rounds):
        for r in rnd["renders"]:
            ledger.record(f"round {k} {r['slice']}",
                          r["problems"] + (d5_bad if r["slice"] == "rp2" else []))
    return rounds, mismatch


def basins_details(wl, rounds):
    out = {"rounds": len(rounds)}
    for slice_id, res, _ in wl.SLICES:
        secs = [r["seconds"] for rnd in rounds for r in rnd["renders"] if r["slice"] == slice_id]
        out[f"{slice_id}_cells_per_s"] = len(secs) * res * res / sum(secs)
    return out


def run_verify(wl, state, args, ledger, deadline_s, n_calls=None, op=nullcontext):
    """In-process verify calls until the deadline, or n_calls when given."""
    import numpy as np

    rng = np.random.default_rng(args.seed)
    census_ok = wl.census_matches(state["table"])
    out_path = wl.OUT / f"verify-report-{args.seed}.json"
    secs = []
    t_begin = time.perf_counter()
    while (n_calls is None and time.perf_counter() - t_begin < deadline_s) \
            or (n_calls is not None and len(secs) < n_calls):
        seed = int(rng.integers(2 ** 31))
        t0 = time.perf_counter()
        with op(f"verify {len(secs)}"):
            rc, report = wl.verify_once(state, seed, out_path)
        secs.append(time.perf_counter() - t0)
        ledger.record(f"verify {len(secs) - 1} (seed {seed})", wl.check_verify(rc, report, census_ok))
    return secs


# --- output -------------------------------------------------------------------------


def metric_units(trace):
    """Names and units of the reported metrics, from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def emit(args, ledger, values, details):
    import workloads as wl

    units = metric_units(args.trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    result = {"correct": ledger.failed == 0 and ledger.attempted > 0,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    for line in ledger.reasons:
        print(f"FAILED {line}")
    for k, v in details.items():
        if not isinstance(v, (dict, list)):
            print(f"{k}: {v}")
    raw = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, details=details, failures=ledger.reasons,
               machine=machine_facts())
    (wl.OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1))
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    # one BLAS thread, here and in the set-up probes: with OpenBLAS's default
    # of one thread per core, the first BLAS-heavy calls of a process ran up
    # to twelve times slower for about a second on the reference machine
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # no numpy and no package before this clock starts: the set-up time
    # includes their import, as a fresh `valentiner` process pays it
    t_setup = time.perf_counter()
    try:
        import workloads as wl
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    wl.OUT.mkdir(exist_ok=True)
    # the shipped selector tables, not a cache left in the working directory
    os.environ["VALENTINER_CACHE"] = str(wl.OUT / "selector_cache")
    if args.trace:
        from trace_run import run_traced

        emit(args, *run_traced(args, wl, metric_units(1)))
        return 0
    state = wl.setup(args.workload)
    setups = [time.perf_counter() - t_setup]
    setups += [child_setup_seconds(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    ledger = Ledger()
    details = {"setup_s_samples": setups}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if args.workload == "solve-window":
        inputs, results, secs = run_solve_window(wl, state, args, args.seconds)
        check_solves(wl, state, inputs, results, ledger)
        details.update(solve_details(inputs, secs))
        # an operation is a round: the solve times bunch by iteration count,
        # and the median of single solves stepped between seeds
        op_secs = [sum(secs[k:k + 3]) for k in range(0, len(secs), 3)]
        items = len(secs)
    elif args.workload == "basins":
        rounds, mismatch = run_basins(wl, state, args, ledger, args.seconds)
        details.update(basins_details(wl, rounds), d5_mismatch=mismatch)
        op_secs = [sum(r["seconds"] for r in rnd["renders"]) for rnd in rounds]
        items = sum(r["cells"] for rnd in rounds for r in rnd["renders"])
    else:
        op_secs = run_verify(wl, state, args, ledger, args.seconds)
        details["verify_s"] = statistics.median(op_secs)
        items = len(op_secs)
    # below 1 when the process waited for a core: a loaded machine
    details["cpu_share"] = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": items / sum(op_secs),
        "op_ms_p50": 1000 * statistics.median(op_secs),
        "peak_rss_mb": peak_rss_mb(),
    }
    details["peak_rss_mb"] = metrics["peak_rss_mb"]
    emit(args, ledger, metrics, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
