"""The traced run: per-layer metrics from spans around the package's calls.

A fixed set of operations runs three times after a traced set-up: with the
wrappers removed, installed, and removed again.  The difference of the
last two passes is the tracing overhead; the traced pass gives the
per-layer metrics.  The set does not depend on --seconds, so every count
repeats exactly for a given seed.
"""

import numpy as np

from run import Ledger, check_solves, run_basins, run_solve_window, run_verify
from tracer import Tracer

TRACED_TRIPLES = 30    # solve-window: 60 general and 30 special solves
TRACED_ROUNDS = 2      # basins: rounds of three renders
TRACED_CALLS = 1       # verify: in-process CLI calls

SETUP_LAYERS = {
    "equivariants.h19_exact": "equivariants.h19_exact.ms",
    "group.enumerate_group": "group.enumerate_group.ms",
    "orbits.special_orbits": "orbits.special_orbits.ms",
    "selectors.load_or_fit_selectors": "selectors.load_or_fit_selectors.ms",
}
PER_SOLVE_MS = {
    "resolvents.instantiate_family": "resolvents.instantiate_family.ms",
    "selectors.select_root": "selectors.select_root.ms",
    "selectors.gamma_value": "selectors.gamma_value.ms",
    "resolvents.psi_table_value": "resolvents.psi_table_value.ms",
    "resolvents.certificate": "resolvents.certificate.ms",
    "dynamics.polish_72point": "dynamics.polish_72point.ms",
}
PER_VERIFY_MS = {
    "invariants.verify_relations": "invariants.verify_relations.ms",
    "resolvents.frame_determinant_checks": "resolvents.frame_determinant_checks.ms",
    "equivariants.verify_h19": "equivariants.verify_h19.ms",
}
SLICE_LAYERS = {"rp2": "slices.rp2_chart", "conic": "slices.conic_slice",
                "line45": "slices.restricted_psi16"}


def _get(stats, name, key):
    return stats.get(name, {}).get(key, 0)


def h19_flops_per_eval(reg):
    """Computed, not measured: the real evaluator of the rp2 renderer spends
    3 multiplications and 1 addition per nonzero term and 3 x 19
    multiplications on the power tables, per point and map evaluation."""
    nnz = sum(int(np.count_nonzero(c.coeffs)) for c in reg.h19.components)
    return 4 * nnz + 3 * 19


def layer_metrics(workload, names, tracer, ops, setup_and_ops, extra):
    """Per-layer values from the traced pass (ops) and its set-up; layers
    the workload does not reach read 0.  The set-up layers are totals over
    set-up and the traced pass, except that on verify the group and orbit
    rebuilds are per call of the traced pass."""
    st = tracer.stats(ops)
    su = tracer.stats(setup_and_ops)
    v = {name: 0 for name in names}
    for span, name in SETUP_LAYERS.items():
        v[name] = 1000 * _get(su, span, "total_s")
    v["equivariants.registry.self_ms"] = 1000 * _get(su, "equivariants.registry", "self_s")
    if workload == "solve-window":
        n = extra["solves"]
        v["dynamics.solve_resolvent.self_ms"] = 1000 * _get(st, "dynamics.solve_resolvent", "self_s") / n
        for span, name in PER_SOLVE_MS.items():
            v[name] = 1000 * _get(st, span, "total_s") / n
        v["dynamics.certified_cycle.calls"] = _get(st, "dynamics.certified_cycle", "calls")
        v["dynamics.certified_cycle.self_ms"] = 1000 * _get(st, "dynamics.certified_cycle", "self_s") / n
        v["dynamics.iterations_per_solve"] = extra["iterations"] / n
        v["dynamics.restarts_per_solve"] = extra["restarts"] / n
        calls = _get(st, "resolvents.family_map", "calls")
        v["resolvents.family_map.calls"] = calls
        v["resolvents.family_map.us_per_call"] = 1e6 * _get(st, "resolvents.family_map", "total_s") / max(calls, 1)
        v["resolvents.certificate.calls"] = _get(st, "resolvents.certificate", "calls")
        v["dynamics.polish_72point.calls_per_solve"] = _get(st, "dynamics.polish_72point", "calls") / n
        v["dynamics.polish_72point.failed"] = _get(st, "dynamics.polish_72point", "failed")
    elif workload == "basins":
        for slice_id in ("rp2", "conic", "line45"):
            renders = _get(st, f"basins.render_{slice_id}", "calls")
            v[f"basins.render_{slice_id}.ms"] = 1000 * _get(st, f"basins.render_{slice_id}", "total_s") / renders
            v[f"slices.{SLICE_LAYERS[slice_id].split('.')[1]}.ms"] = \
                1000 * _get(st, SLICE_LAYERS[slice_id], "total_s") / renders
            v[f"basins.{slice_id}.map_evals"] = extra["map_evals"][slice_id]
        for slice_id in ("rp2", "conic"):
            v[f"basins.{slice_id}.evals_per_s"] = \
                extra["map_evals"][slice_id] / _get(st, f"basins.render_{slice_id}", "self_s")
        v["basins.h19.flops_per_eval"] = extra["flops_per_eval"]
    else:
        n = extra["calls"]
        # cmd_verify rebuilds the group table and orbit catalog on every call
        for span in ("group.enumerate_group", "orbits.special_orbits"):
            v[SETUP_LAYERS[span]] = 1000 * _get(st, span, "total_s") / n
        v["hpoly.eval_many.calls"] = _get(st, "hpoly.eval_many", "calls")
        v["hpoly.eval_many.points"] = _get(st, "hpoly.eval_many", "size")
        v["hpoly.eval_many.ms"] = 1000 * _get(st, "hpoly.eval_many", "total_s") / n
        for span, name in PER_VERIFY_MS.items():
            v[name] = 1000 * _get(st, span, "total_s") / n
    v["trace.overhead_pct"] = 100 * (extra["traced_s"] - extra["untraced_s"]) / extra["untraced_s"]
    return v


def run_traced(args, wl, names):
    """Returns (ledger, metric values, details) of a traced run."""
    wl.import_all()
    tracer = Tracer()
    tracer.install()
    with tracer.operation("setup"):
        state = wl.setup(args.workload)
    tracer.remove()
    ledger = Ledger()
    # untraced, traced, untraced: the first pass also takes what the first
    # calls of a process pay once, so the overhead compares the last two
    passes = []
    for on in (False, True, False):
        if on:
            tracer.install()
        passes.append(_one_pass(wl, state, args, ledger, tracer.operation if on else None))
        tracer.remove()
    traced, untraced = passes[1], passes[2]
    if any(p["outputs"] != traced["outputs"] for p in passes):
        ledger.failed += 1
        ledger.reasons.append("traced and untraced passes gave different outputs")
    ops = set(traced["ops"])
    extra = dict(traced["extra"], untraced_s=untraced["op_s"], traced_s=traced["op_s"])
    metrics = layer_metrics(args.workload, names, tracer, ops, ops | {"setup"}, extra)
    spans_path = wl.OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_path)
    details = {"spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(wl.ROOT)),
               "untraced_op_s": untraced["op_s"], "traced_op_s": traced["op_s"],
               "layers": tracer.stats(ops)}
    return ledger, metrics, details


def _one_pass(wl, state, args, ledger, op):
    """One pass over the fixed operation set; op labels operations if traced."""
    kw = {"op": op} if op else {}
    if args.workload == "solve-window":
        inputs, results, secs = run_solve_window(wl, state, args, None,
                                                 n_triples=TRACED_TRIPLES, **kw)
        check_solves(wl, state, inputs, results, ledger)
        ok = [r for r in results if r is not None]
        return {"op_s": sum(secs), "ops": [f"solve {i}" for i in range(len(secs))],
                "outputs": wl.root_record(inputs, results),
                "extra": {"solves": len(secs), "iterations": sum(r.iterations for r in ok),
                          "restarts": sum(r.restarts_used for r in ok)}}
    if args.workload == "basins":
        rounds, _ = run_basins(wl, state, args, ledger, None, n_rounds=TRACED_ROUNDS, **kw)
        renders = [(k, r) for k, rnd in enumerate(rounds) for r in rnd["renders"]]
        evals = {s: sum(r["map_evals"] for _, r in renders if r["slice"] == s)
                 for s, _, _ in wl.SLICES}
        return {"op_s": sum(r["seconds"] for _, r in renders),
                "ops": [f"round {k} {r['slice']}" for k, r in renders],
                "outputs": [r["digest"] for _, r in renders],
                "extra": {"map_evals": evals, "flops_per_eval": h19_flops_per_eval(state["reg"])}}
    secs = run_verify(wl, state, args, ledger, None, n_calls=TRACED_CALLS, **kw)
    return {"op_s": sum(secs), "ops": [f"verify {i}" for i in range(len(secs))],
            "outputs": None, "extra": {"calls": len(secs)}}
