"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import statistics
from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref
import workloads as wl
from run import solve_details
from tracer import Tracer


@pytest.fixture(scope="module")
def inputs():
    from valentiner.invariants import build_invariants

    return wl.SolveInputs(7, build_invariants("bub22")).triple()


def _true_root(inp):
    """The numpy.roots root nearest to the first closed-form root."""
    roots = np.roots(inp["coeffs"])
    return complex(roots[np.argmin(np.abs(roots - inp["closed_form"][0]))])


@pytest.mark.parametrize("k", [0, 2], ids=["general", "special"])
def test_solve_check_rejects_a_root_off_by_1e_minus_6(inputs, k):
    inp = inputs[k]
    root = _true_root(inp)
    good = SimpleNamespace(root=root, converged=True)
    assert wl.check_solve(inp, good) == []
    off = SimpleNamespace(root=root * (1 + 1e-6), converged=True)
    problems = wl.check_solve(inp, off)
    assert any("numpy.roots" in p for p in problems)


def test_solve_check_rejects_unconverged_and_missing_results(inputs):
    inp = inputs[0]
    assert wl.check_solve(inp, SimpleNamespace(root=_true_root(inp), converged=False)) \
        == ["not converged"]
    assert wl.check_solve(dict(inp, error="DegenerateParams: x"), None) \
        == ["raised DegenerateParams: x"]


def test_inputs_repeat_for_a_seed(inputs):
    from valentiner.invariants import build_invariants

    again = wl.SolveInputs(7, build_invariants("bub22")).triple()
    assert [i["params"] for i in again] == [i["params"] for i in inputs]
    assert [i["iter_seed"] for i in again] == [i["iter_seed"] for i in inputs]


def test_p90_is_reported_with_its_sample_count():
    samples = [float(v) for v in range(1, 101)]
    value, n = ref.p90(samples)
    assert n == 100
    assert value == statistics.quantiles(samples, n=10)[-1]
    assert sum(s > value for s in samples) >= 10
    assert ref.p90(samples[:99]) is None
    secs = [0.001 * v for v in range(1, 121)]
    fake = [{"case": "general"}] * 80 + [{"case": "special"}] * 40
    details = solve_details(fake, secs)
    assert details["solve_ms_p90_samples"] == 120
    assert details["solve_ms_p90"] == pytest.approx(1000 * statistics.quantiles(secs, n=10)[-1])


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6]
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 6.0, 0)]
    assert ref.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    # overlapping children are covered once
    assert ref.self_times([(0.0, 10.0, None), (1.0, 5.0, 0), (3.0, 7.0, 0)])[0] \
        == pytest.approx(4.0)


def test_tracer_records_parents_operations_and_failures():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, None, "op 0", None, None],
                    ["inner", 2.0, 5.0, 0, "op 0", "NotAConvergedCycle", None],
                    ["outer", 20.0, 21.0, None, "setup", None, None]]
    st = tracer.stats({"op 0"})
    assert st["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 7.0, "failed": 0, "size": 0}
    assert st["inner"]["failed"] == 1
    assert tracer.stats()["outer"]["calls"] == 2


def test_tracer_wraps_and_unwraps_the_package():
    import valentiner.dynamics as dyn
    import valentiner.resolvents as res

    wl.import_all()
    original = dyn.polish_72point
    call = res.FamilyMap.__dict__["__call__"]
    tracer = Tracer()
    tracer.install()
    try:
        assert dyn.polish_72point is not original
        fam = res.instantiate_family(wl.WARM_PARAMS, "general")
        with tracer.operation("op"):
            fam.h(np.array([1.0, 0.5, 0.25], dtype=complex))
    finally:
        tracer.remove()
    assert dyn.polish_72point is original
    assert res.FamilyMap.__dict__["__call__"] is call
    names = [(s[0], s[4]) for s in tracer.spans]
    assert names == [("resolvents.instantiate_family", None), ("resolvents.family_map", "op")]


def test_repeat_check_rejects_a_root_that_does_not_repeat(inputs):
    from valentiner.selectors import load_or_fit_selectors

    inp = inputs[0]
    state = {"tables": {"general": load_or_fit_selectors("general")}}
    result = wl.solve_once(state, inp)
    assert wl.check_repeat(state, inp, result) == []
    moved = SimpleNamespace(root=result.root * (1 + 2 ** -52), converged=True)
    assert wl.check_repeat(state, inp, moved) == ["root differs when solved again"]
