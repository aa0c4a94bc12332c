import numpy as np
import pytest

from valentiner.basins import _iterate_to_attractors
from valentiner.dynamics import IterationConfig, certified_cycle, polish_72point, solve_resolvent
from valentiner.projective import fs_distance, normalize_point, random_unit_points
from valentiner.slices import _pair_labels


def test_reference_map_cycles_from_72_point(reg):
    e1, e2 = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    assert fs_distance(reg.h19(e1), e2) < 1e-10
    assert fs_distance(reg.h19(e2), e1) < 1e-10


def test_fixed_36_point_degenerate_cycle(reg):
    e3 = np.array([0, 0, 1.0])
    assert fs_distance(reg.h19(e3), e3) < 1e-10


def test_random_starts_converge_to_certified_72_cycles(reg, catalog):
    # every start lands in the capture disc of a 72-point, and every one of
    # the 36 period-2 pairs attracts some of them
    pts = random_unit_points(np.random.default_rng(2026), 500)
    orbit72 = np.asarray(catalog.orbit72)
    labels, _ = _iterate_to_attractors(reg.h19, pts, orbit72, _pair_labels(reg, orbit72), 200)
    assert np.all(labels >= 0)
    assert set(labels.tolist()) == set(range(36))


def test_trajectory_equivariance(reg, group_bub, rng):
    t = np.asarray(group_bub.projective[33], dtype=complex)
    w0 = normalize_point(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    a, b = w0.copy(), normalize_point(t @ w0)
    for _ in range(20):
        a = normalize_point(reg.h19(a))
        b = normalize_point(reg.h19(b))
    assert fs_distance(normalize_point(t @ a), b) < 1e-6


def test_mirror_line_repulsion(reg, catalog, rng):
    # desk-scale experiment in support of the repulsion conjecture: starts
    # within 1e-3 of a mirror line (but off it) end up farther from the
    # line after five iterations; the rate is the recorded metric
    want = np.array([1.0, -1.0, 0]) / np.sqrt(2)
    li = int(np.argmin([fs_distance(e, want) for e in catalog.line45]))
    ell = np.asarray(catalog.line45[li])
    away = 0
    trials = 100
    for _ in range(trials):
        t = rng.standard_normal() + 1j * rng.standard_normal()
        base = normalize_point(np.array([1.0, 1.0, t]))
        p = normalize_point(base + 1e-3 * rng.standard_normal(3))
        d0 = abs(ell @ p)
        for _ in range(5):
            p = normalize_point(reg.h19(p))
        away += abs(ell @ p) >= d0
    print(f"\nmirror-line repulsion rate: {away}/{trials}")
    assert away >= 0.90 * trials


def test_polish_is_local(reg, inv, rng):
    from valentiner.resolvents import instantiate_family

    fam = instantiate_family((0.8 + 0.4j, 0.9 - 0.2j), "general")
    pair = None
    for _ in range(12):
        pair, iters = certified_cycle(fam, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        if pair is not None:
            break
    assert pair is not None
    # polish from a point already on the locus barely moves
    p = pair[0]
    q = polish_72point(fam, p)
    assert fs_distance(p, q) < 1e-9


def test_solve_determinism(selector_general):
    cfg = IterationConfig(seed=7)
    r1 = solve_resolvent((0.9 + 0.1j, 1.1 - 0.3j), "general", cfg, selector_general)
    r2 = solve_resolvent((0.9 + 0.1j, 1.1 - 0.3j), "general", cfg, selector_general)
    assert r1.root == r2.root and r1.residual == r2.residual
    assert r1.iterations == r2.iterations


def test_solve_special_residual(selector_special):
    r = solve_resolvent((0.45 + 0.65j,), "special", IterationConfig(seed=2), selector_special)
    assert r.converged and r.residual < 1e-6


def test_solve_general_matches_oracle(reg, inv, rng, selector_general):
    from valentiner.resolvents import oracle_roots_general, quotient_y

    while True:
        z = random_unit_points(rng, 1)[0]
        y1, y2 = quotient_y(inv, z)
        if 0.4 < abs(y1) < 2.0 and 0.4 < abs(y2) < 2.0:
            break
    r = solve_resolvent((y1, y2), "general", IterationConfig(seed=5), selector_general)
    assert r.converged and r.residual < 1e-6
    roots = oracle_roots_general(inv, z)
    assert np.min(np.abs(roots - r.root) / np.abs(roots)) < 1e-5


@pytest.mark.parametrize("case,params", [("general", (0.9 + 0.1j, 1.1 - 0.3j)),
                                         ("special", (0.45 + 0.65j,))])
def test_solve_needs_no_polish(monkeypatch, case, params, selector_general, selector_special):
    # the cycles over the 72-point orbit are superattracting: the map lands
    # the trajectory on the locus by itself
    import valentiner.dynamics as dyn

    def refuse(*args, **kwargs):
        raise AssertionError("polish_72point called from the solve path")

    monkeypatch.setattr(dyn, "polish_72point", refuse)
    table = selector_general if case == "general" else selector_special
    r = solve_resolvent(params, case, IterationConfig(seed=3), table)
    assert r.converged and r.residual < 1e-7


@pytest.mark.parametrize("y1,y2,seed", [
    # the certificate reads ~1e-14 all along while fs(w_k, w_{k-2}) stays
    # at binary64 noise, 1e-8 to 1e-6: a gap gate would never accept
    (0.929994124624867 + 1.5202986405274517j, -0.9415127034412399 + 1.979831669811811j, 1),
    # four Newton steps stop 1.2e-8 short of the root, a fifth reaches 2.5e-15
    (0.14882929485891647 - 0.9796683924274063j, -0.6031621496020959 - 0.4358194951197073j,
     1095212768),
])
def test_reproducers_converge_to_true_roots(y1, y2, seed, selector_general):
    from valentiner.resolvents import resolvent_ry

    r = solve_resolvent((y1, y2), "general", IterationConfig(seed=seed), selector_general)
    assert r.converged
    roots = np.roots(np.concatenate([[1.0], resolvent_ry(y1, y2)]))
    assert np.min(np.abs(roots - r.root)) < 1e-8 * abs(r.root)


def test_solving_from_shipped_table_does_not_load_mpmath():
    # nor does building the binary64 registry, group, orbit catalog or a
    # basin render: only the selector fit computes in mpmath
    import os
    import subprocess
    import sys
    from pathlib import Path

    import valentiner

    src = str(Path(list(valentiner.__path__)[0]).resolve().parent)
    code = (
        "import sys\n"
        "import valentiner.cli, valentiner.dynamics, valentiner.resolvents, valentiner.selectors\n"
        "from valentiner.dynamics import IterationConfig, solve_resolvent\n"
        "from valentiner.selectors import load_or_fit_selectors\n"
        "r = solve_resolvent((0.7 + 0.2j, 1.1 - 0.3j), 'general', IterationConfig(seed=0),\n"
        "                    load_or_fit_selectors('general'))\n"
        "assert r.converged\n"
        "from valentiner.basins import render_basins\n"
        "from valentiner.equivariants import registry\n"
        "from valentiner.frames import bub_frame\n"
        "from valentiner.group import enumerate_group\n"
        "from valentiner.orbits import special_orbits\n"
        "catalog = special_orbits(enumerate_group().conjugate_to_frame(bub_frame()), registry().inv)\n"
        "render_basins('line45', registry(), catalog, resolution=16)\n"
        "print('mpmath' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("VALENTINER_CACHE", None)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=src, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_family_selector_vector_does_not_leak(selector_general, selector_special):
    # each solve contracts the selector table at its own parameters: solving
    # other families in between changes nothing, bit for bit, and every
    # root is the one its own family's selector picks at its cycle
    from valentiner.resolvents import instantiate_family
    from valentiner.selectors import select_root

    a = ((0.7 + 0.2j, 1.1 - 0.3j), "general", IterationConfig(seed=11), selector_general)
    solves = [a, ((0.45 + 0.65j,), "special", IterationConfig(seed=4), selector_special),
              ((0.45 - 0.7j, 1.6 + 0.9j), "general", IterationConfig(seed=4), selector_general), a]
    results = [solve_resolvent(*args) for args in solves]
    for (params, case, _, table), r in zip(solves, results):
        assert r.converged
        fam = instantiate_family(params, case)
        picks = [select_root(table, fam, np.array(p), table.contract(params)) for p in r.cycle]
        assert min(abs(u - r.root) for u in picks) < 1e-4 * abs(r.root)
    first, again = results[0], results[-1]
    assert (again.root, again.iterations, again.restarts_used) == \
           (first.root, first.iterations, first.restarts_used)
