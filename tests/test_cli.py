import json

import numpy as np
import pytest

from valentiner.cli import main


def test_molien_cli(tmp_path):
    out = tmp_path / "molien.json"
    rc = main(["molien", "--group", "v3x360", "--max-degree", "30", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    dims = payload["invariant_dims"]
    assert [dims[d] for d in (6, 12, 18, 24, 30)] == [1, 2, 2, 3, 4]
    assert payload["quotient_degrees"]["s^1"] == [5, 11, 20, 26, 29]  # within degree 30


def test_orbits_cli(tmp_path):
    out = tmp_path / "orbits.json"
    rc = main(["orbits", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "valentiner/1"
    assert len(payload["orbit72"]) == 72
    assert len(payload["array45"]) == 15


def test_sample_resolvent_cli(tmp_path):
    out = tmp_path / "sample.json"
    rc = main(["sample-resolvent", "--seed", "4", "--case", "general", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["product_vs_printed_max_err"] < 1e-8
    assert len(payload["oracle_roots"]) == 6


def test_sample_resolvent_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["sample-resolvent", "--seed", "11", "--out", str(a)])
    main(["sample-resolvent", "--seed", "11", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_solve_cli(tmp_path):
    out = tmp_path / "root.json"
    rc = main(["solve", "--y1", "0.9,0.1", "--y2", "1.1,-0.3", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["residual"] < 1e-6
    assert payload["converged"]


def test_solve_cli_negative_values(tmp_path):
    # a value starting with '-' given as a separate argument, not as --y1=...
    out = tmp_path / "root.json"
    rc = main(["solve", "--y1", "-0.5,0.2", "--y2", "1.0,0.1", "--seed", "0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["converged"]
    assert payload["params"] == [{"re": -0.5, "im": 0.2}, {"re": 1.0, "im": 0.1}]


def test_solve_special_cli(tmp_path):
    out = tmp_path / "root.json"
    rc = main(["solve-special", "--v", "0.45,0.65", "--seed", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["residual"] < 1e-6


def test_basins_cli(tmp_path):
    ppm = tmp_path / "grid.ppm"
    js = tmp_path / "grid.json"
    rc = main(["basins", "--slice", "conic", "--res", "48", "--max-iter", "80",
               "--out", str(ppm), "--json", str(js)])
    assert rc == 0
    assert ppm.read_bytes().startswith(b"P6\n48 48\n255\n")
    payload = json.loads(js.read_text())
    assert payload["n_attractors"] == 6


def test_error_names_exception_class(capsys):
    assert main(["solve-special", "--v", "0,0"]) == 1
    assert "error: DegenerateParams: V in {0, 1} is singular" in capsys.readouterr().err


def test_usage_error():
    assert main(["bogus-subcommand"]) == 2
