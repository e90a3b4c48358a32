import builtins
import csv
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import musielak
from musielak import ConvergenceError, ExponentField, PhiSpec, conjugate_batch, eval_phi, verify_conjugate_bounds
from musielak import DomainError, GridFunction, cli, degiorgi, embedding_lab, io, solver
from conftest import function_json


def _run(tmp_path, command, payload, text=None):
    src = tmp_path / "input.json"
    src.write_text(text if text is not None else json.dumps(payload))
    out = tmp_path / "out"
    return cli.main([command, "--input", str(src), "--output", str(out)]), out


FIELD = {"N": 3, "p": [1.5, 1.6, 1.7], "q": [1.8, 1.9, 2.0], "mu": [0.0, 1.0, 2.0]}


class TestExitCodes:
    def test_nan_exponent_is_an_input_error(self, tmp_path):
        # json writes the token NaN, which Python's json reads back as nan
        code, _ = _run(tmp_path, "validate", None, text=json.dumps({"field": dict(FIELD, p=float("nan"))}))
        assert code == cli.EXIT_INPUT_ERROR

    def test_infinite_mu_is_reported_not_rejected(self, tmp_path):
        code, out = _run(tmp_path, "validate", {"field": dict(FIELD, mu=[0.0, 1.0, float("inf")])})
        assert code == cli.EXIT_CHECK_FAILED
        report = json.loads((out / "report.json").read_text())
        assert {v["condition"] for v in report["violations"]} == {"mu bounded"}

    def test_shape_mismatch_is_an_input_error(self, tmp_path):
        payload = {"field": dict(FIELD, q=FIELD["q"][:-1]), "nodes": [0, 1], "t_values": [1.0]}
        code, _ = _run(tmp_path, "conjugate-table", payload)
        assert code == cli.EXIT_INPUT_ERROR

    def test_subcritical_window_violation_is_an_input_error(self, tmp_path):
        payload = {"field": {"N": 3, "p": 1.5, "q": 1.8, "mu": 1.0},
                   "grid": {"shape": [9, 9]}, "function": 1.0,
                   "norm": "luxemburg", "kind": "subcritical", "r": 1.2, "s": 2.0}
        code, _ = _run(tmp_path, "norm", payload)
        assert code == cli.EXIT_INPUT_ERROR

    def test_missing_key_is_an_input_error(self, tmp_path, capsys):
        code, _ = _run(tmp_path, "recursion", {"K": 1.0})
        assert code == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "input error: missing key 'b'\n"

    def test_convergence_failure_is_a_failed_check(self, tmp_path, monkeypatch):
        def stalled(payload):
            raise ConvergenceError("stalled")

        monkeypatch.setitem(cli._COMMANDS, "validate", (stalled, cli._COMMANDS["validate"][1]))
        code, _ = _run(tmp_path, "validate", {"field": FIELD})
        assert code == cli.EXIT_CHECK_FAILED


def test_conjugate_table_critical_column_matches_scalar_eval(tmp_path):
    ts = [0.0, 0.5, 1.0, 3.0]
    code, out = _run(tmp_path, "conjugate-table",
                     {"field": FIELD, "nodes": [0, 1, 2], "t_values": ts})
    assert code == cli.EXIT_OK
    with open(out / "conjugate_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * len(ts)
    spec = PhiSpec.critical(ExponentField(3, *(np.array(FIELD[k]) for k in ("p", "q", "mu"))))
    for row in rows:
        expected = eval_phi(spec, int(row["x_index"]), float(row["t"]))
        assert float(row["critical_value"]) == pytest.approx(expected, rel=1e-15)


def test_import_leaves_scipy_optimize_out():
    # importing scipy.optimize would add about a third of a second to every CLI start
    src = str(Path(musielak.__file__).resolve().parents[1])
    code = "import sys, musielak.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


class TestNodeList:
    TWO = {"N": 3, "p": [1.5, 1.6], "q": [1.8, 1.9], "mu": [0.0, 1.0]}

    def _reject(self, tmp_path, capsys, payload, needle):
        code, out = _run(tmp_path, "conjugate-table", dict(payload, t_values=[1.0]))
        assert code == cli.EXIT_INPUT_ERROR
        assert needle in capsys.readouterr().err
        assert not (out / "conjugate_table.csv").exists()

    @pytest.mark.parametrize("bad", [2, 5])
    def test_index_past_the_last_node(self, tmp_path, capsys, bad):
        self._reject(tmp_path, capsys, {"field": self.TWO, "nodes": [0, bad]}, f"node {bad} ")

    def test_negative_index(self, tmp_path, capsys):
        self._reject(tmp_path, capsys, {"field": self.TWO, "nodes": [-1]}, "node -1 ")

    def test_node_varying_field_without_nodes(self, tmp_path, capsys):
        self._reject(tmp_path, capsys, {"field": self.TWO}, "'nodes'")


# Nodes with mu = 0 and mu > 0; t from 0 across t = 1.
MIXED = {"N": 3, "p": [1.4, 1.6, 1.5, 1.7], "q": [1.7, 2.0, 1.9, 2.2], "mu": [0.0, 1.5, 0.0, 0.7]}
MIXED_TS = [0.0, 0.03, 0.4, 1.0, 2.5, 7.0, 15.0]
SLACK_COLUMNS = {"slack_power_p": "power_p", "slack_power_q": "power_q",
                 "slack_critical": "critical_domination", "slack_trace": "trace_domination"}


def _conjugate_rtol(t):
    # conjugate_batch stops when |t - H*^{-1}(h)| <= _SOLVE_TOL * max(1, t): absolute
    # below t = 1, so two solves agree only to about tol / t there.
    return 1e-9 * max(1.0, 1.0 / t) if t > 0 else 0.0


def _slack_close(got, ref):
    return abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def _read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("normalized", [False, True])
def test_one_pass_table_matches_separate_solves(tmp_path, normalized):
    payload = {"field": MIXED, "nodes": [0, 1, 2, 3], "t_values": MIXED_TS, "normalized": normalized}
    code, out = _run(tmp_path, "conjugate-table", payload)
    assert code == cli.EXIT_OK
    rows = _read_table(out / "conjugate_table.csv")
    assert [(int(r["x_index"]), float(r["t"])) for r in rows] == [(x, t) for x in range(4) for t in MIXED_TS]
    field = ExponentField(3, *(np.array(MIXED[k]) for k in ("p", "q", "mu")))
    crit_spec = PhiSpec.critical(field)
    ts = np.array(MIXED_TS)
    for x in range(4):
        node_rows = rows[x * ts.size:(x + 1) * ts.size]
        h_ref = conjugate_batch(3, *field.at(x), ts, normalized=normalized)
        slacks = verify_conjugate_bounds(field, [x], ts, normalized=normalized).slacks
        for i, (row, t) in enumerate(zip(node_rows, ts)):
            assert float(row["conjugate"]) == pytest.approx(h_ref[i], rel=_conjugate_rtol(t), abs=0.0)
            assert float(row["critical_value"]) == eval_phi(crit_spec, x, ts)[i]
            for col, name in SLACK_COLUMNS.items():
                assert _slack_close(float(row[col]), slacks[name][i]), (x, t, col)


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("variant", ["raw", "normalized"])
def test_conjugate_table_golden(tmp_path, variant):
    # The conjugate column holds the 30-digit mpmath conjugate and the slack
    # columns conjugate._slacks at it (test_conjugate recomputes the
    # conjugates); x_index, t and the critical column must match exactly.
    code, out = _run(tmp_path, "conjugate-table", None,
                     text=(DATA / f"conjugate_golden_{variant}.json").read_text())
    assert code == cli.EXIT_OK
    rows = _read_table(out / "conjugate_table.csv")
    golden = _read_table(DATA / f"conjugate_golden_{variant}.csv")
    assert len(rows) == len(golden) == 64
    for row, ref in zip(rows, golden):
        assert list(row) == list(ref)
        assert (row["x_index"], row["t"], row["critical_value"]) == (ref["x_index"], ref["t"], ref["critical_value"])
        t = float(ref["t"])
        assert float(row["conjugate"]) == pytest.approx(float(ref["conjugate"]), rel=_conjugate_rtol(t), abs=0.0)
        for col in SLACK_COLUMNS:
            assert _slack_close(float(row[col]), float(ref[col])), (ref["x_index"], t, col)


def test_conjugate_table_golden_many_nodes(tmp_path):
    # 40 node-varying nodes x 16 t, normalized: 640 samples in one solve.  The
    # conjugate and slack columns come from the mpmath conjugate, as above.
    code, out = _run(tmp_path, "conjugate-table", None,
                     text=(DATA / "conjugate_golden_many_nodes.json").read_text())
    assert code == cli.EXIT_OK
    rows = _read_table(out / "conjugate_table.csv")
    golden = _read_table(DATA / "conjugate_golden_many_nodes.csv")
    assert len(rows) == len(golden) == 640
    for row, ref in zip(rows, golden):
        assert list(row) == list(ref)
        assert (row["x_index"], row["t"], row["critical_value"]) == (ref["x_index"], ref["t"], ref["critical_value"])
        t = float(ref["t"])
        assert float(row["conjugate"]) == pytest.approx(float(ref["conjugate"]), rel=_conjugate_rtol(t), abs=0.0)
        for col in SLACK_COLUMNS:
            assert _slack_close(float(row[col]), float(ref[col])), (ref["x_index"], t, col)


TABLE_HEADER = ["x_index", "t", "conjugate", "critical_value",
                "slack_power_p", "slack_power_q", "slack_critical", "slack_trace"]


def _table_by_writer(payload):
    """The bytes csv.writer writes for the conjugate table of ``payload``, one
    row list per (node, t) sample, as the table was once written."""
    field = io.field_from_json(payload["field"])
    nodes = [tuple(x) if isinstance(x, list) else x for x in payload.get("nodes", [None])]
    ts = np.array(payload["t_values"], dtype=float)
    report = verify_conjugate_bounds(field, nodes, ts, normalized=payload.get("normalized", False))
    crit_spec = PhiSpec.critical(field)
    rows, i = [TABLE_HEADER], 0
    for x in nodes:
        for t, critical in zip(ts.tolist(), eval_phi(crit_spec, x, ts).tolist()):
            rows.append([x, t, float(report.conjugate[i]), critical,
                         *(float(report.slacks[k][i]) for k in SLACK_COLUMNS.values())])
            i += 1
    buf = StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


TUPLE_FIELD = {"N": 3, "p": [[1.5, 1.6], [1.7, 1.4]], "q": [[1.8, 1.9], [2.0, 1.7]], "mu": [[0.0, 1.0], [2.0, 0.5]]}
CONSTANT_FIELD = {"N": 3, "p": 1.5, "q": 1.8, "mu": 0.7}


@pytest.mark.parametrize("payload", [
    {"field": MIXED, "nodes": [0, 3, 1, 3], "t_values": MIXED_TS},
    {"field": TUPLE_FIELD, "nodes": [[0, 1], [1, 0], [0, 1]], "t_values": [0.0, 2.0, 0.25], "normalized": True},
    {"field": CONSTANT_FIELD, "t_values": [0.0, 0.5, 1.0, 3.0]},
    {"field": CONSTANT_FIELD, "nodes": [0, 2], "t_values": [1e-300, 7.5]},
    {"field": MIXED, "nodes": [2, 0], "t_values": [2.5]},
], ids=["int-nodes", "tuple-nodes", "constant-field", "constant-field-nodes", "one-t"])
def test_conjugate_table_bytes_are_the_csv_writer_bytes(tmp_path, payload):
    code, out = _run(tmp_path, "conjugate-table", payload)
    assert code == cli.EXIT_OK
    got = (out / "conjugate_table.csv").read_bytes()
    assert got == _table_by_writer(payload)
    if "nodes" not in payload:  # an empty x_index cell, not the '""' of a row holding one empty field
        assert all(line.startswith(b",") for line in got.splitlines()[1:])


def _stacked_bytes(u):
    """The bytes of a grid-function CSV as it was once written: the coordinate
    columns and the values column-stacked, each row in one "%.18e" format."""
    dom = u.domain
    header = [
        "# shape=" + ",".join(str(n) for n in dom.shape),
        "# spacing=" + ",".join(repr(h) for h in dom.spacing),
        "# origin=" + ",".join(repr(o) for o in dom.origin),
        ",".join(f"x{i}" for i in range(dom.dim)) + ",value",
    ]
    data = np.column_stack([c.ravel() for c in dom.coordinates] + [u.values.ravel()])
    row_format = ",".join(["%.18e"] * data.shape[1]) + "\n"
    return ("\n".join(header) + "\n" + (row_format * data.shape[0]) % tuple(data.ravel().tolist())).encode()


@pytest.mark.parametrize("grid", [
    {"shape": [9], "lengths": [2.0]},
    {"shape": [7, 5], "lengths": [1.5, 1.0], "origin": [-0.75, -3.25]},
    {"shape": [5, 4, 3], "spacing": [0.3, 0.1, 0.7]},
], ids=["1d", "2d-negative-origin", "3d"])
def test_solution_bytes_are_the_stacked_rows(tmp_path, grid):
    code, out = _run(tmp_path, "solve", {"field": FLAT, "grid": grid, "source": 1.0})
    assert code == cli.EXIT_OK
    u = io.function_from_csv(out / "solution.csv")
    assert u.domain == io.grid_from_json(grid)
    assert (out / "solution.csv").read_bytes() == _stacked_bytes(u)


def test_conjugate_below_1e290_is_solved(tmp_path):
    # p* = 88.7: (t/p*)^{p*} at t = 0.045 is about 4.2e-293, below the old
    # Newton floor 1e-290 and above the smallest normal double.
    N, p = 6.0, 5.62
    payload = {"field": {"N": N, "p": p, "q": 5.633, "mu": 0.0}, "t_values": [0.045, 1.0]}
    code, out = _run(tmp_path, "conjugate-table", payload)
    assert code == cli.EXIT_OK
    rows = _read_table(out / "conjugate_table.csv")
    p_star = N * p / (N - p)
    for row in rows:
        oracle = (float(row["t"]) / p_star) ** p_star
        assert float(row["conjugate"]) == pytest.approx(oracle, rel=1e-10, abs=0.0)
    assert float(rows[0]["conjugate"]) < 1e-290


@pytest.mark.parametrize("t_values", [2.0, [1.0, float("nan")], [1.0, float("inf")], [[1.0], [2.0]], {"t": 1.0},
                                      [True, 2.0]])
def test_malformed_t_values_are_input_errors(tmp_path, capsys, t_values):
    # json writes the tokens NaN and Infinity, which Python's json reads back
    payload = {"field": {"N": 3, "p": 1.5, "q": 1.8, "mu": 0.5}, "t_values": t_values}
    code, out = _run(tmp_path, "conjugate-table", None, text=json.dumps(payload))
    assert code == cli.EXIT_INPUT_ERROR
    assert "t values" in capsys.readouterr().err
    assert not (out / "conjugate_table.csv").exists()


SOLVE = {"grid": {"shape": [17, 17]}, "field": {"N": 3, "p": 2.0, "q": 2.0, "mu": 1.0},
         "source": 1.0, "grad_tol": 1e-8}


@pytest.mark.parametrize("command,payload,what", [
    ("solve", dict(SOLVE, source=None), "'source'"),
    ("solve", dict(SOLVE, source=[1, 2]), "'source'"),
    ("solve", dict(SOLVE, source=True), "'source'"),
    ("solve", dict(SOLVE, bc="neumann", source=0.0, flux="abc"),
     "'flux': function file not found or not readable: abc"),
    ("norm", {"field": SOLVE["field"], "grid": SOLVE["grid"], "function": [1, 2]}, "'function'"),
], ids=["source-null", "source-list", "source-bool", "flux-string", "function-list"])
def test_malformed_grid_data_is_an_input_error(tmp_path, capsys, command, payload, what):
    code, out = _run(tmp_path, command, payload)
    assert code == cli.EXIT_INPUT_ERROR
    assert what in capsys.readouterr().err
    assert not any(out.iterdir())


def test_solve_reports_linear_work(tmp_path):
    code, out = _run(tmp_path, "solve", SOLVE)
    conv = json.loads((out / "convergence.json").read_text())
    assert code == cli.EXIT_OK
    assert {"converged", "iterations", "energy", "grad_norm", "step_norm", "message",
            "weak_residual"} <= set(conv)
    # p = q = 2: one step on a fresh factor, which CG solves in one iteration
    assert (conv["iterations"], conv["factorizations"], conv["linear_iterations"]) == (2, 1, 1)


def test_incompatible_neumann_solve_is_an_input_error(tmp_path, capsys):
    code, out = _run(tmp_path, "solve", dict(SOLVE, bc="neumann"))
    assert code == cli.EXIT_INPUT_ERROR
    assert "incompatible Neumann data" in capsys.readouterr().err
    assert not (out / "convergence.json").exists()


def test_neumann_load_along_the_checkerboard_is_an_input_error(tmp_path, capsys):
    # f = 1 and the constant flux that balances it on the 17 x 17 unit box
    code, out = _run(tmp_path, "solve", dict(SOLVE, bc="neumann", flux=-0.25))
    assert code == cli.EXIT_INPUT_ERROR
    assert "sign pattern" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("regime", ["subcritical-D", "subcritical-N", "critical-N", "critical-D"])
def test_bound_check_golden(tmp_path, regime):
    # The golden files were written by bound checks that walked every
    # truncation level of every candidate: critical-D by one that built its
    # Phi-functions once per function, the others by one that rebuilt them at
    # every level.
    code, out = _run(tmp_path, "bound-check", None, text=(DATA / f"bound_check_{regime}.json").read_text())
    assert code == cli.EXIT_OK
    got = json.loads((out / "bound_check.json").read_text())
    golden = json.loads((DATA / f"bound_check_{regime}.golden.json").read_text())
    assert sorted(got) == sorted(golden)
    for key, ref in golden.items():
        if isinstance(ref, float):
            assert got[key] == pytest.approx(ref, rel=1e-12, abs=0.0), key
        else:
            assert got[key] == ref, key


BOUND = {"grid": {"shape": [9, 9]}, "field": {"N": 3, "p": 1.6, "q": 1.9, "mu": 1.0},
         "function": 0.25, "regime": "critical-D"}


@pytest.mark.parametrize("kappa_grid", [2.0, [0.5, float("nan")], [0.5, float("inf")],
                                        [float("-inf"), 0.5], [[0.5], [1.0]], [True, 2.0]])
def test_malformed_kappa_grid_is_an_input_error(tmp_path, capsys, kappa_grid):
    # json writes the tokens NaN and Infinity, which Python's json reads back
    code, out = _run(tmp_path, "bound-check", None, text=json.dumps(dict(BOUND, kappa_grid=kappa_grid)))
    assert code == cli.EXIT_INPUT_ERROR
    assert "kappa grid" in capsys.readouterr().err
    assert not (out / "bound_check.json").exists()


def _assert_close(got, ref, where=""):
    """Equal structure and non-float leaves; floats to 1e-12 relative."""
    if isinstance(ref, float):
        assert isinstance(got, float) and got == pytest.approx(ref, rel=1e-12, abs=0.0), where
    elif isinstance(ref, dict):
        assert sorted(got) == sorted(ref), where
        for key in ref:
            _assert_close(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), where
        for i, (g, r) in enumerate(zip(got, ref)):
            _assert_close(g, r, f"{where}[{i}]")
    else:
        assert got == ref and type(got) is type(ref), where


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_cells(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [[_cell(v) for v in row] for row in csv.reader(fh)]


# (input stem, subcommand, output file, exit code).  None of these
# subcommands uses the conjugate, so the goldens written by the code that
# evaluated it by quadrature still hold.
CLI_GOLDEN = [
    ("validate_h1", "validate", "report.json", cli.EXIT_OK),
    ("validate_h3", "validate", "report.json", cli.EXIT_CHECK_FAILED),
    ("norm_luxemburg", "norm", "norm.json", cli.EXIT_OK),
    ("norm_sobolev", "norm", "norm.json", cli.EXIT_OK),
    ("norm_boundary", "norm", "norm.json", cli.EXIT_OK),
    ("recursion", "recursion", "recursion.json", cli.EXIT_OK),
    ("embed_scan", "embed-scan", "embed_scan.csv", cli.EXIT_OK),
    ("embed_scan_radial", "embed-scan", "embed_scan.csv", cli.EXIT_OK),
]


@pytest.mark.parametrize("stem,command,output,exit_code", CLI_GOLDEN, ids=[case[0] for case in CLI_GOLDEN])
def test_cli_golden(tmp_path, stem, command, output, exit_code):
    code, out = _run(tmp_path, command, None, text=(DATA / f"cli_{stem}.json").read_text())
    assert code == exit_code
    golden = DATA / f"cli_{stem}.golden{Path(output).suffix}"
    if output.endswith(".json"):
        _assert_close(json.loads((out / output).read_text()), json.loads(golden.read_text()))
    else:
        _assert_close(_csv_cells(out / output), _csv_cells(golden))


def test_solve_golden(tmp_path):
    # 17x17 Dirichlet solve with node-varying exponents (p < 2) and a varying load
    code, out = _run(tmp_path, "solve", None, text=(DATA / "cli_solve.json").read_text())
    assert code == cli.EXIT_OK
    _assert_close(json.loads((out / "convergence.json").read_text()),
                  json.loads((DATA / "cli_solve.golden.json").read_text()))
    _assert_close(_csv_cells(out / "solution.csv"), _csv_cells(DATA / "cli_solve.golden.csv"))


def test_solve_golden_is_within_1e8_of_a_tight_solve(tmp_path):
    # The golden pins the path of one method; this pins what it converged to:
    # the same input solved to grad_tol 1e-13.  Both the golden and a fresh
    # solve lie within 1e-8 of it (max |u| is 0.27).
    (tmp_path / "tight").mkdir()
    payload = json.loads((DATA / "cli_solve.json").read_text())
    code, out = _run(tmp_path / "tight", "solve", dict(payload, grad_tol=1e-13))
    assert code == cli.EXIT_OK
    assert _read_standard_json(out / "convergence.json")["weak_residual"] <= 1e-13
    tight = io.function_from_csv(out / "solution.csv").values
    code, out = _run(tmp_path, "solve", payload)
    assert code == cli.EXIT_OK
    for path in (out / "solution.csv", DATA / "cli_solve.golden.csv"):
        assert np.max(np.abs(io.function_from_csv(path).values - tight)) <= 1e-8


def _imported_by_the_cli(module):
    src = str(Path(musielak.__file__).resolve().parents[1])
    code = f"import sys, musielak.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_special_out():
    # the closed-form conjugate imports scipy.special (55-70 ms) on first use
    assert not _imported_by_the_cli("scipy.special")


def test_import_leaves_scipy_sparse_out():
    # only a solve imports scipy.sparse (about 0.3 s)
    assert not _imported_by_the_cli("scipy.sparse")


def test_overflowing_domination_constant_is_an_input_error(tmp_path, capsys):
    # q* = 3 * 2.95 / 0.05 = 177, and 177^177 overflows a double
    payload = {"field": {"N": 3, "p": 1.5, "q": 2.95, "mu": 0.5}, "t_values": [0.5, 1.0, 2.0]}
    code, out = _run(tmp_path, "conjugate-table", payload)
    assert code == cli.EXIT_INPUT_ERROR
    assert "domination constant" in capsys.readouterr().err
    assert not (out / "conjugate_table.csv").exists()


BOX9 = {"grid": {"shape": [9, 9]}, "field": {"N": 3, "p": 2.5, "q": 3.0, "mu": 1.0}, "source": 1.0}


@pytest.mark.parametrize("bad", [{"grad_tol": float("nan")}, {"grad_tol": -1.0}, {"grad_tol": None},
                                 {"max_iter": 0}, {"max_iter": -3}, {"max_iter": 2.7}, {"max_iter": True}])
def test_bad_solve_tolerance_or_cap_is_an_input_error(tmp_path, capsys, bad):
    code, out = _run(tmp_path, "solve", None, text=json.dumps(dict(BOX9, **bad)))
    assert code == cli.EXIT_INPUT_ERROR
    assert next(iter(bad)) in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("max_iter", [solver._MAX_ITER_CAP + 1, 10**400], ids=["cap+1", "10**400"])
def test_solve_cap_above_the_limit_is_an_input_error(tmp_path, capsys, max_iter):
    code, out = _run(tmp_path, "solve", dict(BOX9, max_iter=max_iter))
    assert code == cli.EXIT_INPUT_ERROR
    assert "max_iter" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_solve_cap_at_the_limit_is_accepted():
    field, domain = cli._field_and_domain(BOX9, need_domain=True)
    spec = solver.ProblemSpec(domain, field, GridFunction.constant(domain, 1.0), max_iter=solver._MAX_ITER_CAP)
    assert spec.max_iter == solver._MAX_ITER_CAP


@pytest.mark.parametrize("n_max", [2.7, True, 0, 10**400, degiorgi._N_MAX_CAP + 1])
def test_bad_recursion_cap_is_an_input_error(tmp_path, capsys, n_max):
    payload = json.loads((DATA / "cli_recursion.json").read_text())
    code, out = _run(tmp_path, "recursion", dict(payload, n_max=n_max))
    assert code == cli.EXIT_INPUT_ERROR
    assert "n_max" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("change,diverged", [({"Z0": 1e200}, True), ({"mu2": 1e308}, False)],
                         ids=["Z0-overflows", "mu2-huge"])
def test_overflowing_recursion_is_reported(tmp_path, change, diverged):
    payload = json.loads((DATA / "cli_recursion.json").read_text())
    code, out = _run(tmp_path, "recursion", dict(payload, **change))
    assert code == cli.EXIT_OK
    got = json.loads((out / "recursion.json").read_text())
    assert got["diverged"] is diverged
    assert all(0.0 < t < 1.0 for t in got["thresholds"])


FLAT = {"N": 3, "p": 1.6, "q": 1.9, "mu": 1.0}
GRID = {"shape": [9, 9]}
RECURSION = {"K": 1.05, "Z0": 0.001, "b": 2.0, "mu1": 0.5, "mu2": 0.7}
PAYLOADS = {
    "validate": {"field": FLAT},
    "norm": {"field": FLAT, "grid": GRID, "function": 0.25},
    "conjugate-table": {"field": FLAT, "t_values": [1.0]},
    "embed-scan": {"field": FLAT, "grid": GRID, "r": 2.5, "s": 3.0, "alpha": 1.0},
    "solve": {"field": FLAT, "grid": GRID, "source": 1.0},
    "bound-check": {"field": FLAT, "grid": GRID, "function": 0.25, "regime": "critical-D"},
}
# A value for each exponent and the mode that the Phi kinds of a norm payload read.
KIND_KEYS = {"r": 2.5, "s": 3.0, "l": 2.0, "h": 2.5, "alpha": 1.5, "mode": "critical"}
MALFORMED = (
    [pytest.param(cmd, dict(base, field="abc"), "field must be a JSON object", id=f"{cmd}-field")
     for cmd, base in PAYLOADS.items()]
    + [pytest.param(cmd, dict(base, grid=5), "grid must be a JSON object", id=f"{cmd}-grid")
       for cmd, base in PAYLOADS.items() if "grid" in base]
    + [pytest.param(cmd, dict(PAYLOADS[cmd], function="no-such-file.json"), "function file not found",
                    id=f"{cmd}-function-file") for cmd in ("norm", "bound-check")]
    + [pytest.param("recursion", dict(RECURSION, **{key: bad}), f"'{key}' must be a finite number",
                    id=f"recursion-{key}-{type(bad).__name__}") for key in RECURSION for bad in (None, [1.0])]
    + [pytest.param("recursion", [RECURSION], "must be a JSON object", id="recursion-list")]
    + [pytest.param("validate", {"field": dict(FLAT, N=bad)}, "'N' must be a finite integer", id=f"N-{bad}")
       for bad in (3.7, None, True)]
    + [pytest.param("validate", {"field": dict(FLAT, lipschitz_bound=[1])}, "'lipschitz_bound' must be a finite number",
                    id="lipschitz_bound-list")]
    + [pytest.param("norm", dict(PAYLOADS["norm"], grid=grid), what, id=name)
       for name, grid, what in [("shape-fraction", {"shape": [9.5, 9]}, "'shape' must be a finite integer"),
                                ("shape-null", {"shape": None}, "'shape' must be a list"),
                                ("lengths-null", dict(GRID, lengths=None), "'lengths' must be a list"),
                                ("origin-null", dict(GRID, origin=[None, 0]), "'origin' must be a finite number"),
                                ("spacing-string", dict(GRID, spacing="abc"), "'spacing' must be a list")]]
    + [pytest.param("embed-scan", dict(PAYLOADS["embed-scan"], **{key: None}), what, id=f"embed-scan-{key}-null")
       for key, what in [("r", "'r' must be a finite number"), ("alpha", "'alpha' must be a finite number"),
                         ("radius", "'radius' must be a finite number"), ("lambdas", "lambdas must be a flat list")]]
    + [pytest.param("embed-scan", dict(PAYLOADS["embed-scan"], lambdas=[]), "need >= 4 dilation factors",
                    id="embed-scan-lambdas-empty")]
    + [pytest.param("embed-scan", dict(PAYLOADS["embed-scan"], lambdas=[True, 2, 4, 10]),
                    "lambdas must be a flat list", id="embed-scan-lambdas-bool")]
    + [pytest.param("norm", dict(PAYLOADS["norm"], grid={"shape": shape}), "node count", id=f"shape-{name}")
       for name, shape in [("over-cap", [4097, 4097]), ("huge", [10**6] * 3)]]
    + [pytest.param("validate", {"field": FLAT, "grid": {"shape": [4097, 4097]}}, "node count",
                    id="validate-grid-over-cap")]
    + [pytest.param("conjugate-table", {"field": dict(FLAT, p=[1.6] * 4097, q=[1.9] * 4097, mu=[1.0] * 4097),
                                       "nodes": list(range(4097)), "t_values": [1.0] * 4097},
                    "conjugate table size", id="table-over-cap")]
    + [pytest.param("norm", dict(PAYLOADS["norm"], grid={"shape": []}), "at least one axis", id="shape-empty")]
    + [pytest.param("norm", dict(PAYLOADS["norm"], kind="weighted", r=None, s=3.0, alpha=1.0),
                    "'r' must be a finite number", id="weighted-r-null")]
    + [pytest.param("norm", dict(PAYLOADS["norm"], kind=["critical"]), "unknown Phi-function kind", id="kind-list")]
    + [pytest.param("conjugate-table", dict(PAYLOADS["conjugate-table"], normalized=bad),
                    "'normalized' must be true or false", id=f"normalized-{bad}")
       for bad in ("false", "true", [0], 0, 1, None)]
    + [pytest.param("bound-check", dict(PAYLOADS["bound-check"], constants=bad), what, id=f"constants-{name}")
       for name, bad, what in [("string", "abc", "'constants' must be a JSON object"),
                               ("bogus", {"bogus": 1}, "unknown constants"),
                               ("beta", {"beta": 2}, "unknown constants"),
                               ("C-string", {"C": "2"}, "'C' must be a finite number"),
                               ("C-huge-int", {"C": 10**400}, "'C' must be a finite number")]]
    + [pytest.param("validate", {"grid": GRID}, "payload needs a 'field' entry", id="no-field"),
       pytest.param("norm", {"field": FLAT, "function": 0.25}, "payload needs a 'grid' entry", id="norm-no-grid"),
       pytest.param("bound-check", {k: v for k, v in PAYLOADS["bound-check"].items() if k != "function"},
                    "missing key 'function'", id="bound-check-no-function"),
       pytest.param("bound-check", dict(PAYLOADS["bound-check"], function=None),
                    "'function' must be a number, a grid function or a file path", id="bound-check-function-null"),
       pytest.param("norm", dict(PAYLOADS["norm"], norm="energy"), "unknown norm type", id="norm-unknown")]
    # A one-node axis once divided by zero before the node count was checked.
    + [pytest.param("norm", dict(PAYLOADS["norm"], grid={"shape": shape}), "at least one axis, each with >= 3 nodes",
                    id=f"shape-{shape}") for shape in ([1, 5], [1])]
    + [pytest.param("validate", {"field": FLAT, "grid": {"shape": shape}}, "at least one axis, each with >= 3 nodes",
                    id=f"validate-grid-shape-{shape}") for shape in ([1, 5], [1])]
    # An empty table once exited 0 with a header-only table that passed.
    + [pytest.param("conjugate-table", {"field": FLAT, "nodes": [], "t_values": [1.0]}, "'nodes' must be a nonempty",
                    id="nodes-empty"),
       pytest.param("conjugate-table", {"field": FLAT, "t_values": []}, "'t_values' must hold at least one",
                    id="t_values-empty")]
    # Weights that underflow or overflow once gave a zero norm, a NaN modular or zero facet weights.
    + [pytest.param("norm", dict(PAYLOADS["norm"], grid={"shape": shape, "spacing": spacing}, **kw),
                    f"spacing {tuple(spacing)} puts a lattice weight outside the double range", id=name)
       for name, shape, spacing, kw in [
           ("spacing-underflow-2d", [9, 9], [1e-200] * 2, {}),
           ("spacing-underflow-3d", [5, 5, 5], [1e-200] * 3, {}),
           ("spacing-overflow-2d", [9, 9], [1e200] * 2, {}),
           ("spacing-overflow-3d", [5, 5, 5], [1e200] * 3, {}),
           ("spacing-facet-underflow", [5, 5, 5], [1e-200, 1e-200, 1e300],
            {"field": dict(FLAT, N=4), "norm": "boundary", "kind": "critical_trace"})]]
    + [pytest.param("solve", dict(PAYLOADS["solve"], bc="robin"), "unknown boundary condition", id="solve-bc-robin")]
    + [pytest.param("norm", dict(PAYLOADS["norm"], grid=grid), what, id=name)
       for name, grid, what in [
           ("spacing-length", {"shape": [9, 9], "spacing": [0.1]}, "must have equal length"),
           ("spacing-zero", {"shape": [9, 9], "spacing": [0.1, 0.0]}, "spacing must be positive"),
           ("grid-no-shape", {"spacing": [0.1, 0.1]}, "grid needs a 'shape' entry")]]
    + [pytest.param("norm", dict(PAYLOADS["norm"], function="no-such-file.csv"),
                    "function file not found or not readable: no-such-file.csv", id="norm-function-csv-missing"),
       pytest.param("norm", dict(PAYLOADS["norm"], function={"values": [[None] * 9] * 9}), "must be finite",
                    id="norm-function-null")]
    + [pytest.param("norm", dict(PAYLOADS["norm"], kind="subcritical", **kw), what, id=name)
       for name, kw, what in [
           ("critical-mode-r-above-p-star", {"r": 4.0, "s": 5.0, "mode": "critical"}, "critical mode needs r <="),
           ("mode-bogus", {"r": 2.5, "s": 3.0, "mode": "bogus"}, "unknown subcritical mode"),
           ("r-shape", {"r": [2.5, 2.5, 2.5], "s": 3.0}, "field shape (3,) != node shape (9, 9)")]]
    # A key that the run would ignore once exited 0 and dropped the key.
    + [pytest.param("solve", dict(PAYLOADS["solve"], flux=1.0, **bc),
                    "'bc' = 'dirichlet-zero' cannot be combined with 'flux'", id=f"solve-flux-{name}")
       for name, bc in [("default-bc", {}), ("dirichlet-zero", {"bc": "dirichlet-zero"})]]
    # A second spelling of an input is an unknown key: the field's own grid (which
    # once replaced the payload's), solve's function (the load is source) and the
    # sampled t axis (the t axis is t_values).
    + [pytest.param("norm", dict(PAYLOADS["norm"], field=dict(FLAT, grid={"shape": [9, 9], "lengths": [4, 4]}),
                                 grid={"shape": [5, 5]}), "unknown field keys ['grid']", id="field-grid")]
    + [pytest.param("validate", {"field": dict(FLAT, grid=GRID)}, "unknown field keys ['grid']",
                    id="validate-field-grid")]
    + [pytest.param("solve", dict(PAYLOADS["solve"], function=0.5), "unknown solve payload keys ['function']",
                    id="solve-function-and-source"),
       pytest.param("solve", {k: v for k, v in PAYLOADS["solve"].items() if k != "source"} | {"function": 0.5},
                    "unknown solve payload keys ['function']", id="solve-function")]
    + [pytest.param("conjugate-table", dict(base, **{key: value}), f"unknown conjugate-table payload keys ['{key}']",
                    id=f"{name}{key}-{value}")
       for name, base, cases in [
           ("", {"field": FLAT}, [("t_max", None), ("t_max", "10"), ("t_max", -1), ("n_samples", 2.5),
                                  ("n_samples", True), ("n_samples", 0), ("n_samples", -3), ("n_samples", 2**24 + 1),
                                  ("n_samples", 10**15)]),
           ("t_values-and-", PAYLOADS["conjugate-table"], [("t_max", -5), ("n_samples", 8)])]
       for key, value in cases]
    + [pytest.param("conjugate-table", {"field": FLAT}, "missing key 't_values'", id="conjugate-table-no-t_values")]
    + [pytest.param("norm", dict(PAYLOADS["norm"], norm="sobolev", **{key: value}),
                    f"'norm' = 'sobolev' cannot be combined with '{key}'", id=f"sobolev-and-{key}")
       for key, value in [("kind", "bogus"), ("r", 2.5), ("s", 3.0), ("l", 2.0), ("h", 2.5), ("alpha", 1.0),
                          ("mode", "critical")]]
    + [pytest.param("embed-scan", dict(PAYLOADS["embed-scan"], function=0.25, radius=2.0),
                    "'function' cannot be combined with 'radius'", id="embed-scan-function-and-radius")]
    # An exponent or mode that the Phi kind does not read once exited 0 and was dropped.
    + [pytest.param("norm", dict(PAYLOADS["norm"], r=2.5, s=3.0, mode="bogus"),
                    "'kind' = 'double_phase' cannot be combined with 'r'", id="default-kind-and-r-s-mode")]
    + [pytest.param("norm", dict(PAYLOADS["norm"], kind=kind, **{k: KIND_KEYS[k] for k in cli._PHI_KINDS[kind]},
                                 **{key: KIND_KEYS[key]}),
                    f"'kind' = '{kind}' cannot be combined with '{key}'", id=f"{kind}-and-{key}")
       for kind in sorted(cli._PHI_KINDS) for key in KIND_KEYS
       if key not in cli._PHI_KINDS[kind] and not (key == "mode" and kind.startswith("subcritical"))]
    # Boundary exponents outside the subcritical Neumann regime once exited 0 and were dropped.
    + [pytest.param("bound-check", dict(PAYLOADS["bound-check"], regime=regime, r=2.5, s=3.0, **{key: value}),
                    f"'regime' = '{regime}' cannot be combined with '{key}'", id=f"{regime}-and-{key}")
       for regime in ("subcritical-D", "critical-D", "critical-N") for key, value in [("l", -7), ("h", 2.5)]]
    # An empty kappa grid once exited 1 with kappa_star null.
    + [pytest.param("bound-check", dict(PAYLOADS["bound-check"], kappa_grid=[]),
                    "'kappa_grid' must hold at least one candidate level", id="kappa_grid-empty")]
)


@pytest.mark.parametrize("command,payload,what", MALFORMED)
def test_malformed_payload_is_an_input_error(tmp_path, capsys, command, payload, what):
    code, out = _run(tmp_path, command, payload)
    assert code == cli.EXIT_INPUT_ERROR
    assert what in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("column_header", [True, False])
def test_a_csv_function_without_data_rows_is_one_input_error_line(tmp_path, capsys, column_header):
    path = tmp_path / "u.csv"
    io.function_to_csv(GridFunction.constant(musielak.GridDomain.box((9, 9)), 1.0), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:4] if column_header else lines[:3]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(tmp_path, "norm", dict(PAYLOADS["norm"], function=str(path)))
    assert code == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"input error: 'function': {path}: no data rows\n"
    assert list(out.iterdir()) == []


def test_bound_check_reads_its_constants(tmp_path):
    payload = dict(PAYLOADS["bound-check"], regime="subcritical-D", r=2.5, s=3.0)
    bounds = []
    for i, constants in enumerate([{}, {"C": 2, "tau1": 1.0}]):
        (tmp_path / str(i)).mkdir()
        code, out = _run(tmp_path / str(i), "bound-check", dict(payload, constants=constants))
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
        bounds.append(json.loads((out / "bound_check.json").read_text())["bound_estimate"])
    assert bounds[1] == pytest.approx(2.0 * bounds[0], rel=1e-15)


def _read_standard_json(path):
    """The JSON in ``path``; NaN, Infinity and -Infinity, which standard JSON
    does not have, raise ValueError."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token} in {path.name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_convergence_json_is_standard_json(tmp_path):
    # With no load the zero start is already the solution: no step is taken,
    # so the report's step length is inf, which is written as null.
    code, out = _run(tmp_path, "solve", dict(BOX9, source=0.0))
    assert code == cli.EXIT_OK
    conv = _read_standard_json(out / "convergence.json")
    assert conv["converged"] and conv["iterations"] == 1 and conv["step_norm"] is None


def test_an_infinite_recursion_threshold_is_written_as_null(tmp_path):
    # K = 1e-300 puts the second threshold beyond the double range
    payload = dict(json.loads((DATA / "cli_recursion.json").read_text()), K=1e-300)
    code, out = _run(tmp_path, "recursion", payload)
    assert code == cli.EXIT_OK
    assert _read_standard_json(out / "recursion.json")["thresholds"] == [1.0, None]


def test_an_overflowing_solve_writes_its_energy_and_gradient_as_null(tmp_path):
    code, out = _run(tmp_path, "solve", _mutated("cli_solve", "field", "mu", 1e308, {}))
    assert code == cli.EXIT_CHECK_FAILED
    conv = _read_standard_json(out / "convergence.json")
    assert conv["energy"] is None and conv["grad_norm"] is None


def test_an_overflowing_solve_warns_nothing(tmp_path):
    # The diffusivity overflows to inf, and inf * 0 at cells with zero gradient is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = _run(tmp_path, "solve", _mutated("cli_solve", "field", "mu", 1e308, {}))
    assert code == cli.EXIT_CHECK_FAILED
    assert json.loads((out / "convergence.json").read_text())["message"].startswith("energy gradient is not finite")


def test_a_non_finite_gradient_stops_the_solve_and_says_so(tmp_path):
    # mu = 1e308 overflows the diffusivity, so the gradient at the first iterate is NaN
    code, out = _run(tmp_path, "solve", _mutated("cli_solve", "field", "mu", 1e308, {}))
    assert code == cli.EXIT_CHECK_FAILED
    conv = _read_standard_json(out / "convergence.json")
    assert conv["converged"] is False and conv["iterations"] == 1 and conv["factorizations"] == 0
    assert conv["message"] == "energy gradient is not finite (the data overflow the double range)"
    assert conv["energy"] is None and conv["grad_norm"] is None


@pytest.mark.parametrize("where,key,value,message", [
    ("field", "p", 1e308, "Newton direction is not a descent direction"),
    ("field", "q", 1e308, "Newton direction is not a descent direction"),
    (None, "grad_tol", 1e-300, "iteration cap reached"),
], ids=["p=1e308", "q=1e308", "grad_tol=1e-300"])
def test_a_solve_converges_only_when_the_gradient_reaches_grad_tol(tmp_path, where, key, value, message):
    # Each of these once ended on a small step with the gradient above grad_tol
    # and reported convergence.
    payload = _mutated("cli_solve", where, key, value, {})
    code, out = _run(tmp_path, "solve", payload)
    assert code == cli.EXIT_CHECK_FAILED
    conv = _read_standard_json(out / "convergence.json")
    assert conv["converged"] is False and conv["message"] == message
    assert conv["grad_norm"] > payload.get("grad_tol", solver.ProblemSpec.grad_tol)


def test_an_overflowing_newton_direction_stops_the_solve_and_says_so(tmp_path):
    # source = 1e308: the load is finite, but CG's inner products overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = _run(tmp_path, "solve", _mutated("cli_solve", None, "source", 1e308, {}))
    assert code == cli.EXIT_CHECK_FAILED
    conv = _read_standard_json(out / "convergence.json")
    assert conv["converged"] is False and conv["iterations"] == 1
    assert conv["message"] == "Newton direction is not finite (the data overflow the double range)"


@pytest.mark.parametrize("N", [2**24 + 1, 1e308])
@pytest.mark.parametrize("command", sorted(PAYLOADS))
def test_a_dimension_beyond_the_cap_is_an_input_error(tmp_path, capsys, command, N):
    # N = 1e308 overflows the critical exponents N r / (N - r)
    payload = dict(PAYLOADS[command], field=dict(FLAT, N=N))
    code, out = _run(tmp_path, command, payload)
    assert code == cli.EXIT_INPUT_ERROR
    assert "spatial dimension" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_source_values_of_another_shape_are_an_input_error(tmp_path, capsys):
    grid = {"shape": [5, 3]}
    source = {"values": np.arange(15.0).reshape(3, 5).tolist()}
    code, out = _run(tmp_path, "solve", dict(BOX9, grid=grid, source=source))
    assert code == cli.EXIT_INPUT_ERROR
    assert "shape" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_a_top_level_grid_payload_decodes_its_field_once(tmp_path, monkeypatch):
    calls = []
    decode = io.field_from_json

    def counted(*args):
        calls.append(args)
        return decode(*args)

    monkeypatch.setattr(io, "field_from_json", counted)
    code, _ = _run(tmp_path, "norm", None, text=(DATA / "cli_norm_luxemburg.json").read_text())
    assert code == cli.EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("lengths,exit_code", [([1.0, 1.0], cli.EXIT_OK), ([5.0, 5.0], cli.EXIT_INPUT_ERROR)],
                         ids=["same-lattice", "other-box"])
def test_an_inline_function_is_read_on_the_payloads_lattice_only(tmp_path, capsys, lengths, exit_code):
    grid = dict(GRID, lengths=lengths)
    function = {"grid": grid, "values": np.full((9, 9), 0.25).tolist()}
    code, out = _run(tmp_path, "norm", dict(PAYLOADS["norm"], function=function))
    assert code == exit_code
    if exit_code == cli.EXIT_INPUT_ERROR:
        err = capsys.readouterr().err
        assert repr(io.grid_from_json(grid)) in err and repr(io.grid_from_json(GRID)) in err
        assert list(out.iterdir()) == []


# A 9 x 9 field with exponent windows that every subcritical kind accepts in
# both modes: r, l and s, h as node arrays, alpha as a number.
SPEC_FIELD = io.grid_from_json(GRID).constant_field(3, 1.6, 1.9, np.linspace(0.0, 2.0, 81).reshape(9, 9))
SPEC_ARGS = {"r": np.full((9, 9), 2.5), "s": np.full((9, 9), 3.0), "l": np.full((9, 9), 1.9),
             "h": np.full((9, 9), 2.5), "alpha": 1.5}


@pytest.mark.parametrize("mode", [None, "critical"])
@pytest.mark.parametrize("kind", sorted(cli._PHI_KINDS))
def test_phi_spec_matches_its_constructor(kind, mode):
    payload = {"kind": kind, **{k: np.asarray(SPEC_ARGS[k]).tolist() for k in cli._PHI_KINDS[kind]}}
    if mode is not None:
        payload["mode"] = mode
        if not kind.startswith("subcritical"):  # only the subcritical kinds take a mode
            with pytest.raises(DomainError, match=f"'kind' = '{kind}' cannot be combined with 'mode'"):
                cli._phi_spec(payload, SPEC_FIELD)
            del payload["mode"]
    got = cli._phi_spec(payload, SPEC_FIELD)
    constructor = getattr(PhiSpec, kind)
    args = [SPEC_ARGS[k] for k in cli._PHI_KINDS[kind]]
    if mode is not None and kind.startswith("subcritical"):
        args.append(mode)
    want = constructor(SPEC_FIELD, *args)
    assert got.kind == want.kind == kind
    for name in ("lo", "hi", "weight"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    if kind.startswith("subcritical"):
        # The mode chooses the window check: a lower exponent at its critical
        # cap passes in critical mode only.
        key, cap = ("l", SPEC_FIELD.critical_trace("p")) if kind.endswith("trace") else ("r", SPEC_FIELD.critical("p"))
        at_cap = dict(payload, **{key: cap.tolist()})
        if mode == "critical":
            cli._phi_spec(at_cap, SPEC_FIELD)
        else:
            with pytest.raises(DomainError, match="subcritical mode"):
                cli._phi_spec(at_cap, SPEC_FIELD)


@pytest.mark.parametrize("kind,key", [("subcritical", "r"), ("subcritical", "s"), ("subcritical_trace", "l"),
                                      ("subcritical_trace", "h"), ("weighted", "alpha")])
def test_a_json_bool_is_not_an_exponent(kind, key):
    payload = {"kind": kind, **{k: np.asarray(v).tolist() for k, v in SPEC_ARGS.items()}, key: True}
    with pytest.raises(DomainError, match=f"'{key}' must be a number"):
        cli._phi_spec(payload, SPEC_FIELD)


def _with_a_bool(value):
    """``value`` over the 9 x 9 grid as nested lists, with True at one node."""
    rows = np.broadcast_to(np.asarray(value, dtype=float), (9, 9)).tolist()
    rows[4][4] = True
    return rows


# Each number list the norm payload reads: key -> (the object holding it, the Phi kind that reads it).
_NUMBER_LISTS = {"p": ("field", "double_phase"), "q": ("field", "double_phase"), "mu": ("field", "double_phase"),
                 "values": ("function", "double_phase"), "r": (None, "subcritical"), "s": (None, "subcritical"),
                 "l": (None, "subcritical_trace"), "h": (None, "subcritical_trace"), "alpha": (None, "weighted")}


@pytest.mark.parametrize("key", list(_NUMBER_LISTS))
def test_a_json_bool_nested_in_a_number_list_is_an_input_error(tmp_path, capsys, key):
    # [[true, 1.5]] once read as [[1.0, 1.5]].
    where, kind = _NUMBER_LISTS[key]
    payload = dict(PAYLOADS["norm"], field=dict(FLAT), function={"values": np.full((9, 9), 0.25).tolist()},
                   kind=kind, **{k: np.asarray(SPEC_ARGS[k]).tolist() for k in cli._PHI_KINDS[kind]})
    (tmp_path / "clean").mkdir()
    assert _run(tmp_path / "clean", "norm", payload)[0] == cli.EXIT_OK
    target = payload if where is None else payload[where]
    target[key] = _with_a_bool(target[key])
    code, out = _run(tmp_path, "norm", payload)
    assert code == cli.EXIT_INPUT_ERROR
    assert f"'{key}' must be a number" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("case", ["input-directory", "function-directory", "output-file"])
def test_a_path_that_cannot_be_used_is_an_input_error(tmp_path, capsys, case):
    # A directory given where a file is read, or a file where the output
    # directory goes, once escaped as IsADirectoryError or FileExistsError.
    src, bad = tmp_path / "input.json", tmp_path / "bad"
    if case == "output-file":
        bad.write_text("kept")
    else:
        bad.mkdir()
    function = str(bad) if case == "function-directory" else PAYLOADS["norm"]["function"]
    src.write_text(json.dumps(dict(PAYLOADS["norm"], function=function)))
    files = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    code = cli.main(["norm", "--input", str(bad if case == "input-directory" else src),
                     "--output", str(bad if case == "output-file" else tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT_ERROR
    assert err.startswith("input error: ") and str(bad) in err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == files


@pytest.mark.parametrize("key", ["p", "q", "mu"])
def test_a_json_bool_in_the_field_is_an_input_error(tmp_path, capsys, key):
    code, out = _run(tmp_path, "solve", _mutated("cli_solve", "field", key, True, {}))
    assert code == cli.EXIT_INPUT_ERROR
    assert f"'{key}' must be a number" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# Every committed input of the subcommands, and the keys their decoding
# reads: (subcommand, input stem, where the key sits, key).
_FIELD_KEYS = ("N", "p", "q", "mu", "lipschitz_bound")
_GRID_KEYS = ("shape", "spacing", "lengths", "origin")
_TOP_KEYS = {
    "validate": (),
    "recursion": ("K", "b", "mu1", "mu2", "Z0", "n_max"),
    "conjugate-table": ("nodes", "t_values", "normalized"),
    "norm": ("function", "kind", "r", "s", "l", "h", "alpha"),
    "embed-scan": ("r", "s", "alpha", "radius", "lambdas"),
    "bound-check": ("r", "s", "l", "h"),
    "solve": ("source", "bc", "flux", "grad_tol", "max_iter"),
}
_INPUTS = {
    "validate": ("cli_validate_h1", "cli_validate_h3"),
    "recursion": ("cli_recursion",),
    "conjugate-table": ("conjugate_golden_raw", "conjugate_golden_normalized"),
    "norm": ("cli_norm_luxemburg", "cli_norm_sobolev", "cli_norm_boundary"),
    "embed-scan": ("cli_embed_scan",),
    "bound-check": tuple(f"bound_check_{regime}" for regime in
                         ("subcritical-D", "subcritical-N", "critical-D", "critical-N")),
    "solve": ("cli_solve",),
}
_SITES = [
    (command, stem, where, key)
    for command, stems in _INPUTS.items()
    for stem in stems
    for where, keys in [("field", _FIELD_KEYS), ("grid", _GRID_KEYS), (None, _TOP_KEYS[command])]
    if where is None or where in json.loads((DATA / f"{stem}.json").read_text())
    for key in keys
]


@settings(max_examples=120, deadline=None)
@given(site=st.sampled_from(_SITES),
       value=st.sampled_from([None, "abc", True, [True, 1.0], [[1.0]], float("nan"), 1e308, 1e-300]))
def test_a_bad_value_in_a_committed_input_never_escapes(site, value):
    command, stem, where, key = site
    payload = json.loads((DATA / f"{stem}.json").read_text())
    (payload if where is None else payload[where])[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        # json writes the token NaN, which Python's json reads back as nan
        code, out = _run(Path(tmp), command, None, text=json.dumps(payload))
        assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_INPUT_ERROR)
        if code == cli.EXIT_INPUT_ERROR:
            assert list(out.iterdir()) == []
        for path in out.glob("*.json"):
            result = _read_standard_json(path)
            if path.name == "convergence.json" and result["converged"]:
                assert result["grad_norm"] <= payload.get("grad_tol", solver.ProblemSpec.grad_tol)


@pytest.mark.parametrize("flag,value", [("--tol", "5"), ("--seed", "7"), ("--max-iter", "3"), ("--level", "H1")])
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_a_run_takes_no_option_but_input_and_output(tmp_path, capsys, command, flag, value):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(PAYLOADS.get(command, RECURSION)))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--input", str(src), "--output", str(tmp_path / "out"), flag, value])
    assert exc.value.code == cli.EXIT_INPUT_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _mutated(stem, where, key, value, change):
    """A committed input with ``change`` merged into its top level and
    ``value`` put at ``key`` (of its ``where`` object, when given)."""
    payload = dict(json.loads((DATA / f"{stem}.json").read_text()), **change)
    (payload if where is None else payload[where])[key] = value
    return payload


# (subcommand, input stem, where, key, value, top-level change)
_ZERO_EXPONENTS = (
    [("norm", f"cli_norm_{norm}", "field", key, 0, {})
     for norm in ("luxemburg", "sobolev", "boundary") for key in ("p", "q")]
    + [("embed-scan", "cli_embed_scan", None, key, 0, {}) for key in ("r", "s")]
    + [("norm", "cli_norm_luxemburg", "field", key, value, {"kind": "double_phase_normalized"})
       for key, value in (("q", 0), ("q", -1), ("p", 0))]
    + [("norm", "cli_norm_boundary", "field", "q", -1, {})]
)


@pytest.mark.parametrize("command,stem,where,key,value,change", _ZERO_EXPONENTS,
                         ids=["-".join(map(str, case[:4])) + (f"={case[4]}" if case[4] else "")
                              + ("-" + case[5]["kind"] if case[5] else "") for case in _ZERO_EXPONENTS])
def test_a_zero_exponent_is_an_input_error(tmp_path, capsys, command, stem, where, key, value, change):
    code, out = _run(tmp_path, command, _mutated(stem, where, key, value, change))
    assert code == cli.EXIT_INPUT_ERROR
    assert "exponents" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("lambdas", [[1.0, 2.0], [1.0, 2.0, 4.0, 8.0]])
def test_a_short_ladder_is_rejected_before_any_dilation(tmp_path, capsys, monkeypatch, lambdas):
    calls = []
    scale = embedding_lab.scale_function
    monkeypatch.setattr(embedding_lab, "scale_function", lambda *args: calls.append(1) or scale(*args))
    payload = json.loads((DATA / "cli_embed_scan.json").read_text())
    code, out = _run(tmp_path, "embed-scan", dict(payload, lambdas=lambdas))
    assert code == cli.EXIT_INPUT_ERROR
    assert "need >= 4 dilation factors" in capsys.readouterr().err
    assert calls == [] and list(out.iterdir()) == []


# Exponents so small that a norm, about rho(1)^(1/p), lies beyond the double range.
_TINY_EXPONENTS = (
    [("norm", f"cli_norm_{norm}", "field", key, 1e-300, {})
     for norm in ("luxemburg", "sobolev", "boundary") for key in ("p", "q")]
    + [("norm", "cli_norm_boundary", "field", "p", 1e-3, {"kind": "double_phase"})]
    + [("embed-scan", "cli_embed_scan", "field", key, 1e-300, {}) for key in ("p", "q")]
    + [("embed-scan", "cli_embed_scan", None, key, 1e-300, {}) for key in ("r", "s")]
)


@pytest.mark.parametrize("command,stem,where,key,value,change", _TINY_EXPONENTS,
                         ids=[f"{case[1]}-{case[3]}={case[4]}" for case in _TINY_EXPONENTS])
def test_a_result_beyond_the_double_range_is_a_failed_check(tmp_path, capsys, command, stem, where, key, value,
                                                           change):
    code, out = _run(tmp_path, command, _mutated(stem, where, key, value, change))
    assert code == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().err.startswith("error: ")
    assert list(out.iterdir()) == []


def test_a_singular_metric_stops_the_solve_and_says_why(tmp_path):
    # p = q = 60: from u = 0 the diffusivity eps^29 (eps = 1e-12) underflows to zero, so
    # the metric is zero while the gradient (the load) is finite
    payload = json.loads((DATA / "cli_solve.json").read_text())
    payload["field"].update(p=60.0, q=60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = _run(tmp_path, "solve", payload)
    assert code == cli.EXIT_CHECK_FAILED
    conv = json.loads((out / "convergence.json").read_text())
    assert conv["converged"] is False
    assert conv["message"] == "metric factorization failed: Factor is exactly singular"
    assert conv["grad_norm"] == pytest.approx(7.7e-2, rel=0.01)


# The files ``run`` writes for each subcommand.
_OUTPUT_FILES = {
    "validate": {"report.json"},
    "recursion": {"recursion.json"},
    "conjugate-table": {"conjugate_table.csv"},
    "norm": {"norm.json"},
    "embed-scan": {"embed_scan.csv"},
    "bound-check": {"bound_check.json"},
    "solve": {"solution.csv", "convergence.json"},
}


@pytest.mark.parametrize("command,stem", [(c, stem) for c, stems in _INPUTS.items() for stem in stems])
def test_a_handler_returns_its_outputs_and_verdict_and_writes_nothing(monkeypatch, command, stem):
    payload = json.loads((DATA / f"{stem}.json").read_text())
    real_open = builtins.open

    def read_only(file, mode="r", *args, **kwargs):
        assert not set(mode) & set("wax+"), f"the handler opened {file} for writing"
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", read_only)
    monkeypatch.setattr("io.open", read_only)  # what pathlib opens files with
    handler, _ = cli._COMMANDS[command]
    outputs, passed = handler(payload)
    rows = [list(content) for content in outputs.values()
            if not isinstance(content, (dict, GridFunction))]  # CSV rows may be a generator
    assert type(passed) is bool
    assert set(outputs) == _OUTPUT_FILES[command]
    assert all(rows)


def test_an_output_that_cannot_be_rendered_leaves_the_output_directory_empty(tmp_path, monkeypatch):
    # solve once wrote solution.csv before it rendered convergence.json
    u = GridFunction.constant(io.grid_from_json(GRID), 1.0)
    outputs = {"solution.csv": u, "convergence.json": {"energy": float("nan")}}
    monkeypatch.setitem(cli._COMMANDS, "solve", (lambda payload: (outputs, True), cli._COMMANDS["solve"][1]))
    code, out = _run(tmp_path, "solve", PAYLOADS["solve"])
    assert code == cli.EXIT_INPUT_ERROR
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("constant", ["s_plus", "tau1"])
def test_an_overflowing_bound_estimate_is_written_as_null(tmp_path, constant):
    # psi_norm is 1.04 here, so psi_norm ** 1e308 (and X ** 1e308) is beyond the double range
    payload = _mutated("bound_check_subcritical-D", None, "constants", {constant: 1e308}, {})
    code, out = _run(tmp_path, "bound-check", payload)
    assert code == cli.EXIT_OK
    assert _read_standard_json(out / "bound_check.json")["bound_estimate"] is None


@pytest.mark.parametrize("change,exit_code,message", [
    ({"radius": 0}, cli.EXIT_INPUT_ERROR, "bump radius > 0"),
    ({"radius": -1}, cli.EXIT_INPUT_ERROR, "bump radius > 0"),
    ({"weight_mode": "radial", "alpha": -1}, cli.EXIT_INPUT_ERROR, "alpha > 0"),
    ({"weight_mode": "radial", "alpha": 1e308}, cli.EXIT_CHECK_FAILED, "is not positive and finite"),
], ids=["radius=0", "radius=-1", "radial-alpha=-1", "radial-alpha=1e308"])
def test_an_embed_scan_radius_or_weight_out_of_range_warns_nothing(tmp_path, capsys, change, exit_code, message):
    # radius 0 divided by zero; alpha = -1 raised 0 to the power -1 at the origin,
    # and alpha = 1e308 multiplied an infinite weight by the zero profile
    payload = dict(json.loads((DATA / "cli_embed_scan.json").read_text()), **change)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = _run(tmp_path, "embed-scan", payload)
    assert code == exit_code
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("grid,exit_code", [
    (dict(GRID, lengths=[1.0, 1.0]), cli.EXIT_OK),
    (dict(GRID, lengths=[2.0, 2.0], origin=[-1.0, -1.0]), cli.EXIT_INPUT_ERROR),
    ({"shape": [11, 11]}, cli.EXIT_INPUT_ERROR),
], ids=["same-lattice", "other-box", "other-shape"])
@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("command,key,change", [("norm", "function", {}), ("bound-check", "function", {}),
                                                ("solve", "source", {}),
                                                ("solve", "flux", {"bc": "neumann", "source": 0.0})],
                         ids=["norm", "bound-check", "solve-source", "solve-flux"])
def test_a_function_file_is_read_on_the_payloads_lattice_only(tmp_path, capsys, command, key, change, suffix, grid,
                                                              exit_code):
    # The file holds a profile on the 9 x 9 unit box.  A CSV file's lattice once
    # replaced the payload's, and a JSON file's own grid was ignored; solve's
    # source and flux once took no file at all.  The flux, cos(pi x) cos(pi y),
    # has the zero boundary integral that Neumann data with no source need.
    wave = np.cos if key == "flux" else np.sin
    u = GridFunction(io.grid_from_json(GRID), np.outer(*2 * [wave(np.pi * np.linspace(0.0, 1.0, 9))]))
    path = tmp_path / f"u{suffix}"
    if suffix == ".csv":
        io.function_to_csv(u, path)
    else:
        path.write_text(json.dumps(function_json(u)))
    code, out = _run(tmp_path, command, dict(PAYLOADS[command], grid=grid, **change, **{key: str(path)}))
    assert code == exit_code
    if exit_code == cli.EXIT_INPUT_ERROR:
        err = capsys.readouterr().err
        assert f"'{key}': {path}: " in err
        assert repr(u.domain) in err and repr(io.grid_from_json(grid)) in err
        assert list(out.iterdir()) == []


def _with_mu(name, mu, **change):
    """The committed input ``name`` with ``mu`` at node 0 (everywhere when its mu is a number)."""
    payload = dict(json.loads((DATA / f"{name}.json").read_text()), **change)
    field = payload["field"]
    if isinstance(field["mu"], list):
        field["mu"][0][0] = mu
    else:
        field["mu"] = mu
    return payload


@pytest.mark.parametrize("command,name,mu,change", [
    ("norm", "cli_norm_luxemburg", np.inf, {}),
    ("norm", "cli_norm_sobolev", np.inf, {}),
    ("norm", "cli_norm_boundary", np.inf, {}),
    ("norm", "cli_norm_luxemburg", 1e10, {"kind": "weighted", "r": 1.5, "s": 2.5, "alpha": 40.0}),
    ("solve", "cli_solve", np.inf, {}),
    ("bound-check", "bound_check_subcritical-D", np.inf, {}),
    ("bound-check", "bound_check_critical-N", np.inf, {}),
], ids=["luxemburg", "sobolev", "boundary", "weighted-overflow", "solve", "subcritical-D", "critical-N"])
def test_an_infinite_phi_weight_is_an_input_error(tmp_path, capsys, command, name, mu, change):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = _run(tmp_path, command, _with_mu(name, mu, **change))
    assert code == cli.EXIT_INPUT_ERROR
    assert "input error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert caught == []


@pytest.mark.parametrize("stem", ["cli_norm_luxemburg", "cli_norm_sobolev", "cli_norm_boundary"])
def test_a_norm_whose_modular_underflows_or_overflows_at_1_scales_exactly(tmp_path, capsys, stem):
    # u = 1e-300 once read norm 0 (its modular at 1 underflows), and u = 1e200
    # exited 1 with a warning (0 * inf at the nodes of weight 0).
    payload = json.loads((DATA / f"{stem}.json").read_text())
    values = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1.0, 1e-300, 1e200, 1e308):
            (tmp_path / str(c)).mkdir()
            code, out = _run(tmp_path / str(c), "norm", dict(payload, function=c))
            if c == 1e308:
                assert code == cli.EXIT_CHECK_FAILED
                assert "overflows the double range" in capsys.readouterr().err
                assert list(out.iterdir()) == []
            else:
                assert code == cli.EXIT_OK
                values[c] = _read_standard_json(out / "norm.json")
    for c in (1e-300, 1e200):
        assert values[c]["value"] == pytest.approx(c * values[1.0]["value"], rel=1e-9, abs=0.0)
    if stem == "cli_norm_luxemburg":
        assert values[1e200]["modular_of_u"] is None and values[1e-300]["modular_of_u"] == 0.0


@pytest.mark.parametrize("regime,exit_code", [
    ("subcritical-D", cli.EXIT_OK), ("subcritical-N", cli.EXIT_OK),
    ("critical-D", cli.EXIT_CHECK_FAILED), ("critical-N", cli.EXIT_CHECK_FAILED),
])
def test_bound_check_of_1e200_prints_no_warning(tmp_path, capsys, regime, exit_code):
    # Phi(u - kappa) is inf at every node, also at the nodes of weight 0, where
    # the truncation energies once printed "invalid value encountered in
    # multiply" (0 * inf).
    payload = dict(json.loads((DATA / f"bound_check_{regime}.json").read_text()), function=1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = _run(tmp_path, "bound-check", payload)
    assert code == exit_code
    assert capsys.readouterr().err == ""
    assert _read_standard_json(out / "bound_check.json")["esssup"] == 1e200


def test_sobolev_norm_of_a_gradient_above_1e154_scales(tmp_path, capsys):
    # |grad u| once overflowed to inf (its components were squared unscaled),
    # so the norm exited 1 with "no unit root in the double range".
    payload = json.loads((DATA / "cli_norm_sobolev.json").read_text())
    values = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1.0, 1e200):
            (tmp_path / str(c)).mkdir()
            f = dict(payload["function"], values=(c * np.array(payload["function"]["values"])).tolist())
            code, out = _run(tmp_path / str(c), "norm", dict(payload, function=f))
            assert code == cli.EXIT_OK
            values[c] = _read_standard_json(out / "norm.json")["value"]
    assert capsys.readouterr().err == ""
    # Each norm is solved to |modular - 1| <= 1e-10, so two solves agree to about 1e-10 / p.
    assert values[1e200] == pytest.approx(1e200 * values[1.0], rel=1e-9, abs=0.0)


def test_bound_check_of_zero_gives_the_bound_0_and_prints_nothing(tmp_path, capsys):
    # It once printed "UserWarning: zero norm: degenerate bound 0" with a source line.
    payload = dict(json.loads((DATA / "bound_check_subcritical-D.json").read_text()), function=0.0)
    code, out = _run(tmp_path, "bound-check", payload)
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    got = _read_standard_json(out / "bound_check.json")
    assert (got["psi_norm"], got["bound_estimate"], got["pass"]) == (0.0, 0.0, True)


def test_embed_scan_does_not_read_the_fields_mu(tmp_path):
    code, out = _run(tmp_path, "embed-scan", _with_mu("cli_embed_scan", np.inf))
    assert code == cli.EXIT_OK
    assert (out / "embed_scan.csv").read_bytes() == (DATA / "cli_embed_scan.golden.csv").read_bytes()


@pytest.mark.parametrize("command,stem,change,key", [
    ("solve", "cli_solve", {"grad_tl": 1e-3, "max_iter": 3}, "grad_tl"),
    ("bound-check", "bound_check_subcritical-D", {"regim": "critical-D"}, "regim"),
    ("norm", "cli_norm_luxemburg", {"knd": "critical"}, "knd"),
    ("validate", "cli_validate_h3", {"levl": "H1"}, "levl"),
], ids=["solve-grad_tl", "bound-check-regim", "norm-knd", "validate-levl"])
def test_a_misspelled_payload_key_is_an_input_error(tmp_path, capsys, command, stem, change, key):
    # Each of these ran the default of the key it misspells and exited 0 or 1.
    code, out = _run(tmp_path, command, dict(json.loads((DATA / f"{stem}.json").read_text()), **change))
    assert code == cli.EXIT_INPUT_ERROR
    assert f"unknown {command} payload keys ['{key}']" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("where,key", [("field", "lipshitz_bound"), ("grid", "length"), ("function", "value")])
def test_a_misspelled_key_in_a_field_grid_or_function_is_an_input_error(tmp_path, capsys, where, key):
    payload = _mutated("cli_norm_luxemburg", where, key, 1.0, {})
    code, out = _run(tmp_path, "norm", payload)
    assert code == cli.EXIT_INPUT_ERROR
    assert f"unknown {where} keys ['{key}']" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_a_misspelled_key_in_a_function_file_is_an_input_error(tmp_path, capsys):
    payload = json.loads((DATA / "cli_norm_luxemburg.json").read_text())
    path = tmp_path / "u.json"
    path.write_text(json.dumps(dict(payload["function"], grd=payload["grid"])))
    code, out = _run(tmp_path, "norm", dict(payload, function=str(path)))
    assert code == cli.EXIT_INPUT_ERROR
    assert f"'function': {path}: unknown function keys ['grd']" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def _docstring_bullets():
    """Subcommand -> the text of its bullet in the cli module docstring."""
    bullets, name = {}, None
    for line in cli.__doc__.splitlines():
        head = line[2:].partition(":")[0] if line.startswith("- ") else None
        if head in cli._COMMANDS:
            name = head
            bullets[name] = line
        elif name and line.startswith("  "):
            bullets[name] += " " + line.strip()
        else:
            name = None
    return bullets


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_the_docstring_names_every_key_a_subcommand_reads(command):
    words = set(re.findall(r"\w+", _docstring_bullets()[command]))
    _, keys = cli._COMMANDS[command]
    assert sorted(set(keys) - words) == []


_CSV_HEAD = "# shape=3,3\n# spacing=0.5,0.5\nx0,x1,value\n"


@pytest.mark.parametrize("name,text,needle", [
    ("cell.csv", _CSV_HEAD + "0,0,abc\n", "could not convert string 'abc'"),
    ("rows.csv", _CSV_HEAD + "0,0,1\n", "cannot reshape array of size 1 into shape (3,3)"),
    ("shape.csv", _CSV_HEAD.replace("3,3", "a,b", 1) + "0,0,1\n", "invalid literal for int()"),
    ("bad.json", "{bad", "malformed JSON at line 1 column 2"),
], ids=["csv-cell", "csv-rows", "csv-shape", "json"])
def test_an_error_in_a_function_file_names_the_file(tmp_path, capsys, name, text, needle):
    # These once exited 2 with the parser's text only.
    path = tmp_path / name
    path.write_text(text)
    code, out = _run(tmp_path, "norm", dict(PAYLOADS["norm"], grid={"shape": [3, 3]}, function=str(path)))
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT_ERROR
    assert f"{path}: " in err and needle in err
    assert list(out.iterdir()) == []


def test_a_malformed_payload_file_is_an_input_error(tmp_path, capsys):
    code, out = _run(tmp_path, "validate", None, text='{"field": ')
    err = capsys.readouterr().err
    assert code == cli.EXIT_INPUT_ERROR
    assert f"{tmp_path / 'input.json'}: malformed JSON at line 1 column 11" in err
    assert list(out.iterdir()) == []


def test_an_unknown_subcommand_returns_2_and_writes_nothing(tmp_path, capsys):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(PAYLOADS["validate"]))
    assert cli.run("bogus", src, tmp_path / "out") == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "unknown subcommand: bogus\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,stem,key", [("recursion", "cli_recursion", "n_max"),
                                              ("solve", "cli_solve", "max_iter")])
def test_a_whole_float_count_reads_as_the_integer(tmp_path, command, stem, key):
    # 200.0 once exited 2 ("must be an integer") while n_samples 4.0 read as 4.
    payload = json.loads((DATA / f"{stem}.json").read_text())
    files = []
    for value in (200, 200.0):
        (tmp_path / str(value)).mkdir()
        code, out = _run(tmp_path / str(value), command, dict(payload, **{key: value}))
        assert code == cli.EXIT_OK
        files.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert files[0] == files[1]


def test_embed_scan_reads_a_grid_function_object(tmp_path):
    # The default bump, given as an object, gives the committed table of the default run.
    payload = json.loads((DATA / "cli_embed_scan.json").read_text())
    bump = embedding_lab.bump_function(io.grid_from_json(payload["grid"]), 1.0)
    code, out = _run(tmp_path, "embed-scan", dict(payload, function={"values": bump.values.tolist()}))
    assert code == cli.EXIT_OK
    assert (out / "embed_scan.csv").read_bytes() == (DATA / "cli_embed_scan.golden.csv").read_bytes()
