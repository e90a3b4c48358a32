import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import musielak
from musielak import (ConvergenceError, ExponentField, PhiSpec, conjugate_batch, eval_phi,
                      verify_conjugate_bounds, verify_trace_bound)
from musielak import cli


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

    def test_missing_key_is_an_input_error(self, tmp_path):
        code, _ = _run(tmp_path, "recursion", {"K": 1.0})
        assert code == cli.EXIT_INPUT_ERROR

    def test_convergence_failure_is_a_failed_check(self, tmp_path, monkeypatch):
        def stalled(cfg):
            raise ConvergenceError("stalled")

        monkeypatch.setitem(cli._COMMANDS, "validate", stalled)
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
    # conjugate_batch stops when |t - H*^{-1}(h)| <= tol * max(1, t): absolute
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
        h_ref = conjugate_batch(3, *field.at(x), ts, tol=1e-10, normalized=normalized)
        samples = [(x, t) for t in ts]
        slacks = {**verify_conjugate_bounds(field, samples, normalized=normalized).slacks,
                  **verify_trace_bound(field, samples, normalized=normalized).slacks}
        for i, (row, t) in enumerate(zip(node_rows, ts)):
            assert float(row["conjugate"]) == pytest.approx(h_ref[i], rel=_conjugate_rtol(t), abs=0.0)
            assert float(row["critical_value"]) == crit_spec(x, ts)[i]
            for col, name in SLACK_COLUMNS.items():
                assert _slack_close(float(row[col]), slacks[name][i]), (x, t, col)


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("variant", ["raw", "normalized"])
def test_conjugate_table_golden(tmp_path, variant):
    # The CSVs were written by the three-solves-per-node table that preceded
    # tabulate_bounds; x_index, t and the critical column must match exactly.
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
