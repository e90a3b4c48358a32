import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import musielak
from musielak import ConvergenceError, ExponentField, PhiSpec, eval_phi
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
