"""Tests of the benchmark itself, on short runs (one cycle per pass).

Run from the repository root:  python3 -m pytest perfbench -q
"""

import filecmp
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

# Wrappers and counters each workload exists to exercise.
EXERCISED = {
    "lattice-solve": (
        "solver.solve.calls", "solver.energy.calls", "solver.energy_gradient.calls",
        "solver.splu.calls", "solver.weak_residual.calls", "solver.outer_iters",
        "solver.linesearch_ratio", "degiorgi.truncation_energy.calls",
        "degiorgi.entry_condition.calls", "degiorgi.empirical_iteration.calls",
        "degiorgi.candidates", "io.read.calls", "io.write.calls", "io.bytes_read",
        "io.bytes_written", "modular.norm.calls", "phi_core.evaluate_nodes.calls",
        "phi_core.spec_builds", "cli.self_s", "solver.self_s", "io.self_s", "degiorgi.self_s",
    ),
    "conjugate-sweep": (
        "conjugate.conjugate_batch.calls", "conjugate.conjugate_inverse_batch.calls",
        "conjugate.verify.calls", "conjugate.samples_computed", "conjugate.useful_ratio",
        "phi_core.eval_phi.calls", "phi_core.validate_hypotheses.calls",
        "degiorgi.iterate_recursion.calls", "phi_core.spec_builds", "cli.self_s",
        "conjugate.self_s", "phi_core.self_s",
    ),
    "norm-analysis": (
        "modular.modular.calls", "modular.norm.calls", "modular.norm_iters",
        "modular.modular_per_norm", "phi_core.evaluate_nodes.calls", "phi_core.spec_builds",
        "degiorgi.truncation_energy.calls", "degiorgi.entry_condition.calls",
        "degiorgi.empirical_iteration.calls", "degiorgi.candidates",
        "embedding_lab.scale_function.calls", "embedding_lab.embedding_sides.calls",
        "embedding_lab.exponent_scan.calls", "io.read.calls", "io.bytes_read", "cli.self_s",
        "modular.self_s", "phi_core.self_s", "degiorgi.self_s", "embedding_lab.self_s",
    ),
}

# No subcommand of the CLI calls phi_inverse, so no workload can reach it.
UNREACHABLE = ("phi_core.phi_inverse.calls",)


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: _run(w, 1) for w in workloads.WORKLOADS}


def _check_shape(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_end_to_end_metrics_emitted_with_units():
    result = _run("norm-analysis", 0)
    _check_shape(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_emitted_with_units(traced):
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.metric_units()
    for result in traced.values():
        _check_shape(result, SPEC["per_layer"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrappers_count_on_their_workload(traced, workload):
    metrics = traced[workload]["metrics"]
    assert [k for k in EXERCISED[workload] if not metrics[k]["value"] > 0] == []
    assert all(metrics[k]["value"] == 0 for k in UNREACHABLE)


def test_bypass_predictions(traced):
    def counts(workload, layer):
        return {k: m["value"] for k, m in traced[workload]["metrics"].items()
                if k.startswith(layer + ".") and m["unit"] == "count"}

    for workload in ("conjugate-sweep", "norm-analysis"):
        assert set(counts(workload, "solver").values()) == {0}
    for workload in ("lattice-solve", "norm-analysis"):
        assert set(counts(workload, "conjugate").values()) == {0}


def test_reject_path_jobs_expect_exit_2(tmp_path):
    jobs = {j["name"]: j for j in workloads.generate("conjugate-sweep", SEED, tmp_path)}
    for name in ("x-malformed-json", "x-nan-p", "x-shape-mismatch"):
        assert jobs[name]["expect"] == workloads.EXIT_INPUT_ERROR


def test_same_seed_gives_identical_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a, b, c = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b", tmp_path / f"{workload}-c"
        jobs = workloads.generate(workload, SEED, a)
        assert workloads.generate(workload, SEED, b) == jobs
        workloads.generate(workload, SEED + 1, c)
        names = sorted(p.name for p in (a / "in").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a / "in", b / "in", names, shallow=False)
        assert mismatch == [] and errors == [] and len(match) == len(names)
        _, changed, _ = filecmp.cmpfiles(a / "in", c / "in", names, shallow=False)
        assert changed


def test_host_slowdown_cancels_out():
    def records(slow_cycles):
        out = []
        for cycle in range(3):
            factor = 1.6 if cycle in slow_cycles else 1.0
            for name, latency in (("a", 0.2), ("b", 1.0), ("c", 0.05)):
                out.append({"name": name, "cycle": cycle, "latency": latency * factor,
                            "probe_s": 0.006 * factor})
        return out

    # Two slow cycles of three move every raw median; the converted ones stay.
    steady = run.job_latencies(records(()))
    assert run.job_latencies(records((1, 2))) == pytest.approx(steady)
    assert steady == pytest.approx({"a": 0.2 * 0.005 / 0.006, "b": 1.0 * 0.005 / 0.006,
                                    "c": 0.05 * 0.005 / 0.006})
