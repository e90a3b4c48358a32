"""Seeded inputs for the three benchmark workloads.

A workload is one cycle of jobs.  A job is one call of the ``musielak`` CLI
with its own input file, output directory, expected exit code and output
check.  The worker repeats the cycle, so the cycle fixes the job mix.  The
seed changes data values only (exponents, weights, sources, profiles, t
samples), never the job list, so runs with different seeds do the same kind
and amount of work.  Every path written into an input file is relative to the
work directory, so one seed gives byte-identical inputs wherever they land.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

WORKLOADS = ("lattice-solve", "conjugate-sweep", "norm-analysis")

# Exit codes documented by the CLI.
EXIT_OK = 0
EXIT_INPUT_ERROR = 2

N_DIM = 3  # the exponent fields' N; critical exponents need q < N


def _grid(shape, lengths=None, origin=None):
    lengths = lengths or [1.0] * len(shape)
    origin = origin or [0.0] * len(shape)
    return {"shape": list(shape), "lengths": list(lengths), "origin": list(origin)}


def _near(rng, nominal, half_width):
    """A seeded value within half_width of nominal.

    Narrow draws around fixed nominal data keep the cost of each job
    (iterations, bisection steps, truncation levels) nearly the same from
    seed to seed, so runs with different seeds measure the same work.
    """
    return nominal + float(rng.uniform(-half_width, half_width))


def _coords(grid):
    axes = [o + np.linspace(0.0, L, n) for n, L, o in zip(grid["shape"], grid["lengths"], grid["origin"])]
    return np.meshgrid(*axes, indexing="ij")


class _Writer:
    """Writes input files under ``root/in`` and collects the job list."""

    def __init__(self, root: Path):
        self.root = root
        (root / "in").mkdir(parents=True, exist_ok=True)
        self.jobs = []

    def file(self, name, obj=None, text=None):
        rel = f"in/{name}"
        with open(self.root / rel, "w", encoding="utf-8") as fh:
            fh.write(text if text is not None else json.dumps(obj, sort_keys=True))
        return rel

    def job(self, name, command, payload=None, text=None, expect=EXIT_OK, check=None):
        rel = self.file(f"{name}.json", payload, text)
        self.jobs.append({
            "name": name,
            "command": command,
            "input": rel,
            "output": f"out/{name}",
            "expect": expect,
            "check": check or {"kind": "exit"},
        })


# ---------------------------------------------------------------------------
# lattice-solve
# ---------------------------------------------------------------------------

# (name, shape, exponent regime, boundary condition, variable data, load).
# The loads make max |u| of order one: the bound check compares sup |u| with
# twice a truncation level, and tiny solutions decay below its energy
# tolerance before the level reaches the supremum.
_SOLVES = (
    ("s65-dir-const-plow", (65, 65), "low", "dirichlet-zero", False, 8.0),
    ("s65-dir-var-phigh", (65, 65), "high", "dirichlet-zero", True, 10.0),
    ("s65-neu-var-plow", (65, 65), "low", "neumann", True, 6.0),
    ("s65-dir-p2q2", (65, 65), "quadratic", "dirichlet-zero", False, 25.0),
    ("s129-dir-var-plow", (129, 129), "low", "dirichlet-zero", True, 8.0),
    ("s129-dir-const-phigh", (129, 129), "high", "dirichlet-zero", False, 10.0),
    ("s17c-dir-const-phigh", (17, 17, 17), "high", "dirichlet-zero", False, 10.0),
)

GRAD_TOL = 1e-8


def _solve_field(rng, grid, regime, variable):
    mu0 = _near(rng, 1.0, 0.05)
    if regime == "quadratic":
        return 2.0, 2.0, mu0
    p0, gap = (1.5, 0.75) if regime == "low" else (2.2, 0.3)
    p0 = _near(rng, p0, 0.02)
    q0 = _near(rng, p0 + gap, 0.03)
    if not variable:
        return p0, q0, mu0
    x = _coords(grid)
    ph = rng.uniform(-0.1, 0.1, 3)
    p = p0 + 0.08 * np.sin(np.pi * x[0] + ph[0])
    q = q0 + 0.08 * np.cos(np.pi * x[-1] + ph[1])
    mu = mu0 * (1.0 + 0.5 * np.sin(2.0 * np.pi * x[0] * x[-1] + ph[2]))
    return p, q, mu


def _window(lo, cap, frac=0.5):
    """A constant exponent strictly between max(lo) and min(cap)."""
    return float(np.max(lo) + frac * (np.min(cap) - np.max(lo)))


def _as_list(a):
    return a.tolist() if isinstance(a, np.ndarray) else a


def lattice_solve(rng, w: _Writer):
    for name, shape, regime, bc, variable, load in _SOLVES:
        grid = _grid(shape)
        p, q, mu = _solve_field(rng, grid, regime, variable)
        field = {"N": N_DIM, "p": _as_list(p), "q": _as_list(q), "mu": _as_list(mu)}
        payload = {"grid": grid, "field": field, "bc": bc, "grad_tol": GRAD_TOL}
        amp = _near(rng, load, 0.03 * load)
        if bc == "neumann":
            # cos(pi x) is odd about the box centre and the quadrature weights
            # are symmetric, so the load integrates to zero: compatible data.
            x = _coords(grid)
            payload["source"] = {"values": (amp * np.cos(np.pi * x[0])).tolist()}
            payload["flux"] = 0.0
        else:
            payload["source"] = amp
        check = {"kind": "solve", "grad_tol": GRAD_TOL}
        if regime == "quadratic":
            check["iterations"] = 2
        w.job(name, "solve", payload, check=check)

        pa, qa = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        bound = {"grid": grid, "field": field, "function": f"out/{name}/solution.csv",
                 "r": _window(pa, N_DIM * pa / (N_DIM - pa)),
                 "s": _window(qa, N_DIM * qa / (N_DIM - qa))}
        if bc == "neumann":
            bound["regime"] = "subcritical-N"
            bound["l"] = _window(pa, (N_DIM - 1) * pa / (N_DIM - pa))
            bound["h"] = _window(qa, (N_DIM - 1) * qa / (N_DIM - qa))
        else:
            bound["regime"] = "subcritical-D"
        w.job(f"b-{name}", "bound-check", bound, check={"kind": "bound"})


# ---------------------------------------------------------------------------
# conjugate-sweep
# ---------------------------------------------------------------------------

# (name, nodes, normalized) of the conjugate-table jobs in one cycle.
# Few enough nodes that a run times every table several times, enough tables
# that the cheap jobs stay a minority of the cycle.
_TABLES = (
    ("c16-raw", 16, False), ("c16-norm", 16, True), ("c32-raw", 32, False),
    ("c16-raw-b", 16, False), ("c16-norm-b", 16, True), ("c64-norm", 64, True),
)
N_T = 64


def _node_field(rng, n, q_ratio):
    """Nodes spread evenly over p in (1.3, 1.8), q/p in ``q_ratio`` and mu in
    (0, 2), each jittered by the seed; every fourth node has mu = 0, whose
    rows have the closed form (t/p*)^{p*}."""
    u = (np.arange(n) + 0.5) / n
    lo, hi = q_ratio
    p = 1.3 + 0.5 * u + rng.uniform(-0.01, 0.01, n)
    q = p * (lo + (hi - lo) * np.modf(u * n * 0.618034)[0] + rng.uniform(-0.005, 0.005, n))
    mu = np.abs(2.0 * np.modf(u * n * 0.414214)[0] + rng.uniform(-0.02, 0.02, n))
    mu[::4] = 0.0
    return {"N": N_DIM, "p": p.tolist(), "q": np.minimum(q, 2.8).tolist(), "mu": mu.tolist()}


def conjugate_sweep(rng, w: _Writer):
    tables = []
    for name, n, normalized in _TABLES:
        field = _node_field(rng, n, (1.1, 1.4))
        ts = 10.0 * (np.arange(N_T) + 0.5) / N_T + rng.uniform(-0.05, 0.05, N_T)
        payload = {"field": field, "nodes": list(range(n)), "t_values": ts.tolist(),
                   "normalized": normalized}
        tables.append((name, payload))

    validate = {"field": _node_field(rng, 64, (1.05, 1.3)), "level": "H3"}
    # These ranges keep the collapse threshold above 4e-3, so Z0 = 1e-3 decays.
    mu1 = _near(rng, 0.5, 0.05)
    recursion = {"K": _near(rng, 1.0, 0.1), "b": _near(rng, 2.0, 0.1),
                 "mu1": mu1, "mu2": _near(rng, mu1 + 0.2, 0.05), "Z0": 1e-3}
    bad_field = _node_field(rng, 16, (1.1, 1.4))
    nan_field = dict(bad_field, p=float("nan"))  # serialized as the token NaN
    shape_field = dict(bad_field, q=bad_field["q"][:-1])
    rejects = [
        ("x-malformed-json", "validate",
         json.dumps({"field": bad_field}, sort_keys=True)[:-40]),
        ("x-nan-p", "validate", json.dumps({"field": nan_field}, sort_keys=True)),
        ("x-shape-mismatch", "conjugate-table",
         json.dumps({"field": shape_field, "nodes": [0, 1], "t_values": [1.0]}, sort_keys=True)),
    ]

    def table(i):
        name, payload = tables[i]
        check = {"kind": "conjugate", "nodes": len(payload["nodes"]), "t": N_T,
                 "closed_form": not payload["normalized"]}
        w.job(name, "conjugate-table", payload, check=check)

    # The cheap jobs stay a minority of the cycle, between the tables.
    table(0)
    table(1)
    w.job("v-validate", "validate", validate, check={"kind": "validate"})
    table(2)
    table(3)
    w.job("r-recursion", "recursion", recursion, check={"kind": "recursion"})
    table(4)
    for name, command, text in rejects:
        w.job(name, command, text=text, expect=EXIT_INPUT_ERROR)
    table(5)


# ---------------------------------------------------------------------------
# norm-analysis
# ---------------------------------------------------------------------------

_NORMS = (
    ("lux-dp", {"norm": "luxemburg", "kind": "double_phase"}),
    ("lux-crit", {"norm": "luxemburg", "kind": "critical"}),
    ("lux-norm", {"norm": "luxemburg", "kind": "double_phase_normalized"}),
    ("lux-sub", {"norm": "luxemburg", "kind": "subcritical"}),
    ("lux-weighted", {"norm": "luxemburg", "kind": "weighted"}),
    ("sobolev", {"norm": "sobolev"}),
    ("boundary-trace", {"norm": "boundary", "kind": "critical_trace"}),
)
_SQUARE = {"lengths": [2.0, 2.0], "origin": [-1.0, -1.0]}


def _profile(rng, grid):
    x, y = _coords(grid)
    a, b, ph = _near(rng, 3.0, 0.1), _near(rng, 1.2, 0.05), _near(rng, 0.5, 0.05)
    return np.exp(-a * (x * x + y * y)) * np.cos(b * x + ph) + _near(rng, 0.3, 0.01)


def _square_field(rng, grid):
    x, y = _coords(grid)
    p = _near(rng, 1.5, 0.02) + 0.1 * np.sin(x + _near(rng, 0.0, 0.1))
    q = p * _near(rng, 1.2, 0.01)
    mu = _near(rng, 1.0, 0.05) * (1.0 + 0.5 * np.cos(y))
    return {"N": N_DIM, "p": p.tolist(), "q": q.tolist(), "mu": mu.tolist()}, p, q


def norm_analysis(rng, w: _Writer):
    for n in (129, 257):
        grid = _grid((n, n), **_SQUARE)
        ufile = w.file(f"u{n}.json", {"grid": grid, "values": _profile(rng, grid).tolist()})
        field, p, q = _square_field(rng, grid)
        r = _window(p, N_DIM * p / (N_DIM - p))
        s = _window(q, N_DIM * q / (N_DIM - q))
        for tag, spec in _NORMS:
            if n == 129 and spec.get("kind") == "weighted":
                continue  # the weighted Phi runs on the 257² grid only
            payload = dict(spec, grid=grid, field=field, function=ufile)
            if spec.get("kind") in ("subcritical", "weighted"):
                payload.update(r=r, s=s)
            if spec.get("kind") == "weighted":
                payload["alpha"] = _near(rng, 1.25, 0.05)
            w.job(f"n{n}-{tag}", "norm", payload, check={"kind": "norm", "tol": 1e-10})
        if n == 129:
            # Two subcritical windows and the critical Neumann regime, the
            # costliest jobs of the cycle.
            low = {"r": _window(p, N_DIM * p / (N_DIM - p), 0.25),
                   "s": _window(q, N_DIM * q / (N_DIM - q), 0.25)}
            for tag, regime, window in (("subcritical-D", "subcritical-D", {"r": r, "s": s}),
                                        ("subcritical-D-low", "subcritical-D", low),
                                        ("critical-N", "critical-N", {"r": r, "s": s})):
                payload = dict(window, grid=grid, field=field, function=ufile, regime=regime)
                w.job(f"b{n}-{tag}", "bound-check", payload, check={"kind": "bound"})
        else:
            for mode in ("unit", "radial"):
                p0 = _near(rng, 1.5, 0.02)
                payload = {"grid": grid, "weight_mode": mode,
                           "field": {"N": 2, "p": p0, "q": p0 * _near(rng, 1.2, 0.01), "mu": 1.0},
                           "r": _near(rng, 2.0, 0.05), "s": _near(rng, 2.45, 0.05),
                           "alpha": _near(rng, 1.0, 0.05),
                           "lambdas": [1.0, 2.0, 4.0, 8.0, 12.0]}
                w.job(f"e{n}-{mode}", "embed-scan", payload, check={"kind": "embed"})


_GENERATORS = {
    "lattice-solve": lattice_solve,
    "conjugate-sweep": conjugate_sweep,
    "norm-analysis": norm_analysis,
}


def generate(workload: str, seed: int, root: Path) -> list:
    """Write the inputs of one workload cycle under ``root``; return its jobs."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    w = _Writer(Path(root))
    _GENERATORS[workload](rng, w)
    return w.jobs
