"""Command-line entry point: one subcommand per toolkit area, file I/O only.

Exit codes: 0 on success, 1 when a requested check fails, 2 on input errors.
All outputs land under the directory given by --output.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import degiorgi, embedding_lab, io, solver
from .conjugate import tabulate_bounds
from .errors import ConvergenceError
from .modular import GridFunction, boundary_norm, luxemburg_norm, modular_rho, sobolev_norm
from .phi_core import PhiSpec, validate_hypotheses

__all__ = ["RunConfig", "run", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


@dataclass
class RunConfig:
    command: str
    input: Path
    output: Path
    tol: float = 1e-10
    seed: int = 0
    max_iter: int | None = None
    level: str = "H3"


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _InputError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


class _InputError(Exception):
    pass


def _field_and_domain(payload, need_domain=False):
    if "field" not in payload:
        raise _InputError("payload needs a 'field' entry")
    field, domain = io.field_from_json(payload["field"])
    if domain is None and "grid" in payload:
        domain = io.grid_from_json(payload["grid"])
        field, domain = io.field_from_json(payload["field"], domain)
    if need_domain and domain is None:
        raise _InputError("payload needs a 'grid' entry (or a field with one)")
    return field, domain


def _function_from_payload(payload, domain):
    obj = payload.get("function")
    if obj is None:
        raise _InputError("payload needs a 'function' entry")
    if isinstance(obj, str):
        return io.load_function(obj, domain)
    if isinstance(obj, (int, float)):
        return GridFunction.constant(domain, float(obj))
    return io.function_from_json(obj, domain)


def _phi_spec(payload, field):
    kind = payload.get("kind", "double_phase")
    if kind == "double_phase":
        return PhiSpec.double_phase(field)
    if kind == "double_phase_normalized":
        return PhiSpec.double_phase_normalized(field)
    if kind == "critical":
        return PhiSpec.critical(field)
    if kind == "critical_trace":
        return PhiSpec.critical_trace(field)
    if kind == "subcritical":
        return PhiSpec.subcritical(field, payload["r"], payload["s"], payload.get("mode", "subcritical"))
    if kind == "subcritical_trace":
        return PhiSpec.subcritical_trace(field, payload["l"], payload["h"], payload.get("mode", "subcritical"))
    if kind == "weighted":
        return PhiSpec.weighted(field, payload["r"], payload["s"], payload["alpha"])
    raise _InputError(f"unknown Phi-function kind {kind!r}")


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(cfg: RunConfig) -> int:
    payload = _load_json(cfg.input)
    field, _ = _field_and_domain(payload)
    report = validate_hypotheses(field, payload.get("level", cfg.level))
    out = {
        "level": report.level,
        "passed": report.passed,
        "violations": [{"node": list(np.atleast_1d(n).tolist()) if n != () else [],
                        "condition": c} for n, c in report.violations],
    }
    _write_json(cfg.output / "report.json", out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_norm(cfg: RunConfig) -> int:
    payload = _load_json(cfg.input)
    field, domain = _field_and_domain(payload, need_domain=True)
    u = _function_from_payload(payload, domain)
    which = payload.get("norm", "luxemburg")
    if which == "sobolev":
        result = sobolev_norm(field, u, tol=cfg.tol)
        modular = None
    else:
        spec = _phi_spec(payload, field)
        if which == "boundary":
            result = boundary_norm(spec, u, tol=cfg.tol)
            modular = None
        elif which == "luxemburg":
            result = luxemburg_norm(spec, u, tol=cfg.tol)
            modular = modular_rho(spec, u)
        else:
            raise _InputError(f"unknown norm type {which!r}")
    out = io.norm_result_to_json(result)
    if modular is not None:
        out["modular_of_u"] = modular
    _write_json(cfg.output / "norm.json", out)
    return EXIT_OK


def _node_list(payload, field):
    """The node indices of a conjugate-table payload, checked against the field."""
    nodes = payload.get("nodes")
    if nodes is None:
        if field.shape:
            raise _InputError(f"field varies over nodes of shape {field.shape}: payload needs a 'nodes' list")
        return [None]
    if not isinstance(nodes, list):
        raise _InputError(f"'nodes' must be a list of node indices, got {nodes!r}")
    out = []
    for node in nodes:
        index = tuple(node) if isinstance(node, list) else node
        parts = index if isinstance(index, tuple) else (index,)
        ok = all(isinstance(i, int) and not isinstance(i, bool) and i >= 0 for i in parts)
        if field.shape:
            ok = ok and len(parts) == len(field.shape) and all(i < n for i, n in zip(parts, field.shape))
        if not ok:
            raise _InputError(f"node {node!r} is not a node index of a field of shape {field.shape}")
        out.append(index)
    return out


def _cmd_conjugate_table(cfg: RunConfig) -> int:
    payload = _load_json(cfg.input)
    field, _ = _field_and_domain(payload)
    nodes = _node_list(payload, field)
    ts = payload.get("t_values")
    if ts is None:
        rng = np.random.default_rng(cfg.seed)
        ts = np.sort(rng.uniform(0.0, payload.get("t_max", 10.0), payload.get("n_samples", 32)))
    ts = np.asarray(ts, dtype=float)
    normalized = bool(payload.get("normalized", False))

    report = tabulate_bounds(field, nodes, ts, tol=cfg.tol, normalized=normalized)
    crit_spec = PhiSpec.critical(field)
    critical = [v for x in nodes for v in crit_spec(x, ts)]
    columns = [report.conjugate, critical] + [
        report.slacks[k] for k in ("power_p", "power_q", "critical_domination", "trace_domination")]
    rows = ([*sample, *values] for sample, *values in zip(report.samples, *columns))

    with open(cfg.output / "conjugate_table.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_index", "t", "conjugate", "critical_value",
                         "slack_power_p", "slack_power_q",
                         "slack_critical", "slack_trace"])
        writer.writerows(rows)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_embed_scan(cfg: RunConfig) -> int:
    payload = _load_json(cfg.input)
    field, domain = _field_and_domain(payload, need_domain=True)
    if payload.get("function") is not None:
        u = _function_from_payload(payload, domain)
    else:
        u = embedding_lab.bump_function(domain, payload.get("radius", 1.0))
    lambdas = payload.get("lambdas", [1.0, 2.0, 4.0, 8.0, 16.0])
    exp = embedding_lab.run_scaling_experiment(
        u, field,
        r=float(payload["r"]), s=float(payload["s"]), alpha=float(payload["alpha"]),
        lambdas=lambdas, weight_mode=payload.get("weight_mode", "unit"),
    )
    fits = embedding_lab.exponent_scan(exp)
    names = sorted(exp.quantities)
    ok = True
    with open(cfg.output / "embed_scan.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda"] + names)
        for i, lam in enumerate(exp.lambdas):
            writer.writerow([lam] + [exp.quantities[n][i] for n in names])
        writer.writerow(["fitted_slope"] + [fits[n].slope for n in names])
        writer.writerow(["predicted_slope"] + [fits[n].predicted for n in names])
        writer.writerow(["residual"] + [fits[n].residual for n in names])
    for n in names:
        fit = fits[n]
        tolerance = max(0.02, 0.02 * abs(fit.predicted))
        ok = ok and fit.reliable and abs(fit.slope - fit.predicted) <= tolerance
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_recursion(cfg: RunConfig) -> int:
    payload = _load_json(cfg.input)
    try:
        params = degiorgi.RecursionParams(
            K=float(payload["K"]), b=float(payload["b"]),
            mu1=float(payload["mu1"]), mu2=float(payload["mu2"]),
        )
        z0 = float(payload["Z0"])
    except KeyError as exc:
        raise _InputError(f"recursion payload missing {exc}")
    n_max = int(payload.get("n_max", cfg.max_iter or 200))
    trace = degiorgi.iterate_recursion(z0, params, n_max)
    out = {
        "Z": trace.Z.tolist(),
        "n0": trace.n0,
        "thresholds": list(trace.thresholds),
        "envelope_ok": trace.envelope_ok,
        "diverged": trace.diverged,
    }
    _write_json(cfg.output / "recursion.json", out)
    seeded_below = z0 <= max(trace.thresholds)
    if seeded_below and (trace.diverged or trace.envelope_ok is False):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_solve(cfg: RunConfig) -> int:
    payload = _load_json(cfg.input)
    field, domain = _field_and_domain(payload, need_domain=True)
    f = _function_from_payload(payload, domain) if "function" in payload else None
    if f is None:
        src = payload.get("source", 0.0)
        f = (io.function_from_json(src, domain) if isinstance(src, dict)
             else GridFunction.constant(domain, float(src)))
    flux = None
    if payload.get("flux") is not None:
        fx = payload["flux"]
        flux = (GridFunction.constant(domain, float(fx)) if isinstance(fx, (int, float))
                else io.function_from_json(fx, domain))
    spec = solver.ProblemSpec(
        domain, field, f,
        bc=payload.get("bc", "dirichlet-zero"),
        flux=flux,
        grad_tol=float(payload.get("grad_tol", cfg.tol)),
        max_iter=int(payload.get("max_iter", cfg.max_iter or 200)),
    )
    u, report = solver.solve(spec)
    io.function_to_csv(u, cfg.output / "solution.csv")
    _write_json(cfg.output / "convergence.json", {
        "converged": report.converged,
        "iterations": report.iterations,
        "energy": report.energy,
        "grad_norm": report.grad_norm,
        "step_norm": report.step_norm,
        "message": report.message,
        "weak_residual": solver.weak_residual(spec, u),
    })
    return EXIT_OK if report.converged else EXIT_CHECK_FAILED


def _cmd_bound_check(cfg: RunConfig) -> int:
    payload = _load_json(cfg.input)
    field, domain = _field_and_domain(payload, need_domain=True)
    u = _function_from_payload(payload, domain)
    regime = payload.get("regime", "subcritical-D")
    kw = {k: payload[k] for k in ("r", "s", "l", "h") if k in payload}
    grid = payload.get("kappa_grid")
    if grid is None:
        top = float(np.max(np.abs(u.values))) + 1.0
        grid = np.geomspace(max(top / 64.0, 1e-6), top, 16).tolist()
    report = degiorgi.two_sided_bound(u, field, regime, grid, **kw)

    constants = degiorgi.BoundConstants(**payload.get("constants", {}))
    psi_norm = None
    bound = None
    if regime.startswith("subcritical") and "r" in kw and "s" in kw:
        spec = PhiSpec.subcritical(field, kw["r"], kw["s"])
        psi_norm = luxemburg_norm(spec, u).value
        upsilon = None
        if regime.endswith("-N") and "l" in kw and "h" in kw:
            upsilon = boundary_norm(PhiSpec.subcritical_trace(field, kw["l"], kw["h"]), u).value
        bound = degiorgi.bound_estimate(psi_norm, constants, regime, upsilon_norm=upsilon)
    out = {
        "regime": regime,
        "kappa_star": report.kappa_star,
        "esssup": report.esssup,
        "bound_2kappa_ok": report.bound_ok,
        "psi_norm": psi_norm,
        "bound_estimate": bound,
        "pass": bool(report.found and report.bound_ok),
    }
    _write_json(cfg.output / "bound_check.json", out)
    return EXIT_OK if out["pass"] else EXIT_CHECK_FAILED


_COMMANDS = {
    "validate": _cmd_validate,
    "norm": _cmd_norm,
    "conjugate-table": _cmd_conjugate_table,
    "embed-scan": _cmd_embed_scan,
    "recursion": _cmd_recursion,
    "solve": _cmd_solve,
    "bound-check": _cmd_bound_check,
}


def run(config: RunConfig) -> int:
    """Dispatch one subcommand; returns the process exit status."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        print(f"unknown subcommand: {config.command}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    config.output.mkdir(parents=True, exist_ok=True)
    try:
        return handler(config)
    except (_InputError, KeyError, ValueError) as exc:
        # ValueError covers every toolkit error about the input: DomainError,
        # GridMismatchError, HypothesisError, SingularityError, ContractError.
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="musielak",
        description="Double-phase Musielak-Orlicz toolkit: norms, conjugates, "
                    "embedding scans, truncation iteration and a desk-scale solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--input", type=Path, required=True, help="input JSON file")
        sp.add_argument("--output", type=Path, default=Path("musielak-out"),
                        help="output directory (created if missing)")
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--max-iter", type=int, default=None)
        sp.add_argument("--level", type=str, default="H3", choices=("H1", "H2", "H3"))
    args = parser.parse_args(argv)
    cfg = RunConfig(
        command=args.command, input=args.input, output=args.output,
        tol=args.tol, seed=args.seed, max_iter=args.max_iter, level=args.level,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
