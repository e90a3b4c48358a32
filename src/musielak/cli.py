"""Command-line entry point: one subcommand per toolkit area, file I/O only.

A run is its input file: ``musielak COMMAND --input FILE --output DIR`` takes
no other option, so the same file always gives the same outputs.  Each
subcommand reads these payload keys (default in brackets, none means required):

- validate: field, grid [none], level ["H3"]
- norm: field, grid or a field with one, function, norm ["luxemburg"; or
  "sobolev", "boundary"], kind ["double_phase"] with its exponents r, s, l, h,
  alpha and mode ["subcritical"]; the modular is solved to 1e-10
- conjugate-table: field, nodes [required when the field varies], t_values
  [n_samples (32) uniform draws on [0, t_max (10)] from seed 0, sorted],
  normalized [false]; slacks pass at -1e-10
- embed-scan: field, grid, r, s, alpha, function [a bump of radius ``radius``
  (1)], lambdas [1, 2, 4, 8, 16: at least 4, spanning a decade], weight_mode
  ["unit"]
- recursion: K, b, mu1, mu2, Z0, n_max [200]
- solve: field, grid, function or source [0], bc ["dirichlet-zero"], flux
  [none], grad_tol [1e-10], max_iter [200]; a solve fails (exit 1) unless
  the energy gradient on the free nodes reaches grad_tol in the max-norm
- bound-check: field, grid, function, regime ["subcritical-D"], r, s, l, h
  [none], constants [the BoundConstants defaults], kappa_grid [16 geometric
  levels up to max |u| + 1]

Exit codes: 0 on success, 1 when a requested check fails, 2 on input errors.
All outputs land under the directory given by --output; a JSON output is
standard JSON, with null for a quantity that is not finite.

``run(command, input_path, output_dir)`` is a run without the argument
parser.  It loads the payload once and hands it to the subcommand's handler,
``handler(payload, output_dir) -> exit code``.  An input error is a
``ValueError`` (a ``DomainError`` where this module raises it) or the
``KeyError`` of a missing payload key.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import degiorgi, embedding_lab, io, solver
from .conjugate import tabulate_bounds
from .errors import ConvergenceError, DomainError
from .modular import GridFunction, boundary_norm, luxemburg_norm, modular_rho, sobolev_norm
from .phi_core import PhiSpec, validate_hypotheses

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _load_json(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise DomainError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(payload, dict):
        raise DomainError(f"{path}: the payload must be a JSON object")
    return payload


def _field_and_domain(payload, need_domain=False):
    """The payload's field, and its lattice: the field's own ``grid`` when it
    has one, else the payload's."""
    if "field" not in payload:
        raise DomainError("payload needs a 'field' entry")
    domain = io.grid_from_json(payload["grid"]) if "grid" in payload else None
    field, domain = io.field_from_json(payload["field"], domain)
    if need_domain and domain is None:
        raise DomainError("payload needs a 'grid' entry (or a field with one)")
    return field, domain


def _function_from_payload(payload, domain):
    obj = payload.get("function")
    if obj is None:
        raise DomainError("payload needs a 'function' entry")
    if isinstance(obj, str):
        try:
            return io.load_function(obj, domain)
        except FileNotFoundError:
            raise DomainError(f"function file not found: {obj}")
    return _grid_data(obj, domain, "function")


def _grid_data(obj, domain, what: str) -> GridFunction:
    """A number (not a bool) as a constant function, or a grid-function object."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return GridFunction.constant(domain, float(obj))
    if isinstance(obj, dict):
        return io.function_from_json(obj, domain)
    raise DomainError(f"'{what}' must be a number or a grid function, got {obj!r:.40}")


# PhiSpec constructor name -> the payload keys of its exponents, in argument order.
_PHI_KINDS = {"double_phase": (), "double_phase_normalized": (), "critical": (), "critical_trace": (),
              "subcritical": ("r", "s"), "subcritical_trace": ("l", "h"), "weighted": ("r", "s", "alpha")}


def _phi_spec(payload, field):
    kind = payload.get("kind", "double_phase")
    if not isinstance(kind, str) or kind not in _PHI_KINDS:
        raise DomainError(f"unknown Phi-function kind {kind!r:.40}")
    args = [_exponent(payload, k) for k in _PHI_KINDS[kind]]
    if kind.startswith("subcritical"):
        args.append(payload.get("mode", "subcritical"))
    return getattr(PhiSpec, kind)(field, *args)


def _exponent(payload, key: str) -> np.ndarray:
    """A finite number, or nested lists of finite numbers, as one float array."""
    arr = io.array_from_json(payload[key], key)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise DomainError(f"'{key}' must be a finite number or nested lists of them, got {payload[key]!r:.40}")
    return arr


def _flat_numbers(values, what: str) -> np.ndarray:
    """A flat list of finite numbers, not bools (as io.number_from_json), as a float array."""
    arr = io.array_from_json(values, what)
    if (arr.ndim != 1 or not np.all(np.isfinite(arr))
            or isinstance(values, list) and any(isinstance(v, bool) for v in values)):
        raise DomainError(f"{what} must be a flat list of finite numbers")
    return arr


def _given(payload, *keys) -> dict:
    """The payload entries among ``keys``; the library defaults fill the rest."""
    return {k: payload[k] for k in keys if k in payload}


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as standard JSON; a NaN or infinity raises ValueError
    before the file is opened, so no partial file is left."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _finite_or_none(value):
    """``value``, or None where it is not finite (standard JSON has no NaN or infinity)."""
    return value if np.isfinite(value) else None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(payload: dict, outdir: Path) -> int:
    field, _ = _field_and_domain(payload)
    report = validate_hypotheses(field, **_given(payload, "level"))
    out = {
        "level": report.level,
        "passed": report.passed,
        "violations": [{"node": list(np.atleast_1d(n).tolist()) if n != () else [],
                        "condition": c} for n, c in report.violations],
    }
    _write_json(outdir / "report.json", out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_norm(payload: dict, outdir: Path) -> int:
    field, domain = _field_and_domain(payload, need_domain=True)
    u = _function_from_payload(payload, domain)
    which = payload.get("norm", "luxemburg")
    if which == "sobolev":
        result = sobolev_norm(field, u)
        modular = None
    else:
        spec = _phi_spec(payload, field)
        if which == "boundary":
            result = boundary_norm(spec, u)
            modular = None
        elif which == "luxemburg":
            result = luxemburg_norm(spec, u)
            modular = modular_rho(spec, u)
        else:
            raise DomainError(f"unknown norm type {which!r}")
    out = io.norm_result_to_json(result)
    if modular is not None:
        out["modular_of_u"] = modular
    _write_json(outdir / "norm.json", out)
    return EXIT_OK


def _node_list(payload, field):
    """The node indices of a conjugate-table payload, checked against the field."""
    nodes = payload.get("nodes")
    if nodes is None:
        if field.shape:
            raise DomainError(f"field varies over nodes of shape {field.shape}: payload needs a 'nodes' list")
        return [None]
    if not isinstance(nodes, list):
        raise DomainError(f"'nodes' must be a list of node indices, got {nodes!r}")
    out = []
    for node in nodes:
        index = tuple(node) if isinstance(node, list) else node
        parts = index if isinstance(index, tuple) else (index,)
        ok = all(isinstance(i, int) and not isinstance(i, bool) and i >= 0 for i in parts)
        if field.shape:
            ok = ok and len(parts) == len(field.shape) and all(i < n for i, n in zip(parts, field.shape))
        if not ok:
            raise DomainError(f"node {node!r} is not a node index of a field of shape {field.shape}")
        out.append(index)
    return out


def _cmd_conjugate_table(payload: dict, outdir: Path) -> int:
    field, _ = _field_and_domain(payload)
    nodes = _node_list(payload, field)
    ts = payload.get("t_values")
    if ts is None:
        rng = np.random.default_rng(0)
        t_max = io.number_from_json(payload.get("t_max", 10.0), "t_max")
        n_samples = io.number_from_json(payload.get("n_samples", 32), "n_samples", integer=True)
        io._require_size(n_samples * len(nodes), "the conjugate table size (n_samples x nodes)")
        ts = np.sort(rng.uniform(0.0, t_max, n_samples))
    ts = _flat_numbers(ts, "t values")
    io._require_size(ts.size * len(nodes), "the conjugate table size (t values x nodes)")
    normalized = payload.get("normalized", False)
    if not isinstance(normalized, bool):
        raise DomainError(f"'normalized' must be true or false, got {normalized!r:.40}")

    report = tabulate_bounds(field, nodes, ts, normalized=normalized)
    crit_spec = PhiSpec.critical(field)
    # Python floats: csv.writer formats them with the same bytes as np.float64, faster.
    critical = [v for x in nodes for v in crit_spec(x, ts).tolist()]
    columns = [report.conjugate.tolist(), critical] + [
        report.slacks[k].tolist() for k in ("power_p", "power_q", "critical_domination",
                                            "trace_domination")]
    rows = ([*sample, *values] for sample, *values in zip(report.samples, *columns))

    with open(outdir / "conjugate_table.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_index", "t", "conjugate", "critical_value",
                         "slack_power_p", "slack_power_q",
                         "slack_critical", "slack_trace"])
        writer.writerows(rows)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_embed_scan(payload: dict, outdir: Path) -> int:
    field, domain = _field_and_domain(payload, need_domain=True)
    if payload.get("function") is not None:
        u = _function_from_payload(payload, domain)
    else:
        u = embedding_lab.bump_function(domain, io.number_from_json(payload.get("radius", 1.0), "radius"))
    lambdas = _flat_numbers(payload.get("lambdas", [1.0, 2.0, 4.0, 8.0, 16.0]), "lambdas")
    embedding_lab._require_ladder(lambdas)
    r, s, alpha = (io.number_from_json(payload[k], k) for k in ("r", "s", "alpha"))
    exp = embedding_lab.run_scaling_experiment(
        u, field, r=r, s=s, alpha=alpha, lambdas=lambdas, weight_mode=payload.get("weight_mode", "unit"),
    )
    fits = embedding_lab.exponent_scan(exp)
    names = sorted(exp.quantities)
    ok = True
    with open(outdir / "embed_scan.csv", "w", newline="", encoding="utf-8") as fh:
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


def _cmd_recursion(payload: dict, outdir: Path) -> int:
    try:
        K, b, mu1, mu2, z0 = (io.number_from_json(payload[k], k) for k in ("K", "b", "mu1", "mu2", "Z0"))
    except KeyError as exc:
        raise DomainError(f"recursion payload missing {exc}")
    params = degiorgi.RecursionParams(K=K, b=b, mu1=mu1, mu2=mu2)
    trace = degiorgi.iterate_recursion(z0, params, **_given(payload, "n_max"))
    out = {
        "Z": trace.Z.tolist(),
        "n0": trace.n0,
        "thresholds": [_finite_or_none(t) for t in trace.thresholds],
        "envelope_ok": trace.envelope_ok,
        "diverged": trace.diverged,
    }
    _write_json(outdir / "recursion.json", out)
    seeded_below = z0 <= max(trace.thresholds)
    if seeded_below and (trace.diverged or trace.envelope_ok is False):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_solve(payload: dict, outdir: Path) -> int:
    field, domain = _field_and_domain(payload, need_domain=True)
    f = (_function_from_payload(payload, domain) if "function" in payload
         else _grid_data(payload.get("source", 0.0), domain, "source"))
    spec = solver.ProblemSpec(
        domain, field, f,
        bc=payload.get("bc", "dirichlet-zero"),
        flux=None if payload.get("flux") is None else _grid_data(payload["flux"], domain, "flux"),
        **_given(payload, "grad_tol", "max_iter"),
    )
    u, report = solver.solve(spec)
    # The gradient at the returned iterate is not finite when the diffusivity overflowed.
    residual = solver.weak_residual(spec, u) if np.isfinite(report.grad_norm) else None
    io.function_to_csv(u, outdir / "solution.csv")
    _write_json(outdir / "convergence.json", {
        "converged": report.converged,
        "iterations": report.iterations,
        "energy": _finite_or_none(report.energy),
        "grad_norm": _finite_or_none(report.grad_norm),
        "step_norm": _finite_or_none(report.step_norm),  # inf when no step was accepted
        "message": report.message,
        "factorizations": report.factorizations,
        "linear_iterations": report.linear_iterations,
        "weak_residual": residual,
    })
    return EXIT_OK if report.converged else EXIT_CHECK_FAILED


def _bound_constants(obj) -> degiorgi.BoundConstants:
    """The ``constants`` object of a bound-check payload: known names, each
    with a finite number (a constant left out keeps its default)."""
    if not isinstance(obj, dict):
        raise DomainError(f"'constants' must be a JSON object, got {obj!r:.40}")
    names = sorted(f.name for f in fields(degiorgi.BoundConstants))
    unknown = sorted(set(obj) - set(names))
    if unknown:
        raise DomainError(f"unknown constants {unknown}; the constants are {names}")
    return degiorgi.BoundConstants(**{k: io.number_from_json(v, k) for k, v in obj.items()})


def _cmd_bound_check(payload: dict, outdir: Path) -> int:
    field, domain = _field_and_domain(payload, need_domain=True)
    u = _function_from_payload(payload, domain)
    constants = _bound_constants(payload.get("constants", {}))
    regime = payload.get("regime", "subcritical-D")
    kw = {k: _exponent(payload, k) for k in ("r", "s", "l", "h") if k in payload}
    grid = payload.get("kappa_grid")
    if grid is None:
        top = float(np.max(np.abs(u.values))) + 1.0
        grid = np.geomspace(max(top / 64.0, 1e-6), top, 16)
    grid = _flat_numbers(grid, "kappa grid values")
    report = degiorgi.two_sided_bound(u, field, regime, grid, **kw)

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
    _write_json(outdir / "bound_check.json", out)
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


def run(command: str, input_path: Path, output_dir: Path) -> int:
    """Run one subcommand on the payload in ``input_path``, writing under
    ``output_dir``; returns the process exit status."""
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"unknown subcommand: {command}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    output_dir.mkdir(parents=True, exist_ok=True)
    try:
        return handler(_load_json(input_path), output_dir)
    except (KeyError, ValueError) as exc:
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
    args = parser.parse_args(argv)
    return run(args.command, args.input, args.output)


if __name__ == "__main__":
    sys.exit(main())
