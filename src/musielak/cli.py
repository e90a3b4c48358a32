"""Command-line entry point: one subcommand per toolkit area, file I/O only.

A run is its input file: ``musielak COMMAND --input FILE --output DIR`` takes
no other option, so the same file always gives the same outputs.  Each
subcommand reads these payload keys (default in brackets, none means required):

- validate: field, grid [none], level ["H3"]
- norm: field, grid, function, norm ["luxemburg"; or "sobolev", "boundary"],
  kind ["double_phase"] with its exponents r, s, l, h, alpha and mode
  ["subcritical"]; the modular is solved to 1e-10
- conjugate-table: field, grid [none], nodes [required when the field
  varies; not empty], t_values [not empty], normalized [false]; slacks pass
  at -1e-10
- embed-scan: field, grid, r, s, alpha, function [a bump of radius ``radius``
  (1)], lambdas [1, 2, 4, 8, 16: at least 4, each >= 1, spanning a decade],
  weight_mode ["unit"]; passes when every fit has residual <= 0.05 and a slope
  within max(0.02, 2 % of the prediction) of the predicted one
- recursion: K, b, mu1, mu2, Z0, n_max [200]
- solve: field, grid, source [0], bc ["dirichlet-zero"], flux [none], grad_tol
  [1e-10], max_iter [200, at most 10000]; a solve fails (exit 1) unless the
  energy gradient on the free nodes reaches grad_tol in the max-norm
- bound-check: field, grid, function, regime ["subcritical-D"], r, s, l, h
  [none], constants [the BoundConstants defaults], kappa_grid [16 geometric
  levels up to max |u| + 1; not empty]; each candidate runs for at most 60
  levels, and a level has decayed when its energy is at most 1e-12

Each input has one spelling.  The lattice is the payload's grid: a field has
none of its own, and a function's own grid, inline or in a file, must be the
payload's.  A key that its subcommand, or its grid, field or grid-function
object, does not read is an input error, and so is a key that the run would
ignore: norm "sobolev" with kind, r, s, l, h, alpha or mode; norm's kind with
an exponent r, s, l, h or alpha that it does not take, or with mode unless it
is "subcritical" or "subcritical_trace"; embed-scan's function with radius;
flux with bc "dirichlet-zero"; bound-check's l and h with a regime other than
"subcritical-N".  norm, solve and bound-check need a bounded mu in the field.
A function, source or flux is a number (a constant), a grid-function object,
or the path of a file: a CSV as solve writes it, or a JSON grid-function
object; an error about a file names the key and the file.  Counts such as
n_max and max_iter are whole numbers, so 200.0 reads as 200.

Exit codes: 0 on success, 1 when a requested check fails, 2 on input errors.
All outputs land under the directory given by --output; a JSON output is
standard JSON, with null for a quantity that is not finite.

``run(command, input_path, output_dir)`` is a run without the argument
parser.  It loads the payload once, checks its keys and hands it to the
subcommand's handler, ``handler(payload) -> (outputs, passed)``, where
``outputs`` maps a file name to a JSON object, a ``GridFunction`` or the
text chunks of a CSV file, with the bytes csv.writer would write for its
rows.  A handler writes nothing: ``run`` writes the outputs only after the
handler returns, and maps ``passed`` to exit 0 or 1.  An input error is a
``DomainError``, a ``ValueError`` from outside the toolkit, or the
``KeyError`` of a missing payload key.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import asdict, fields
from io import StringIO
from pathlib import Path

import numpy as np

from . import degiorgi, embedding_lab, io, solver
from .conjugate import verify_conjugate_bounds
from .errors import ConvergenceError, DomainError
from .modular import GridFunction, boundary_norm, luxemburg_norm, modular_rho, sobolev_norm
from .phi_core import PhiSpec, eval_phi, validate_hypotheses

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _field_and_domain(payload, need_domain=False):
    """The payload's field, and its lattice: the payload's ``grid``."""
    if "field" not in payload:
        raise DomainError("payload needs a 'field' entry")
    domain = io.grid_from_json(payload["grid"]) if "grid" in payload else None
    if need_domain and domain is None:
        raise DomainError("payload needs a 'grid' entry")
    return io.field_from_json(payload["field"], domain), domain


def _grid_function(obj, domain, what: str) -> GridFunction:
    """The payload entry ``what`` on the payload's lattice: a number (not a
    bool) as a constant, a grid-function object, or the path of a CSV or JSON
    file holding one."""
    if isinstance(obj, str):
        try:
            return io.load_function(obj, domain)
        except DomainError as exc:
            raise DomainError(f"'{what}': {exc}" if obj in str(exc) else f"'{what}': {obj}: {exc}") from None
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return GridFunction.constant(domain, float(obj))
    if isinstance(obj, dict):
        return io.function_from_json(obj, domain)
    raise DomainError(f"'{what}' must be a number, a grid function or a file path, got {obj!r:.40}")


# PhiSpec constructor name -> the payload keys of its exponents, in argument order.
_PHI_KINDS = {"double_phase": (), "double_phase_normalized": (), "critical": (), "critical_trace": (),
              "subcritical": ("r", "s"), "subcritical_trace": ("l", "h"), "weighted": ("r", "s", "alpha")}


def _phi_spec(payload, field):
    kind = payload.get("kind", "double_phase")
    if not isinstance(kind, str) or kind not in _PHI_KINDS:
        raise DomainError(f"unknown Phi-function kind {kind!r:.40}")
    args = [_exponent(payload, k) for k in _PHI_KINDS[kind]]
    reads = _PHI_KINDS[kind] + (("mode",) if kind.startswith("subcritical") else ())
    _reject_ignored(payload, f"'kind' = '{kind}'", [k for k in ("r", "s", "l", "h", "alpha", "mode") if k not in reads])
    if "mode" in reads:
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
    try:
        arr = io.array_from_json(values, what)
    except DomainError:
        arr = None
    if arr is None or arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be a flat list of finite numbers")
    return arr


def _reject_ignored(payload, owner: str, keys) -> None:
    """An input error when the payload holds one of ``keys``, which ``owner`` makes the run ignore."""
    for key in keys:
        if key in payload:
            raise DomainError(f"{owner} cannot be combined with '{key}', which the run would ignore")


def _given(payload, *keys) -> dict:
    """The payload entries among ``keys``; the library defaults fill the rest."""
    return {k: payload[k] for k in keys if k in payload}


def _whole(payload, key: str) -> dict:
    """``_given`` for one whole number, such as 200 or 200.0, read as an int."""
    return {key: io.number_from_json(payload[key], key, integer=True)} if key in payload else {}


def _finite_or_none(value):
    """``value``, or None where it is not finite (standard JSON has no NaN or infinity)."""
    return value if np.isfinite(value) else None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(payload: dict) -> tuple[dict, bool]:
    field, _ = _field_and_domain(payload)
    report = validate_hypotheses(field, **_given(payload, "level"))
    out = {
        "level": report.level,
        "passed": report.passed,
        "violations": [{"node": list(np.atleast_1d(n).tolist()) if n != () else [],
                        "condition": c} for n, c in report.violations],
    }
    return {"report.json": out}, report.passed


def _cmd_norm(payload: dict) -> tuple[dict, bool]:
    field, domain = _field_and_domain(payload, need_domain=True)
    u = _grid_function(payload["function"], domain, "function")
    which = payload.get("norm", "luxemburg")
    if which == "sobolev":
        _reject_ignored(payload, "'norm' = 'sobolev'", ("kind", "r", "s", "l", "h", "alpha", "mode"))
        result = sobolev_norm(field, u)
    else:
        spec = _phi_spec(payload, field)
        if which not in ("luxemburg", "boundary"):
            raise DomainError(f"unknown norm type {which!r}")
        result = (luxemburg_norm if which == "luxemburg" else boundary_norm)(spec, u)
    out = asdict(result)
    if which == "luxemburg":
        out["modular_of_u"] = _finite_or_none(modular_rho(spec, u))
    return {"norm.json": out}, True


def _node_list(payload, field):
    """The node indices of a conjugate-table payload, checked against the field."""
    nodes = payload.get("nodes")
    if nodes is None:
        if field.shape:
            raise DomainError(f"field varies over nodes of shape {field.shape}: payload needs a 'nodes' list")
        return [None]
    if not isinstance(nodes, list) or not nodes:
        raise DomainError(f"'nodes' must be a nonempty list of node indices, got {nodes!r:.40}")
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


def _cmd_conjugate_table(payload: dict) -> tuple[dict, bool]:
    field, _ = _field_and_domain(payload)
    nodes = _node_list(payload, field)
    ts = _flat_numbers(payload["t_values"], "t values")
    if ts.size == 0:
        raise DomainError("'t_values' must hold at least one t value")
    io._require_size(ts.size * len(nodes), "the conjugate table size (t values x nodes)")
    normalized = payload.get("normalized", False)
    if not isinstance(normalized, bool):
        raise DomainError(f"'normalized' must be true or false, got {normalized!r:.40}")

    report = verify_conjugate_bounds(field, nodes, ts, normalized=normalized)
    crit_spec = PhiSpec.critical(field)
    critical = np.concatenate([eval_phi(crit_spec, x, ts) for x in nodes])
    slacks = [report.slacks[k] for k in ("power_p", "power_q", "critical_domination", "trace_domination")]
    header = ["x_index", "t", "conjugate", "critical_value",
              "slack_power_p", "slack_power_q", "slack_critical", "slack_trace"]
    blocks = _node_blocks(nodes, ts, np.column_stack([report.conjugate, critical, *slacks]))
    return {"conjugate_table.csv": itertools.chain([_csv_text([header])], blocks)}, report.all_pass


def _node_blocks(nodes, ts, table):
    """The CSV text of each node's rows, one ``%`` operation per node.  The
    x_index cell, as csv.writer renders it inside a row (None is an empty
    cell, a tuple a quoted one), and the t cells are rendered once; each
    float of the node's rows of ``table`` is written as its repr, as
    csv.writer writes a float."""
    rows = [f",{t!r}" + ",%r" * table.shape[1] + "\r\n" for t in ts.tolist()]
    for x, block in zip(nodes, np.split(table, len(nodes))):
        key = _csv_text([[x, ""]])[:-3]  # the cell without its "," and line end
        yield (key + key.join(rows)) % tuple(block.ravel().tolist())


def _csv_text(rows) -> str:
    """The text csv.writer writes for ``rows``."""
    buf = StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _cmd_embed_scan(payload: dict) -> tuple[dict, bool]:
    field, domain = _field_and_domain(payload, need_domain=True)
    if payload.get("function") is not None:
        _reject_ignored(payload, "'function'", ("radius",))
        u = _grid_function(payload["function"], domain, "function")
    else:
        u = embedding_lab.bump_function(domain, io.number_from_json(payload.get("radius", 1.0), "radius"))
    lambdas = _flat_numbers(payload.get("lambdas", [1.0, 2.0, 4.0, 8.0, 16.0]), "lambdas")
    r, s, alpha = (io.number_from_json(payload[k], k) for k in ("r", "s", "alpha"))
    fits = embedding_lab.exponent_scan(u, field, r, s, alpha, lambdas, payload.get("weight_mode", "unit"))
    names = sorted(fits)
    rows = [["lambda"] + names]
    rows += [[lam] + [fits[n].values[i] for n in names] for i, lam in enumerate(np.sort(lambdas))]
    rows += [["fitted_slope"] + [fits[n].slope for n in names],
             ["predicted_slope"] + [fits[n].predicted for n in names],
             ["residual"] + [fits[n].residual for n in names]]
    passed = all(fit.reliable and abs(fit.slope - fit.predicted) <= max(0.02, 0.02 * abs(fit.predicted))
                 for fit in fits.values())
    return {"embed_scan.csv": [_csv_text(rows)]}, passed


def _cmd_recursion(payload: dict) -> tuple[dict, bool]:
    K, b, mu1, mu2, z0 = (io.number_from_json(payload[k], k) for k in ("K", "b", "mu1", "mu2", "Z0"))
    params = degiorgi.RecursionParams(K=K, b=b, mu1=mu1, mu2=mu2)
    trace = degiorgi.iterate_recursion(z0, params, **_whole(payload, "n_max"))
    out = {
        "Z": trace.Z.tolist(),
        "n0": trace.n0,
        "thresholds": [_finite_or_none(t) for t in trace.thresholds],
        "envelope_ok": trace.envelope_ok,
        "diverged": trace.diverged,
    }
    seeded_below = z0 <= max(trace.thresholds)
    return {"recursion.json": out}, not (seeded_below and (trace.diverged or trace.envelope_ok is False))


def _cmd_solve(payload: dict) -> tuple[dict, bool]:
    field, domain = _field_and_domain(payload, need_domain=True)
    bc = payload.get("bc", "dirichlet-zero")
    if bc == "dirichlet-zero":
        _reject_ignored(payload, "'bc' = 'dirichlet-zero'", ("flux",))
    spec = solver.ProblemSpec(
        domain, field, _grid_function(payload.get("source", 0.0), domain, "source"), bc=bc,
        flux=None if payload.get("flux") is None else _grid_function(payload["flux"], domain, "flux"),
        **_given(payload, "grad_tol"), **_whole(payload, "max_iter"),
    )
    u, report = solver.solve(spec)
    # The gradient at the returned iterate is not finite when the diffusivity overflowed.
    residual = solver.weak_residual(spec, u) if np.isfinite(report.grad_norm) else None
    return {"solution.csv": u, "convergence.json": {
        "converged": report.converged,
        "iterations": report.iterations,
        "energy": _finite_or_none(report.energy),
        "grad_norm": _finite_or_none(report.grad_norm),
        "step_norm": _finite_or_none(report.step_norm),  # inf when no step was accepted
        "message": report.message,
        "factorizations": report.factorizations,
        "linear_iterations": report.linear_iterations,
        "weak_residual": residual,
    }}, report.converged


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


def _cmd_bound_check(payload: dict) -> tuple[dict, bool]:
    field, domain = _field_and_domain(payload, need_domain=True)
    u = _grid_function(payload["function"], domain, "function")
    constants = _bound_constants(payload.get("constants", {}))
    regime = payload.get("regime", "subcritical-D")
    if regime in ("subcritical-D", "critical-D", "critical-N"):
        _reject_ignored(payload, f"'regime' = '{regime}'", ("l", "h"))
    kw = {k: _exponent(payload, k) for k in ("r", "s", "l", "h") if k in payload}
    grid = payload.get("kappa_grid")
    if grid is None:
        top = float(np.max(np.abs(u.values))) + 1.0
        grid = np.geomspace(max(top / 64.0, 1e-6), top, 16)
    grid = _flat_numbers(grid, "kappa grid values")
    if grid.size == 0:
        raise DomainError("'kappa_grid' must hold at least one candidate level")
    report = degiorgi.two_sided_bound(u, field, regime, grid, **kw)

    psi_norm = None
    bound = None
    # two_sided_bound has raised DomainError if a regime's exponents are missing.
    if regime.startswith("subcritical"):
        spec = PhiSpec.subcritical(field, kw["r"], kw["s"])
        psi_norm = luxemburg_norm(spec, u).value
        upsilon = None
        if regime.endswith("-N"):
            upsilon = boundary_norm(PhiSpec.subcritical_trace(field, kw["l"], kw["h"]), u).value
        bound = _finite_or_none(degiorgi.bound_estimate(psi_norm, constants, regime, upsilon_norm=upsilon))
    out = {
        "regime": regime,
        "kappa_star": report.kappa_star,
        "esssup": report.esssup,
        "bound_2kappa_ok": report.bound_ok,
        "psi_norm": psi_norm,
        "bound_estimate": bound,
        "pass": bool(report.found and report.bound_ok),
    }
    return {"bound_check.json": out}, out["pass"]


# Each subcommand's handler and the payload keys it reads; any other key is an input error.
_COMMANDS = {
    "validate": (_cmd_validate, ("field", "grid", "level")),
    "norm": (_cmd_norm, ("field", "grid", "function", "norm", "kind", "r", "s", "l", "h", "alpha", "mode")),
    "conjugate-table": (_cmd_conjugate_table, ("field", "grid", "nodes", "t_values", "normalized")),
    "embed-scan": (_cmd_embed_scan,
                   ("field", "grid", "function", "radius", "lambdas", "r", "s", "alpha", "weight_mode")),
    "recursion": (_cmd_recursion, ("K", "b", "mu1", "mu2", "Z0", "n_max")),
    "solve": (_cmd_solve, ("field", "grid", "source", "bc", "flux", "grad_tol", "max_iter")),
    "bound-check": (_cmd_bound_check,
                    ("field", "grid", "function", "constants", "regime", "r", "s", "l", "h", "kappa_grid")),
}


def _write(outdir: Path, outputs: dict) -> None:
    """Write each output under ``outdir``: a JSON object as standard JSON, a
    grid function by ``io.function_to_csv``, anything else as CSV text
    chunks, verbatim.  Every JSON text is rendered first, so a NaN or
    infinity raises ValueError before any file is opened."""
    texts = {name: json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
             for name, obj in outputs.items() if isinstance(obj, dict)}
    for name, content in outputs.items():
        if name in texts:
            (outdir / name).write_text(texts[name], encoding="utf-8")
        elif isinstance(content, GridFunction):
            io.function_to_csv(content, outdir / name)
        else:
            with open(outdir / name, "w", newline="", encoding="utf-8") as fh:
                fh.writelines(content)


def run(command: str, input_path: Path, output_dir: Path) -> int:
    """Run one subcommand on the payload in ``input_path``, writing its
    outputs under ``output_dir``; returns the process exit status."""
    if command not in _COMMANDS:
        print(f"unknown subcommand: {command}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    handler, keys = _COMMANDS[command]
    try:
        try:
            output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file of that name, or no permission
            raise DomainError(f"cannot create the output directory {output_dir} ({exc.strerror})")
        payload = io.read_json(input_path, "input file")
        io._require_object(payload, f"{command} payload", keys)
        outputs, passed = handler(payload)
        _write(output_dir, outputs)
        return EXIT_OK if passed else EXIT_CHECK_FAILED
    except KeyError as exc:
        print(f"input error: missing key {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        # A DomainError, or a ValueError from outside the toolkit, is an input error.
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
    parser.add_argument("command", choices=_COMMANDS, metavar="COMMAND", help=", ".join(_COMMANDS))
    parser.add_argument("--input", type=Path, required=True, help="input JSON file")
    parser.add_argument("--output", type=Path, default=Path("musielak-out"),
                        help="output directory (created if missing)")
    args = parser.parse_args(argv)
    return run(args.command, args.input, args.output)


if __name__ == "__main__":
    sys.exit(main())
