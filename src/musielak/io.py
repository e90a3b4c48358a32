"""JSON/CSV reading of grids, exponent fields and grid functions; CSV writing of grid functions."""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DomainError
from .modular import GridDomain, GridFunction
from .phi_core import ExponentField

__all__ = [
    "grid_from_json",
    "field_from_json",
    "function_from_json",
    "function_to_csv",
    "function_from_csv",
    "number_from_json",
    "array_from_json",
    "load_function",
    "read_json",
]


# The most nodes a decoded grid may have, and the most entries of a
# conjugate table: 2**24 doubles are 128 MiB per array.  Checked before any
# array of that size is built.
_MAX_NODES = 2**24


def _require_size(count: float, what: str) -> None:
    """Raise DomainError when ``count`` exceeds ``_MAX_NODES``."""
    if count > _MAX_NODES:
        raise DomainError(f"{what} is {count:.0f}, more than the {_MAX_NODES} allowed")


def _require_object(obj, what: str, keys) -> None:
    """Raise DomainError unless ``obj`` is a JSON object whose keys are among ``keys``."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object, got {obj!r:.40}")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise DomainError(f"unknown {what} keys {unknown}; the {what} keys are {sorted(keys)}")


def number_from_json(value, what: str, integer: bool = False):
    """A finite JSON number (not a bool) as a float; with ``integer``, a
    whole number (such as 3 or 3.0) as an int."""
    if (isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max
            or integer and not float(value).is_integer()):
        raise DomainError(f"'{what}' must be a finite {'integer' if integer else 'number'}, got {value!r:.40}")
    return int(value) if integer else float(value)


def _holds_bool(value) -> bool:
    """Whether a number or regular nested lists hold a bool, by one set of types per innermost list."""
    if isinstance(value, list) and value and isinstance(value[0], list):
        return any(map(_holds_bool, value))
    return bool in set(map(type, value)) if isinstance(value, list) else isinstance(value, bool)


def array_from_json(value, what: str) -> np.ndarray:
    """A JSON number or nested lists of numbers as one float array; null
    reads as NaN, which the callers reject where it is not allowed.  A bool,
    bare or nested in a list, is not a number; it reads as 0 or 1, so only an
    array holding one of these is scanned for it."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or np.any((arr == 0.0) | (arr == 1.0)) and _holds_bool(value):
        raise DomainError(f"'{what}' must be a number or nested lists of numbers, got {value!r:.40}")
    return arr


def _numbers(value, what: str, integer: bool = False) -> tuple:
    if not isinstance(value, list):
        raise DomainError(f"'{what}' must be a list of numbers, got {value!r:.40}")
    return tuple(number_from_json(v, what, integer) for v in value)


def grid_from_json(obj: dict) -> GridDomain:
    _require_object(obj, "grid", ("shape", "spacing", "lengths", "origin"))
    if "shape" not in obj:
        raise DomainError("grid needs a 'shape' entry")
    shape = _numbers(obj["shape"], "shape", integer=True)
    _require_size(math.prod(map(float, shape)), f"the node count of a grid of shape {list(shape)!r:.40}")
    origin = _numbers(obj.get("origin", [0.0] * len(shape)), "origin")
    if "spacing" in obj:
        return GridDomain(shape, _numbers(obj["spacing"], "spacing"), origin)
    return GridDomain.box(shape, _numbers(obj.get("lengths", [1.0] * len(shape)), "lengths"), origin)


def field_from_json(obj: dict, domain: GridDomain | None = None) -> ExponentField:
    """The exponent field; with a domain, p, q and mu are broadcast over its lattice."""
    _require_object(obj, "field", ("N", "p", "q", "mu", "lipschitz_bound"))
    N = number_from_json(obj["N"], "N", integer=True)
    p, q, mu = (array_from_json(obj[k], k) for k in ("p", "q", "mu"))
    kw = {}
    if obj.get("lipschitz_bound") is not None:
        kw["lipschitz_bound"] = number_from_json(obj["lipschitz_bound"], "lipschitz_bound")
    if domain is None:
        return ExponentField(N, p, q, mu, **kw)
    return domain.constant_field(N, p, q, mu, **kw)


def function_from_json(obj: dict, domain: GridDomain | None = None) -> GridFunction:
    """The grid function ``{"grid": ..., "values": ...}``.  Its own ``grid``,
    when it has one, must be ``domain`` when both are given."""
    _require_object(obj, "function", ("grid", "values"))
    if domain is None or "grid" in obj:
        own = grid_from_json(obj["grid"])
        if domain is not None and own != domain:
            raise DomainError(f"the function's lattice {own} is not the payload's {domain}")
        domain = own
    values = array_from_json(obj["values"], "values")
    if values.shape not in (domain.shape, (int(np.prod(domain.shape)),)):
        raise DomainError(f"function values of shape {values.shape} on a grid of shape {domain.shape}: "
                          "give the grid's shape or a flat list of all node values")
    return GridFunction(domain, values.reshape(domain.shape))


def function_to_csv(u: GridFunction, path) -> None:
    """Plot-ready CSV: one row per node with coordinate columns then the value,
    each as ``"%.18e"`` (np.savetxt's bytes).  Each axis's coordinates are
    formatted once, and the values in one ``%`` operation."""
    dom = u.domain
    header = [
        "# shape=" + ",".join(str(n) for n in dom.shape),
        "# spacing=" + ",".join(repr(h) for h in dom.spacing),
        "# origin=" + ",".join(repr(o) for o in dom.origin),
        ",".join(f"x{i}" for i in range(dom.dim)) + ",value",
    ]
    axes = [["%.18e," % c for c in axis.tolist()] for axis in dom.axes]
    template = "".join(map("".join, itertools.product(*axes, ["%.18e\n"])))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n")
        fh.write(template % tuple(u.values.ravel().tolist()))


def read_json(path, what: str):
    """The JSON value in the file ``path``; ``what`` names the file in the
    error when it is missing or not readable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, or no permission
        raise DomainError(f"{what} not found or not readable: {path} ({exc.strerror})")
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def function_from_csv(path) -> GridFunction:
    """Read the layout ``function_to_csv`` writes: ``# key=value`` metadata lines,
    an optional column header, then one row per node with the value last."""
    meta = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    key, _, val = line.lstrip("# ").partition("=")
                    meta[key.strip()] = val.strip()
                elif line.strip():
                    break
            if "shape" not in meta:
                raise DomainError("missing '# shape=...' metadata line")
            if not meta.get("spacing"):
                raise DomainError("missing '# spacing=...' metadata line")
            if line.lstrip()[:1].isalpha() or line.lstrip().startswith('"'):  # a column header
                line = next((row for row in fh if row.strip() and not row.startswith("#")), "")
            if not line.strip() or line.startswith("#"):
                raise DomainError("no data rows")
            values = np.loadtxt(itertools.chain([line], fh), delimiter=",", ndmin=2)[:, -1]
        shape = tuple(int(n) for n in meta["shape"].split(","))
        spacing = tuple(float(h) for h in meta["spacing"].split(","))
        origin = tuple(float(o) for o in meta["origin"].split(",")) if meta.get("origin") else (0.0,) * len(shape)
        return GridFunction(GridDomain(shape, spacing, origin), values.reshape(shape))
    except OSError as exc:  # missing, a directory, or no permission
        raise DomainError(f"function file not found or not readable: {path} ({exc.strerror})")
    except ValueError as exc:  # the toolkit's, numpy's or int()'s complaint about the text
        raise DomainError(f"{path}: {exc}")


def load_function(path, domain: GridDomain | None = None) -> GridFunction:
    """The grid function in a CSV or JSON file.  The file's own lattice (the
    CSV metadata, or a JSON ``grid``) must be ``domain`` when both are given."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        u = function_from_csv(path)
    else:
        u = function_from_json(read_json(path, "function file"), domain)
    if domain is not None and u.domain != domain:
        raise DomainError(f"{path}: the function's lattice {u.domain} is not the payload's {domain}")
    return u
