"""Exponent fields and the parametric family of generalized Phi-functions.

A double-phase problem is described by a spatial dimension ``N`` and three
nodewise data fields: the lower exponent ``p``, the upper exponent ``q`` and a
nonnegative weight ``mu``.  From these every Phi-function used by the toolkit
is derived:

* the double-phase function  ``t^p(x) + mu(x) t^q(x)``,
* its normalized variant (linear below t=1),
* the interior/trace critical functions built from the Sobolev critical
  exponents ``N r / (N - r)`` and ``(N-1) r / (N - r)``, which
  ``sobolev_critical`` alone computes,
* subcritical two-exponent families, and
* a free-weight family ``t^r + mu^alpha t^s`` used in optimality experiments.

Fields are stored as numpy arrays over an arbitrary common node shape; scalars
describe spatially constant data.  This module only defines and evaluates
Phi-functions: the root finder behind every norm, ``_unit_root``, lives in
``modular``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "ExponentField",
    "PhiSpec",
    "ValidationReport",
    "validate_hypotheses",
    "eval_phi",
    "sobolev_critical",
]


def _as_field_array(value, shape):
    arr = np.asarray(value, dtype=float)
    if arr.shape == ():
        return np.broadcast_to(arr, shape).copy() if shape else arr
    if shape and arr.shape != shape:
        raise DomainError(f"field shape {arr.shape} != node shape {shape}")
    return arr


def sobolev_critical(N, r, trace=False):
    """The Sobolev critical exponent N r / (N - r) of ``r``, or with ``trace``
    its trace exponent (N - 1) r / (N - r); arrays broadcast."""
    return (N - 1 if trace else N) * r / (N - r)


# The largest spatial dimension: far above any a run uses, and small enough
# that N r / (N - r) and the other powers of N stay finite doubles.
_MAX_DIMENSION = 2**24


@dataclass(frozen=True)
class ExponentField:
    """The (p, q, mu, N) data defining a double-phase structure on a node set.

    ``p``, ``q`` and ``mu`` may be scalars (spatially constant) or arrays over
    a common node shape.  ``spacing`` optionally records the mesh widths of the
    underlying lattice so that Lipschitz difference quotients can be checked.
    ``lipschitz_bound`` is a declared Lipschitz constant for p, q and mu; it is
    recorded and validated but never consumed by any formula.
    """

    N: int
    p: np.ndarray
    q: np.ndarray
    mu: np.ndarray
    lipschitz_bound: float | None = None
    spacing: tuple | None = None

    def __post_init__(self):
        if not 2 <= self.N <= _MAX_DIMENSION:
            raise DomainError(f"spatial dimension must be from 2 to {_MAX_DIMENSION}, got {self.N:.6g}")
        arrays = {k: np.asarray(getattr(self, k), dtype=float) for k in ("p", "q", "mu")}
        shapes = [a.shape for a in arrays.values() if a.shape]
        shape = shapes[0] if shapes else ()
        if any(s != shape for s in shapes):
            raise DomainError(f"p/q/mu shapes disagree: {shapes}")
        for k, a in arrays.items():
            object.__setattr__(self, k, _as_field_array(a, shape))
        # An infinite mu stays: validate_hypotheses reports it as "mu bounded".
        if not (np.all(np.isfinite(self.p)) and np.all(np.isfinite(self.q))) or np.any(np.isnan(self.mu)):
            raise DomainError("p and q must be finite and mu must not be NaN")
        if self.spacing is not None:
            object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))

    @property
    def shape(self):
        return self.p.shape

    @property
    def q_minus(self) -> float:
        """The smallest q over the nodes, the discrete inf of q."""
        return float(np.min(self.q))

    def at(self, x):
        """Pointwise (p, q, mu) at node index ``x`` (ignored for constant fields)."""
        if self.shape == () or x is None:
            return float(self.p), float(self.q), float(self.mu)
        return float(self.p[x]), float(self.q[x]), float(self.mu[x])

    def critical(self, which: str = "p") -> np.ndarray:
        """Nodewise critical exponent array: Nr/(N-r) for r = p or q."""
        return self._critical(which, trace=False)

    def critical_trace(self, which: str = "p") -> np.ndarray:
        """Nodewise trace critical exponent array: (N-1)r/(N-r) for r = p or q."""
        return self._critical(which, trace=True)

    def _critical(self, which, trace):
        r = self.p if which == "p" else self.q
        if np.any(r >= self.N):
            raise DomainError(f"{which}(x) >= N={self.N} somewhere: critical exponent undefined")
        return sobolev_critical(self.N, r, trace)


# ---------------------------------------------------------------------------
# Hypothesis validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    level: str
    passed: bool
    violations: list  # (node index, condition name) pairs

    def conditions(self):
        return sorted({name for _, name in self.violations})


def _violating_nodes(mask):
    return [tuple(int(i) for i in idx) if idx.size > 1 else int(idx[0]) if idx.size else ()
            for idx in np.argwhere(np.asarray(mask))]


_LEVELS = ("H1", "H2", "H3")


def validate_hypotheses(field: ExponentField, level: str = "H3") -> ValidationReport:
    """Check the nodewise structural hypotheses at level H1, H2 or H3.

    H1: 1 < p(x) < N and p(x) < q(x), mu(x) >= 0.
    H2: additionally q(x) < Np(x)/(N-p(x)) and mu bounded.
    H3: additionally q(x) < N and max_x q(x)/p(x) < 1 + 1/N; when both a
    lipschitz_bound and a lattice spacing are attached, difference quotients of
    p, q and mu are checked against the declared bound.
    """
    if level not in _LEVELS:
        raise DomainError(f"unknown hypothesis level {level!r}")
    p, q, mu, N = field.p, field.q, field.mu, field.N
    checks = [
        (p <= 1.0, "1 < p(x)"),
        (p >= N, "p(x) < N"),
        (p >= q, "p(x) < q(x)"),
        (mu < 0.0, "mu(x) >= 0"),
    ]
    if level in ("H2", "H3"):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p_star = np.where(p < N, sobolev_critical(N, p), np.inf)
        checks.append((q >= p_star, "q(x) < p*(x)"))
        checks.append((~np.isfinite(mu), "mu bounded"))
    if level == "H3":
        checks.append((q >= N, "q(x) < N"))
        checks.append((q / p >= 1.0 + 1.0 / N, "(q/p)^+ < 1 + 1/N"))

    # A constant field's 0-d mask, when set, gives the one node ().
    violations = [(node, name) for mask, name in checks
                  for node in _violating_nodes(np.broadcast_to(mask, field.shape))]

    if level == "H3" and field.lipschitz_bound is not None and field.spacing is not None:
        violations.extend(_lipschitz_violations(field))

    return ValidationReport(level=level, passed=not violations, violations=violations)


def _lipschitz_violations(field: ExponentField):
    """Difference quotients of p, q, mu against the declared Lipschitz bound."""
    out = []
    if field.shape == ():
        return out
    bound = field.lipschitz_bound * (1.0 + 1e-12)
    for name, arr in (("p", field.p), ("q", field.q), ("mu", field.mu)):
        for axis, h in enumerate(field.spacing):
            quot = np.abs(np.diff(arr, axis=axis)) / h
            bad = quot > bound
            for node in _violating_nodes(bad):
                out.append((node, f"Lipschitz({name})"))
    return out


# ---------------------------------------------------------------------------
# PhiSpec: the parametric Phi-function family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiSpec:
    """A tagged selection of one generalized Phi-function over an ExponentField.

    Every kind except the normalized one evaluates as
    ``t^lo(x) + weight(x) * t^hi(x)`` with kind-specific exponent and weight
    arrays; the normalized kind is linear below t=1.  The weight must be
    finite: an infinite one makes ``weight * 0^hi`` NaN, so Phi(0) = 0 fails.
    """

    kind: str
    base: ExponentField
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.weight)):
            cause = "mu is unbounded" if np.any(np.isinf(self.base.mu)) else "it overflows the double range"
            raise DomainError(f"the {self.kind} Phi-function needs a finite weight, but {cause}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def double_phase(cls, base: ExponentField) -> "PhiSpec":
        """t^p(x) + mu(x) t^q(x)."""
        return cls("double_phase", base, base.p, base.q, base.mu)

    @classmethod
    def double_phase_normalized(cls, base: ExponentField) -> "PhiSpec":
        """Linear below t=1 (t times the value at 1), double-phase above."""
        return cls("double_phase_normalized", base, base.p, base.q, base.mu)

    @classmethod
    def critical(cls, base: ExponentField) -> "PhiSpec":
        """t^{p*(x)} + mu(x)^{q*(x)/q(x)} t^{q*(x)} with interior critical exponents."""
        lo = base.critical("p")
        hi = base.critical("q")
        return cls("critical", base, lo, hi, _upper_weight(base, hi))

    @classmethod
    def critical_trace(cls, base: ExponentField) -> "PhiSpec":
        """Trace analogue built from the boundary critical exponents."""
        lo = base.critical_trace("p")
        hi = base.critical_trace("q")
        return cls("critical_trace", base, lo, hi, _upper_weight(base, hi))

    @classmethod
    def subcritical(cls, base: ExponentField, r, s, mode: str = "subcritical") -> "PhiSpec":
        """t^r(x) + mu(x)^{s(x)/q(x)} t^s(x); r, s capped by the interior critical pair."""
        r = _as_field_array(r, base.shape)
        s = _as_field_array(s, base.shape)
        _check_subcritical_window(base, r, s, base.critical("p"), base.critical("q"), mode)
        return cls("subcritical", base, r, s, _upper_weight(base, s))

    @classmethod
    def subcritical_trace(cls, base: ExponentField, l, h, mode: str = "subcritical") -> "PhiSpec":
        """t^l(x) + mu(x)^{h(x)/q(x)} t^h(x); l, h capped by the trace critical pair."""
        l = _as_field_array(l, base.shape)
        h = _as_field_array(h, base.shape)
        _check_subcritical_window(base, l, h, base.critical_trace("p"), base.critical_trace("q"), mode)
        return cls("subcritical_trace", base, l, h, _upper_weight(base, h))

    @classmethod
    def weighted(cls, base: ExponentField, r, s, alpha) -> "PhiSpec":
        """Free-weight family t^r + mu^alpha t^s used in optimality scans."""
        r = _as_field_array(r, base.shape)
        s = _as_field_array(s, base.shape)
        alpha = _as_field_array(alpha, base.shape)
        if not (np.all(r > 0) and np.all(s > 0) and np.all(alpha > 0)):
            raise DomainError("weighted family needs positive r, s, alpha")
        return cls("weighted", base, r, s, _mu_power(base.mu, alpha))

    # -- evaluation ----------------------------------------------------------

    def exponent_bounds(self):
        """(min, max) exponent over all nodes; the normalized kind is linear near 0."""
        if self.kind == "double_phase_normalized":
            return 1.0, float(np.max(self.hi))
        lo = float(min(np.min(self.lo), np.min(self.hi)))
        hi = float(max(np.max(self.lo), np.max(self.hi)))
        return lo, hi

    def evaluate_nodes(self, t: np.ndarray, where=None) -> np.ndarray:
        """Vectorized evaluation with one t value per node (shapes must broadcast).
        With a boolean node mask ``where`` of the node shape only the masked nodes
        are evaluated and the others read +0.0; t >= 0 is checked at every node."""
        return _phi(self.kind, t, self.lo, self.hi, self.weight, where)


def _mu_power(mu, expo):
    # 0^0 := 0 here: a vanishing weight kills the upper-phase term entirely.
    mu = np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(mu > 0.0, np.power(np.maximum(mu, 1e-300), expo), 0.0)
    return out


def _upper_weight(base, expo):
    """mu(x)^{expo(x)/q(x)}, the weight of an upper phase rescaled from q to ``expo``."""
    if not np.all(base.q > 0.0):
        raise DomainError(f"the weight mu^(s/q) needs exponents q > 0, got a smallest q of {base.q_minus:g}")
    return _mu_power(base.mu, expo / base.q)


def _phi(kind, t, lo, hi, w, where=None):
    """The one Phi formula: ``t^lo + w t^hi``, linear below t=1 for the
    normalized kind, whose (lo, hi, w) are (p, q, mu).  A node mask ``where``
    restricts it to t[where], with lo, hi and w indexed alike, and scatters."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise DomainError("Phi-functions are defined for t >= 0 only")
    if where is not None:
        out = np.zeros(t.shape)
        out[where] = _phi(kind, t[where], *(a if np.ndim(a) == 0 else a[where] for a in (lo, hi, w)))
        return out
    with np.errstate(invalid="ignore", over="ignore"):
        first = np.where(t > 0.0, np.power(t, lo), 0.0)
        second = np.where(t > 0.0, np.power(t, hi), 0.0)
        out = first + w * second
    if kind == "double_phase_normalized":
        return np.where(t <= 1.0, t * (1.0 + w), out)
    return out


def _check_subcritical_window(base, lo, hi, cap_lo, cap_hi, mode):
    if mode == "subcritical":
        ok = np.all(base.p < lo) and np.all(lo < cap_lo) and np.all(base.q < hi) and np.all(hi < cap_hi)
        if not ok:
            raise DomainError("subcritical mode needs p < r < p-critical and q < s < q-critical nodewise")
    elif mode == "critical":
        if not (np.all(lo <= cap_lo) and np.all(hi <= cap_hi)):
            raise DomainError("critical mode needs r <= p-critical and s <= q-critical nodewise")
    else:
        raise DomainError(f"unknown subcritical mode {mode!r}")


def eval_phi(spec: PhiSpec, x, t):
    """Evaluate the selected Phi-function at node ``x`` and argument ``t >= 0``.

    ``t`` may be a scalar or an array; the node data are taken at ``x``
    (``None`` selects the single node of a constant field).
    """
    node = () if x is None or np.shape(spec.lo) == () else x
    out = _phi(spec.kind, t, spec.lo[node], spec.hi[node], spec.weight[node])
    return float(out) if out.ndim == 0 else out
