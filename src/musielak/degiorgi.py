"""Level-set truncation iteration for sup-norm bounds.

The driver is a geometric-recursion fact: a nonnegative sequence obeying
``Z_{n+1} <= K b^n (Z_n^{1+mu1} + Z_n^{1+mu2})`` collapses to zero once the
seed is below an explicit threshold, with an explicit decay envelope.  The
truncation energies realize that sequence for grid functions: levels
``kappa_n = kappa_* (2 - 2^-n)`` rise toward ``2 kappa_*``, the level sets
``{u > kappa_n}`` shrink, and the energies integrate kind-specific
Phi-functions of ``(u - kappa_n)_+`` over them (plus boundary terms in the
Neumann regimes and gradient terms in the critical regimes).  Only the
truncation depends on the level: the Phi-functions and the gradient term are
built once per function, reused at every level and shared by u and -u in the
two-sided bound, and each level evaluates its Phi-functions on the nodes of
``{u > kappa_n}`` only.  The energies do not increase with n: the excess
``(u - kappa_n)_+`` and the level set shrink, and every Phi-function and the
gradient term are nonnegative and nondecreasing.  So a candidate whose last
level has not decayed is settled by that one evaluation.  When the sequence
dies, twice the starting level bounds the function from above.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError
from .modular import GridDomain, GridFunction
from .phi_core import ExponentField, PhiSpec

__all__ = [
    "RecursionParams",
    "RecursionTrace",
    "IterationEnergy",
    "BoundConstants",
    "LevelSet",
    "IterationReport",
    "recursion_thresholds",
    "iterate_recursion",
    "level_set",
    "kappa_sequence",
    "truncation_energy",
    "entry_condition",
    "kappa_star_dirichlet",
    "kappa_star_admissible",
    "bound_estimate",
    "empirical_iteration",
    "two_sided_bound",
]

REGIMES = ("subcritical-D", "subcritical-N", "critical-D", "critical-N")

_SENTINEL = 1e150  # recursion values beyond this count as divergence
# Most recursion steps one run may take: a cap far past any collapse the
# thresholds certify, so an input cannot ask for minutes of work.
_N_MAX_CAP = 100_000
# The levels empirical_iteration walks per candidate, and the energy at or
# below which a level has decayed.
_N_LEVELS = 60
_DECAY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Geometric recursion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecursionParams:
    K: float
    b: float
    mu1: float
    mu2: float

    def __post_init__(self):
        if not (self.K > 0 and self.b > 1 and 0 < self.mu1 <= self.mu2):
            raise DomainError("need K > 0, b > 1 and 0 < mu1 <= mu2")


def _log_thetas(params: RecursionParams):
    """The logs of theta1 = (2K)^(-1/mu1) b^(-1/mu1^2) and
    theta2 = (2K)^(-1/mu2) b^(-1/(mu1 mu2) - (mu2 - mu1)/mu2^2), so that an
    extreme parameter under- or overflows a threshold instead of raising."""
    K, b, m1, m2 = params.K, params.b, params.mu1, params.mu2
    log_2k, log_b = np.log(2.0 * K), np.log(b)
    return -(log_2k + log_b / m1) / m1, -(log_2k + log_b * (1.0 / m1 + 1.0 - m1 / m2)) / m2


def recursion_thresholds(params: RecursionParams):
    """The two admissible seed bounds guaranteeing collapse of the recursion."""
    with np.errstate(over="ignore"):
        theta1, theta2 = (float(v) for v in np.exp(_log_thetas(params)))
    return min(1.0, theta1), min(theta1, theta2)


@dataclass
class RecursionTrace:
    params: RecursionParams
    Z: np.ndarray
    n0: int | None
    thresholds: tuple
    envelope_ok: bool | None
    diverged: bool

    def envelope(self, n):
        """min(1, theta1 b^(-n/mu1)), the decay envelope from level n0 on."""
        b, m1 = self.params.b, self.params.mu1
        with np.errstate(over="ignore"):
            return np.minimum(1.0, np.exp(_log_thetas(self.params)[0] - np.asarray(n, dtype=float) * np.log(b) / m1))


def iterate_recursion(Z0: float, params: RecursionParams, n_max: int = 200) -> RecursionTrace:
    """Run the worst-case recursion with equality and audit the collapse claim.

    ``n_max`` is a positive integer up to ``_N_MAX_CAP``.

    ``n0`` is the first index with Z_n <= 1.  When the seed satisfies one of
    the two thresholds, the decay envelope is checked for every n >= n0.
    Divergence, an overflowing step included, is capped at a sentinel and
    flagged, never raised.
    """
    if not Z0 >= 0:
        raise DomainError("seed must be nonnegative")
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)) or not 1 <= n_max <= _N_MAX_CAP:
        raise DomainError(f"n_max must be an integer from 1 to {_N_MAX_CAP}, got {n_max!r:.40}")
    # numpy scalars overflow to inf where Python floats raise OverflowError
    K, b, m1, m2 = (np.float64(v) for v in (params.K, params.b, params.mu1, params.mu2))
    zs = [float(Z0)]
    diverged = False
    z = np.float64(Z0)
    for n in range(n_max):
        with np.errstate(over="ignore"):
            # a zero stays zero, also where b^n overflows
            z = K * b**n * (z ** (1.0 + m1) + z ** (1.0 + m2)) if z > 0 else z
        if not np.isfinite(z) or z > _SENTINEL:
            diverged = True
            zs.append(_SENTINEL)
            break
        zs.append(z)
    Z = np.array(zs)

    below = np.nonzero(Z <= 1.0)[0]
    n0 = int(below[0]) if below.size else None

    T1, T2 = recursion_thresholds(params)
    trace = RecursionTrace(params, Z, n0, (T1, T2), None, diverged)
    if Z0 <= max(T1, T2) * (1.0 + 1e-12) and n0 is not None:
        env = trace.envelope(np.arange(n0, len(Z)))
        trace.envelope_ok = bool(np.all(Z[n0:] <= env * (1.0 + 1e-9)))
    return trace


# ---------------------------------------------------------------------------
# Level sets and truncation energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelSet:
    interior_mask: np.ndarray
    measure: float
    boundary_mask: np.ndarray
    boundary_measure: float


def level_set(u: GridFunction, kappa: float) -> LevelSet:
    """Strict super-level set {u > kappa}, split into interior and boundary parts."""
    dom = u.domain
    bmask = dom.boundary_mask
    above = u.values > kappa
    interior = above & ~bmask
    boundary = above & bmask
    return LevelSet(
        interior,
        float(np.sum(dom.interior_weights[interior])),
        boundary,
        float(np.sum(dom.boundary_weights[boundary])),
    )


def kappa_sequence(kappa_star: float, n) -> float | np.ndarray:
    """Level n >= 0 of the doubling ladder: kappa_* (2 - 2^-n), increasing to 2 kappa_*."""
    if not 0.0 < kappa_star < np.inf:
        raise DomainError("kappa_star must be positive and finite")
    n = np.asarray(n)
    if np.any(n < 0):
        raise DomainError("level index n must be nonnegative")
    out = kappa_star * (2.0 - 0.5**n.astype(float))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class IterationEnergy:
    regime: str
    n: int
    kappa_n: float
    interior: float
    boundary: float

    @property
    def total(self) -> float:
        return self.interior + self.boundary


def _weighted(w, phi):
    """w * phi, with +0.0 at the nodes of weight 0, where phi may be inf (0 * inf is NaN)."""
    return np.multiply(w, phi, where=w != 0.0, out=np.zeros_like(phi))


class _Levels:
    """The level-independent parts of one function's truncation energies: the
    regime and exponent checks, the interior and boundary Phi-functions, the
    weights, the cell slack of ``_bound_ok`` and, in the critical regimes, the
    nodal gradient term w H(|grad u|).  None of them depends on the sign of
    u, so ``negated`` gives the levels of -u.  Each level evaluates the
    Phi-functions on the nodes of {u > kappa} only: off that set the excess
    is 0, where every Phi-function is +0.0.
    """

    def __init__(self, u, field, regime, r=None, s=None, l=None, h=None):
        if regime not in REGIMES:
            raise DomainError(f"unknown regime {regime!r}")
        dom = u.domain
        self.values, self.bmask = u.values, dom.boundary_mask
        self.w, self.wb = dom.interior_weights, dom.boundary_weights
        self.boundary = self.gradient_term = None
        grad = u.gradient_magnitude()
        self.cell_slack = max(dom.spacing) * float(np.max(grad))
        if regime.startswith("subcritical"):
            if r is None or s is None:
                raise DomainError(f"regime {regime} needs interior exponents r, s")
            self.interior = PhiSpec.subcritical(field, r, s)
            if regime == "subcritical-N":
                if l is None or h is None:
                    raise DomainError("regime subcritical-N needs boundary exponents l, h")
                self.boundary = PhiSpec.subcritical_trace(field, l, h)
        else:
            self.interior = PhiSpec.critical(field)
            if regime == "critical-N":
                self.boundary = PhiSpec.critical_trace(field)
            self.H = PhiSpec.double_phase(field)
            self.gradient_term = _weighted(self.w, self.H.evaluate_nodes(grad))

    def negated(self):
        """The levels of -u."""
        other = copy.copy(self)
        other.values = -self.values
        return other

    def energy(self, kappa):
        """The (interior, boundary) truncation energy of (u - kappa)_+."""
        above = self.values > kappa
        excess = np.maximum(self.values - kappa, 0.0)
        interior = float(np.sum(_weighted(self.w, self.interior.evaluate_nodes(excess, above))))
        if self.gradient_term is not None:
            interior += float(np.sum(self.gradient_term[above & ~self.bmask]))
        if self.boundary is None:
            return interior, 0.0
        return interior, float(np.sum(_weighted(self.wb, self.boundary.evaluate_nodes(excess, above))))

    def entry(self, kappa_star):
        """The critical-regime sum of ``entry_condition`` over {u > kappa_*}."""
        above = self.values > kappa_sequence(kappa_star, 0)  # level 0 is kappa_*, checked positive
        on_set = above & ~self.bmask
        absu = np.abs(self.values)
        total = float(np.sum(self.gradient_term[on_set]))
        total += float(np.sum(self.w[on_set] * self.interior.evaluate_nodes(absu, on_set)[on_set]))
        if self.boundary is None:
            return total + float(np.sum(self.w[on_set] * self.H.evaluate_nodes(absu, on_set)[on_set]))
        on_set = above & self.bmask
        return total + float(np.sum(self.wb[on_set] * self.boundary.evaluate_nodes(absu, on_set)[on_set]))


def truncation_energy(
    u: GridFunction,
    field: ExponentField,
    regime: str,
    kappa_star: float,
    n: int,
    r=None,
    s=None,
    l=None,
    h=None,
    *,
    _levels=None,
) -> IterationEnergy:
    """One term of the truncation-energy sequence at level kappa_n.

    Subcritical regimes integrate the two-exponent function of (u-kappa_n)_+
    over the interior level set (plus the trace analogue over the boundary
    level set in the Neumann case).  Critical regimes integrate the
    double-phase function of the gradient over the level set plus the critical
    function of the truncation (plus its trace version on the boundary).
    ``_levels``, if given, is the ``_Levels`` of these arguments.
    """
    levels = _Levels(u, field, regime, r, s, l, h) if _levels is None else _levels
    kappa_n = kappa_sequence(kappa_star, n)
    return IterationEnergy(regime, int(n), kappa_n, *levels.energy(kappa_n))


def entry_condition(
    u: GridFunction,
    field: ExponentField,
    regime: str,
    kappa_star: float,
    r=None,
    s=None,
    l=None,
    h=None,
    *,
    _levels=None,
) -> float:
    """Entry quantity whose value below 1 licenses the iteration at kappa_*.

    Critical Dirichlet: level-set integral of the double-phase function of the
    gradient and of |u| plus the critical function of |u|.  Critical Neumann:
    gradient term, critical function of |u| and the boundary trace term.
    Subcritical regimes use the n = 0 truncation energy itself.  ``_levels``,
    if given, is the ``_Levels`` of these arguments.
    """
    levels = _Levels(u, field, regime, r, s, l, h) if _levels is None else _levels
    if regime in ("subcritical-D", "subcritical-N"):
        return truncation_energy(u, field, regime, kappa_star, 0, _levels=levels).total
    return levels.entry(kappa_star)


# ---------------------------------------------------------------------------
# Closed-form starting level and a priori bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundConstants:
    """Configuration for the closed-form bound machinery.

    The analytic proofs produce these constants from embedding constants that
    are not computable here, so they are explicit configuration with neutral
    defaults.  ``recursion_constant`` is the prefactor of the truncation
    recursion; ``delta``/``mu`` are its exponents; ``tau1``/``tau2`` default
    to delta1/mu2 and delta2/mu1.  ``r_minus``/``s_plus`` convert a norm into
    a modular bound via max(norm^r_minus, norm^s_plus).
    """

    C: float = 1.0
    recursion_constant: float = 1.0
    b: float = 2.0
    mu1: float = 1.0
    mu2: float = 1.0
    delta1: float = 1.0
    delta2: float = 1.0
    tau1: float | None = None
    tau2: float | None = None
    r_minus: float = 1.0
    s_plus: float = 1.0

    def __post_init__(self):
        positive = (self.C, self.recursion_constant, self.mu1, self.mu2,
                    self.delta1, self.delta2, self.r_minus, self.s_plus)
        if any(c <= 0 for c in positive) or self.b <= 1:
            raise DomainError("constants must be positive and b > 1")
        if self.delta1 > self.delta2 or self.mu1 > self.mu2:
            raise DomainError("need delta1 <= delta2 and mu1 <= mu2")

    @property
    def exponents(self):
        t1 = self.delta1 / self.mu2 if self.tau1 is None else self.tau1
        t2 = self.delta2 / self.mu1 if self.tau2 is None else self.tau2
        return t1, t2


def kappa_star_dirichlet(psi_modular: float, constants: BoundConstants) -> float:
    """Closed-form starting level from the modular of the subcritical function.

    By construction the result satisfies both admissibility inequalities that
    license the recursion collapse (checked directly in the test suite).  A
    zero modular is degenerate and returns 0 with a warning.
    """
    if psi_modular < 0:
        raise DomainError("modular must be nonnegative")
    if psi_modular == 0.0:
        warnings.warn("zero modular: degenerate starting level 0", stacklevel=2)
        return 0.0
    c = constants
    C4 = 4.0 * c.recursion_constant
    prefactor = max(C4 ** (1.0 / c.mu1), C4 ** (1.0 / c.mu2))
    bpow = c.b ** ((1.0 / c.mu1) * (1.0 / c.delta1 + (c.delta2 - c.delta1) / c.delta2))
    M = psi_modular
    return prefactor * bpow * max(M ** (c.delta1 / c.mu2), M ** (c.delta2 / c.mu1))


def kappa_star_admissible(kappa_star: float, psi_modular: float, constants: BoundConstants):
    """The two admissibility inequalities for a candidate starting level.

    Returns the pair of right-hand sides; the candidate is admissible when it
    dominates both.
    """
    c = constants
    M = psi_modular
    C4 = 4.0 * c.recursion_constant
    bexp = 1.0 / c.delta1 + (c.delta2 - c.delta1) / c.delta2
    rhs1 = C4 ** (1.0 / c.mu1) * c.b ** (bexp / c.mu1) * max(M ** (c.delta1 / c.mu1), M ** (c.delta2 / c.mu1))
    rhs2 = C4 ** (1.0 / c.mu2) * c.b ** (bexp / c.mu2) * max(M ** (c.delta1 / c.mu2), M ** (c.delta2 / c.mu2))
    return rhs1, rhs2


def bound_estimate(
    psi_norm: float,
    constants: BoundConstants,
    regime: str = "subcritical-D",
    upsilon_norm: float | None = None,
) -> float:
    """A priori sup-norm bound from Luxemburg norms.

    Dirichlet regimes: C max(X^tau1, X^tau2) with X the modular surrogate
    max(norm^r_minus, norm^s_plus).  Neumann regimes: same with X built from
    the sum of the interior and boundary norms, taus purely configured.
    """
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    if psi_norm < 0 or (upsilon_norm is not None and upsilon_norm < 0):
        raise DomainError("norms are nonnegative")
    neumann = regime.endswith("-N")
    if neumann:
        if upsilon_norm is None:
            raise DomainError("Neumann regime needs the boundary norm")
        base = psi_norm + upsilon_norm
    else:
        base = psi_norm
    if base == 0.0:  # X = 0, so the bound is exactly 0
        return 0.0
    c = constants
    t1, t2 = c.exponents
    with np.errstate(over="ignore", divide="ignore"):  # a bound beyond the double range reads inf
        X = max(np.float64(base) ** c.r_minus, np.float64(base) ** c.s_plus)
        return float(c.C * max(X**t1, X**t2))


# ---------------------------------------------------------------------------
# Empirical iteration on grid functions
# ---------------------------------------------------------------------------

@dataclass
class IterationReport:
    regime: str
    kappa_star: float | None
    esssup: float
    bound_ok: bool
    candidates: list = dc_field(default_factory=list)  # (kappa, entry, decayed, final energy)
    energies: list = dc_field(default_factory=list)  # IterationEnergy list of the chosen run

    @property
    def found(self) -> bool:
        return self.kappa_star is not None


def _bound_ok(levels: _Levels, kappa, sup: float) -> bool:
    """Whether a level was found and sup <= 2 kappa + max(h) max |grad u|:
    twice the level, plus one cell of slack."""
    return kappa is not None and sup <= 2.0 * kappa + levels.cell_slack


def empirical_iteration(
    u: GridFunction,
    field: ExponentField,
    regime: str,
    kappa_star_grid,
    r=None,
    s=None,
    l=None,
    h=None,
    *,
    _levels=None,
) -> IterationReport:
    """Grid search for the smallest admissible starting level.

    Candidates must be finite; nonpositive ones are skipped.  For each other
    candidate the entry condition must be < 1 and the energy sequence must
    decay to at most ``_DECAY_TOL`` within ``_N_LEVELS`` steps.  The energies
    do not increase with the level, so a candidate whose level ``_N_LEVELS``
    is above ``_DECAY_TOL`` is settled by that one evaluation, with the final
    energy the full walk would end on; the others walk up from n = 0.  The
    report carries the one-sided supremum of u over interior nodes and whether
    it is bounded by twice the chosen level (plus one-cell slack).  ``_levels``,
    if given, is the ``_Levels`` of these arguments.
    """
    kappas = sorted(float(k) for k in kappa_star_grid)
    if not np.all(np.isfinite(kappas)):
        raise DomainError("kappa_star candidates must be finite")
    levels = _Levels(u, field, regime, r, s, l, h) if _levels is None else _levels
    sup_u = float(np.max(levels.values[~levels.bmask]))

    candidates = []
    chosen = None
    chosen_energies = []
    for kappa in kappas:
        if kappa <= 0:
            continue
        entry = entry_condition(u, field, regime, kappa, _levels=levels)
        ladder = kappa_sequence(kappa, np.arange(_N_LEVELS + 1))
        # the energies never increase with n: an undecayed last level settles kappa
        energies = [IterationEnergy(regime, _N_LEVELS, float(ladder[-1]), *levels.energy(ladder[-1]))]
        if energies[-1].total <= _DECAY_TOL:
            energies = []
            for n, kappa_n in enumerate(ladder):
                energies.append(IterationEnergy(regime, n, float(kappa_n), *levels.energy(kappa_n)))
                if energies[-1].total <= _DECAY_TOL:
                    break
        decayed = energies[-1].total <= _DECAY_TOL
        candidates.append((kappa, entry, decayed, energies[-1].total))
        if entry < 1.0 and decayed and chosen is None:
            chosen = kappa
            chosen_energies = energies
    return IterationReport(regime, chosen, sup_u, _bound_ok(levels, chosen, sup_u), candidates, chosen_energies)


def two_sided_bound(
    u: GridFunction,
    field: ExponentField,
    regime: str,
    kappa_star_grid,
    **kw,
) -> IterationReport:
    """Run the iteration for u and for -u and bound max |u| by twice the level.

    ``kw`` holds the exponents r, s, l and h of ``empirical_iteration``.  Both
    runs share one ``_Levels``: its Phi-functions, weights and gradient term do
    not depend on the sign of u."""
    levels = _Levels(u, field, regime, **kw)
    up = empirical_iteration(u, field, regime, kappa_star_grid, _levels=levels)
    down = empirical_iteration(-u, field, regime, kappa_star_grid, _levels=levels.negated())
    sup_abs = abs(max(up.esssup, down.esssup))  # abs: +0.0 when the interior holds only +-0
    kappa = max(up.kappa_star, down.kappa_star) if up.found and down.found else None
    return IterationReport(regime, kappa, sup_abs, _bound_ok(levels, kappa, sup_abs),
                           up.candidates + down.candidates, up.energies + down.energies)
