"""Dilation experiments for the two-term embedding inequality.

The necessity of the critical exponents is visible numerically: dilating a
fixed compactly supported profile by ``v(x) = u(lam x)`` rescales every
integral quantity by an explicit power of ``lam``, so log-log regression of
measured quantities against ``lam`` recovers those powers.  Comparing the
left- and right-hand-side decay rates of the inequality certifies which
exponent triples (r, s, alpha) are admissible.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

import numpy as np

from .errors import ConvergenceError, DomainError, HypothesisError
from .modular import GridDomain, GridFunction, luxemburg_norm
from .phi_core import ExponentField, PhiSpec, sobolev_critical

__all__ = [
    "ScalingExperiment",
    "SlopeFit",
    "EmbeddingSides",
    "OptimalityResult",
    "bump_function",
    "scale_function",
    "embedding_sides",
    "run_scaling_experiment",
    "exponent_scan",
    "optimality_check",
]

WEIGHT_MODES = ("unit", "radial")


def bump_function(domain: GridDomain, radius: float = 1.0) -> GridFunction:
    """Smooth compactly supported profile exp(-1/(1 - |x|^2/R^2)) inside |x| < R."""
    if not radius > 0:
        raise DomainError(f"need a bump radius > 0, got {radius!r}")
    rr = domain.radius() / radius
    vals = np.zeros(domain.shape)
    inside = rr < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        vals[inside] = np.exp(-1.0 / (1.0 - rr[inside] ** 2))
    return GridFunction(domain, vals)


def _interp_multilinear(u: GridFunction, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of nodal values at arbitrary points.

    ``points`` has shape (M, dim); points outside the box evaluate to 0.
    """
    dom = u.domain
    dim = dom.dim
    origin = np.asarray(dom.origin)
    spacing = np.asarray(dom.spacing)
    extent = np.array([(n - 1) * h for n, h in zip(dom.shape, dom.spacing)])
    rel = (points - origin) / spacing
    inside = np.all((points >= origin - 1e-12) & (points <= origin + extent + 1e-12), axis=1)

    base = np.clip(np.floor(rel).astype(int), 0, np.asarray(dom.shape) - 2)
    frac = np.clip(rel - base, 0.0, 1.0)
    out = np.zeros(points.shape[0])
    for corner in product((0, 1), repeat=dim):
        wgt = np.ones(points.shape[0])
        for axis, c in enumerate(corner):
            wgt *= frac[:, axis] if c else 1.0 - frac[:, axis]
        idx = tuple(base[:, axis] + corner[axis] for axis in range(dim))
        out += wgt * u.values[idx]
    out[~inside] = 0.0
    return out


def scale_function(u: GridFunction, lam: float) -> GridFunction:
    """The dilated profile x -> u(lam x), interpolated back onto the lattice.

    Requires lam >= 1 and a profile vanishing on the boundary layer, so the
    dilation only shrinks the support.
    """
    if lam < 1.0:
        raise DomainError("dilation factor must be >= 1")
    dom = u.domain
    if np.any(u.values[dom.boundary_mask] != 0.0):
        raise DomainError("profile must vanish on the boundary layer")
    if lam == 1.0:
        return GridFunction(dom, u.values.copy())
    coords = np.stack([c.ravel() for c in dom.coordinates], axis=1)
    vals = _interp_multilinear(u, lam * coords)
    return GridFunction(dom, vals.reshape(dom.shape))


def _weight_array(domain: GridDomain, mode: str) -> np.ndarray:
    if mode == "unit":
        return np.ones(domain.shape)
    if mode == "radial":
        return domain.radius()
    raise DomainError(f"unknown weight mode {mode!r}; use one of {WEIGHT_MODES}")


@dataclass(frozen=True)
class EmbeddingSides:
    lhs: float
    rhs: float
    lhs_terms: tuple  # plain and weighted integral terms
    rhs_terms: tuple  # gradient terms with exponents p and q
    sandwich: tuple | None  # (lower, norm, upper) for the two-term Luxemburg norm


def embedding_sides(
    u: GridFunction,
    field: ExponentField,
    r: float,
    s: float,
    alpha: float,
    weight_mode: str = "unit",
    check_sandwich: bool = True,
) -> EmbeddingSides:
    """Both sides of the two-term embedding inequality for the given profile.

    LHS: sum of the r-integral norm of u and the weighted s-integral norm;
    RHS: sum of the p- and weighted q-integral norms of the gradient.  When
    ``check_sandwich`` is set and 1 <= r <= s, ``sandwich`` holds half the sum
    of the LHS terms, the Luxemburg norm of the two-term function and 2^{1/r}
    times that sum; the norm lies between the two ends.
    """
    if not (r > 0 and s > 0 and alpha > 0):
        raise DomainError(f"need exponents r, s, alpha > 0, got r = {r!r}, s = {s!r}, alpha = {alpha!r}")
    dom = u.domain
    w = dom.interior_weights
    weight = _weight_array(dom, weight_mode)
    absu = np.abs(u.values)
    grad = u.gradient_magnitude()
    p, q = float(np.min(field.p)), float(np.min(field.q))

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf, and inf * 0 NaN
        lhs_r = float(np.sum(w * absu**r) ** (1.0 / r))
        lhs_s = float(np.sum(w * weight**alpha * absu**s) ** (1.0 / s))
        rhs_p = float(np.sum(w * grad**p) ** (1.0 / p))
        rhs_q = float(np.sum(w * weight * grad**q) ** (1.0 / q))

    sandwich = None
    if check_sandwich and r >= 1.0 and r <= s and np.any(absu > 0):
        wfield = ExponentField(field.N, field.p, field.q, weight)
        spec = PhiSpec.weighted(wfield, r, s, alpha)
        norm = luxemburg_norm(spec, u).value
        total = lhs_r + lhs_s
        sandwich = (0.5 * total, norm, 2.0 ** (1.0 / r) * total)

    return EmbeddingSides(lhs_r + lhs_s, rhs_p + rhs_q, (lhs_r, lhs_s), (rhs_p, rhs_q), sandwich)


@dataclass
class ScalingExperiment:
    """Measured dilation sweep of the embedding-inequality quantities."""

    base: GridFunction
    field: ExponentField
    r: float
    s: float
    alpha: float
    weight_mode: str
    lambdas: np.ndarray
    quantities: dict = dc_field(default_factory=dict)  # name -> values per lambda

    def predicted_slopes(self) -> dict:
        N = self.field.N
        p, q = float(np.min(self.field.p)), float(np.min(self.field.q))
        lhs_s = -(self.alpha + N) / self.s if self.weight_mode == "radial" else -N / self.s
        rhs_q = (q - N - 1.0) / q if self.weight_mode == "radial" else (q - N) / q
        return {
            "lhs_r": -N / self.r,
            "lhs_s": lhs_s,
            "rhs_p": (p - N) / p,
            "rhs_q": rhs_q,
        }


def run_scaling_experiment(
    u: GridFunction,
    field: ExponentField,
    r: float,
    s: float,
    alpha: float,
    lambdas=(1.0, 2.0, 4.0, 8.0, 16.0),
    weight_mode: str = "unit",
) -> ScalingExperiment:
    """Measure all four tracked quantities along a geometric dilation ladder.

    The largest dilation must leave the support at least 8 cells wide,
    otherwise interpolation error dominates the fitted slopes.
    """
    lambdas = np.asarray(sorted(float(l) for l in lambdas))
    if not lambdas.size or lambdas[0] < 1.0:
        raise DomainError("dilation factors must be given, each >= 1")
    dom = u.domain
    support = float(np.max(dom.radius()[np.abs(u.values) > 0])) if np.any(u.values != 0) else 0.0
    if support <= 0:
        raise DomainError("base profile vanishes identically")
    if support / lambdas[-1] < 8.0 * max(dom.spacing):
        raise DomainError("largest dilation leaves fewer than 8 cells of support")

    names = ("lhs_r", "lhs_s", "rhs_p", "rhs_q")
    quantities = {name: [] for name in names}
    for lam in lambdas:
        v = scale_function(u, lam)
        sides = embedding_sides(v, field, r, s, alpha, weight_mode, check_sandwich=False)
        quantities["lhs_r"].append(sides.lhs_terms[0])
        quantities["lhs_s"].append(sides.lhs_terms[1])
        quantities["rhs_p"].append(sides.rhs_terms[0])
        quantities["rhs_q"].append(sides.rhs_terms[1])
    quantities = {k: np.asarray(v) for k, v in quantities.items()}
    return ScalingExperiment(u, field, r, s, alpha, weight_mode, lambdas, quantities)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual: float
    predicted: float

    @property
    def reliable(self) -> bool:
        return self.residual <= 0.05


def _require_ladder(lambdas):
    """Raise DomainError unless the dilation factors can carry a slope fit:
    at least 4 of them, each >= 1, spanning at least one decade."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size < 4 or lambdas.min() < 1.0 or lambdas.max() / lambdas.min() < 10.0:
        raise DomainError("need >= 4 dilation factors, each >= 1, spanning at least one decade")


def exponent_scan(experiment: ScalingExperiment) -> dict:
    """Least-squares log-log slope of every tracked quantity.

    Needs a ladder that ``_require_ladder`` accepts.  The residual is the
    rms misfit in log coordinates; fits with residual above 0.05 are flagged
    unreliable.
    """
    lambdas = experiment.lambdas
    _require_ladder(lambdas)
    predicted = experiment.predicted_slopes()
    out = {}
    for name, vals in experiment.quantities.items():
        vals = np.asarray(vals)
        if not np.all((vals > 0) & np.isfinite(vals)):
            raise ConvergenceError(f"quantity {name} is not positive and finite; cannot fit log-log slope")
        x = np.log(lambdas)
        y = np.log(vals)
        slope, intercept = np.polyfit(x, y, 1)
        resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
        out[name] = SlopeFit(float(slope), float(intercept), resid, predicted[name])
    return out


@dataclass(frozen=True)
class OptimalityResult:
    r_ok: bool
    s_ok: bool
    alpha_ok: bool
    p_star: float
    q_star: float
    alpha_floor: float
    epsilon: float
    alpha_epsilon_threshold: float

    @property
    def all_ok(self) -> bool:
        return self.r_ok and self.s_ok and self.alpha_ok


def optimality_check(N: int, p: float, q: float, r: float, s: float, alpha: float) -> OptimalityResult:
    """Necessary-exponent test for the two-term embedding with constant data.

    Admissible triples satisfy r <= Np/(N-p), s <= Nq/(N-q) and
    alpha >= (Nq/(N-q))/q.  Also reports the deficit
    ``epsilon = 1 + 1/N - q/p`` and the relaxed weight-exponent threshold
    ``s/q - N^2 epsilon / (N - q)`` it induces.
    """
    if not (1.0 < p < q < N):
        raise HypothesisError("need 1 < p < q < N")
    p_star, q_star = sobolev_critical(N, p), sobolev_critical(N, q)
    alpha_floor = q_star / q
    eps_cmp = 1e-12  # float slack so that exact boundary equality passes
    epsilon = 1.0 + 1.0 / N - q / p
    threshold = s / q - N**2 * epsilon / (N - q)
    return OptimalityResult(
        r_ok=r <= p_star * (1.0 + eps_cmp),
        s_ok=s <= q_star * (1.0 + eps_cmp),
        alpha_ok=alpha >= alpha_floor * (1.0 - eps_cmp),
        p_star=p_star,
        q_star=q_star,
        alpha_floor=alpha_floor,
        epsilon=epsilon,
        alpha_epsilon_threshold=threshold,
    )
