"""Dilation experiments for the two-term embedding inequality.

The necessity of the critical exponents is visible numerically: dilating a
fixed compactly supported profile by ``v(x) = u(lam x)`` rescales every
integral quantity by an explicit power of ``lam``, so log-log regression of
measured quantities against ``lam`` recovers those powers.  The scan is one
call: ``exponent_scan`` dilates the profile along a ladder of factors and
fits the slopes of the four terms of ``embedding_sides``.  Comparing the
left- and right-hand-side decay rates of the inequality certifies which
exponent triples (r, s, alpha) are admissible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConvergenceError, DomainError, HypothesisError
from .modular import GridDomain, GridFunction
from .phi_core import ExponentField, sobolev_critical

__all__ = [
    "SlopeFit",
    "EmbeddingSides",
    "OptimalityResult",
    "bump_function",
    "scale_function",
    "embedding_sides",
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


def embedding_sides(
    u: GridFunction,
    field: ExponentField,
    r: float,
    s: float,
    alpha: float,
    weight_mode: str = "unit",
) -> EmbeddingSides:
    """Both sides of the two-term embedding inequality for the given profile.

    LHS: sum of the r-integral norm of u and the weighted s-integral norm;
    RHS: sum of the p- and weighted q-integral norms of the gradient.
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
    return EmbeddingSides(lhs_r + lhs_s, rhs_p + rhs_q, (lhs_r, lhs_s), (rhs_p, rhs_q))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    residual: float
    predicted: float
    values: np.ndarray  # the fitted term at each dilation factor, ascending

    @property
    def reliable(self) -> bool:
        return self.residual <= 0.05


def exponent_scan(
    u: GridFunction,
    field: ExponentField,
    r: float,
    s: float,
    alpha: float,
    lambdas=(1.0, 2.0, 4.0, 8.0, 16.0),
    weight_mode: str = "unit",
) -> dict:
    """Dilate ``u`` by each factor and fit the log-log slope of every term of
    ``embedding_sides``: name -> ``SlopeFit`` for lhs_r, lhs_s, rhs_p, rhs_q.

    The ladder needs at least 4 factors, each >= 1, spanning at least one
    decade, and the largest dilation must leave the support at least 8 cells
    wide, otherwise interpolation error dominates the fitted slopes.  The
    residual is the rms misfit in log coordinates; fits with residual above
    0.05 are flagged unreliable.
    """
    lambdas = np.asarray(sorted(float(l) for l in lambdas))
    if lambdas.size < 4 or lambdas[0] < 1.0 or lambdas[-1] / lambdas[0] < 10.0:
        raise DomainError("need >= 4 dilation factors, each >= 1, spanning at least one decade")
    dom = u.domain
    support = np.abs(u.values) > 0
    if not np.any(support):
        raise DomainError("base profile vanishes identically")
    if np.max(dom.radius()[support]) / lambdas[-1] < 8.0 * max(dom.spacing):
        raise DomainError("largest dilation leaves fewer than 8 cells of support")

    sides = [embedding_sides(scale_function(u, lam), field, r, s, alpha, weight_mode) for lam in lambdas]
    terms = np.array([side.lhs_terms + side.rhs_terms for side in sides]).T
    N, p, q = field.N, float(np.min(field.p)), float(np.min(field.q))
    radial = weight_mode == "radial"
    predicted = {
        "lhs_r": -N / r,
        "lhs_s": -(alpha + N) / s if radial else -N / s,
        "rhs_p": (p - N) / p,
        "rhs_q": (q - N - 1.0) / q if radial else (q - N) / q,
    }
    x = np.log(lambdas)
    out = {}
    for name, vals in zip(predicted, terms):
        if not np.all((vals > 0) & np.isfinite(vals)):
            raise ConvergenceError(f"quantity {name} is not positive and finite; cannot fit log-log slope")
        y = np.log(vals)
        slope, intercept = np.polyfit(x, y, 1)
        resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
        out[name] = SlopeFit(float(slope), resid, predicted[name], vals)
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
