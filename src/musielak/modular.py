"""Grid domains, grid functions, discrete modulars and Luxemburg norms.

The domain is a rectangular lattice whose outermost node layer is the
boundary.  Both quadratures are tensor products of per-axis rows.  Volume
quadrature is a lumped rectangle rule carried entirely by the interior nodes:
the row of an axis with spacing h is 0 at its two ends and h inside, and the
two nodes next to the ends absorb the adjacent half-cells (+h/2), so the
interior weights sum exactly to the box volume.  Boundary nodes carry
trapezoidal facet weights (rows h/2 at the ends, h inside): each face of an
axis carries the product of the other axes' rows, so the weights sum exactly
to the surface measure of the box, and in 1D, with no other axis, the two end
nodes carry the counting measure 1.  A spacing for which the cell measure or
some weight is 0 or overflows, such as 1e-200 on a 2D lattice, is an input
error.

For u != 0 the map ``lam -> modular(u / lam)`` is continuous and strictly
decreasing, so each norm is the unique lam with unit modular.  All three
norms share one routine: the quadrature weights and the nodal magnitudes
(plus the gradient magnitude for the Sobolev norm) are built once, the
modular of u seeds the power bracket, and ``_unit_root``, this module's one
root finder, solves for lam by Illinois regula falsi in log lam.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .phi_core import ExponentField, PhiSpec

__all__ = [
    "GridDomain",
    "GridFunction",
    "NormResult",
    "modular_rho",
    "luxemburg_norm",
    "sobolev_norm",
    "boundary_modular",
    "boundary_norm",
]


def _outer(rows):
    """The tensor product of the per-axis ``rows``, in axis order; 1 for no rows."""
    return functools.reduce(np.multiply.outer, rows) if rows else 1.0


def _prod(rows, pick) -> float:
    """The product, in axis order, of ``pick`` of each row; 1 for no rows."""
    return math.prod(float(pick(r)) for r in rows)


@dataclass(frozen=True)
class GridDomain:
    """A rectangular lattice with marked boundary layer and quadrature weights."""

    shape: tuple
    spacing: tuple
    origin: tuple

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if not (len(self.shape) == len(self.spacing) == len(self.origin)):
            raise DomainError("shape, spacing and origin must have equal length")
        if not self.shape or any(n < 3 for n in self.shape):
            raise DomainError("a grid needs at least one axis, each with >= 3 nodes")
        if any(h <= 0 for h in self.spacing):
            raise DomainError("spacing must be positive")
        # Each weight lies between products, in _outer's axis order, of per-axis
        # row extremes (a corner's facet weight sums its faces), so all weights
        # are positive finite doubles when these bounds are.
        with np.errstate(over="ignore"):  # an infinite row entry fails the check
            inner, trap = [r[1:-1] for r in self._rows(0.0, 0.5)], self._rows(0.5, 0.0)
        faces = [trap[:k] + trap[k + 1:] for k in range(self.dim)]
        bounds = [math.prod(self.spacing), _prod(inner, np.min), _prod(inner, np.max),
                  *(_prod(f, np.min) for f in faces), sum(_prod(f, np.max) for f in faces)]
        if not all(0.0 < w < math.inf for w in bounds):
            raise DomainError(f"spacing {self.spacing} puts a lattice weight outside the double range")

    @classmethod
    def box(cls, shape, lengths=None, origin=None) -> "GridDomain":
        """Lattice over a box; ``lengths`` defaults to the unit box."""
        shape = tuple(int(n) for n in shape)
        dim = len(shape)
        if lengths is None:
            lengths = (1.0,) * dim
        if origin is None:
            origin = (0.0,) * dim
        # max(n - 1, 1): __post_init__, not a division by zero, rejects n < 3.
        spacing = tuple(float(L) / max(n - 1, 1) for L, n in zip(lengths, shape))
        return cls(shape, spacing, tuple(origin))

    @classmethod
    def interval(cls, n: int, length: float = 1.0, origin: float = 0.0) -> "GridDomain":
        return cls.box((n,), (length,), (origin,))

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def cell_measure(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def axes(self):
        """1D coordinate arrays per axis."""
        return tuple(
            o + h * np.arange(n) for o, h, n in zip(self.origin, self.spacing, self.shape)
        )

    @property
    def coordinates(self):
        """Meshgrid of node coordinates, one array per axis."""
        return np.meshgrid(*self.axes, indexing="ij")

    @property
    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.dim] = False
        return mask

    def _rows(self, end: float, inner: float) -> list:
        """Per axis with spacing h: h at each node, ``end`` h at the two ends,
        and ``inner`` h more on the two nodes next to them."""
        rows = []
        for n, h in zip(self.shape, self.spacing):
            row = np.full(n, h)
            row[0] = row[-1] = end * h
            row[1] += inner * h
            row[-2] += inner * h
            rows.append(row)
        return rows

    @property
    def interior_weights(self) -> np.ndarray:
        """Volume quadrature weights; zero on the boundary, exact box total."""
        return _outer(self._rows(0.0, 0.5))

    @property
    def boundary_weights(self) -> np.ndarray:
        """Facet quadrature weights; zero in the interior, exact surface total."""
        rows = self._rows(0.5, 0.0)
        w = np.zeros(self.shape)
        for axis in range(self.dim):  # the two faces of ``axis`` carry the other axes' rows
            face = _outer(rows[:axis] + rows[axis + 1:])
            w[(slice(None),) * axis + (0,)] += face
            w[(slice(None),) * axis + (-1,)] += face
        return w

    @property
    def volume(self) -> float:
        return float(np.prod([(n - 1) * h for n, h in zip(self.shape, self.spacing)]))

    def radius(self) -> np.ndarray:
        """Euclidean distance of every node from the coordinate origin."""
        coords = self.coordinates
        return np.sqrt(sum(c * c for c in coords))

    def constant_field(self, N: int, p, q, mu, **kw) -> ExponentField:
        """An ExponentField broadcast over this lattice with its spacing attached."""
        ones = np.ones(self.shape)
        return ExponentField(N, ones * p, ones * q, ones * mu, spacing=self.spacing, **kw)


@dataclass(frozen=True)
class GridFunction:
    """Real nodal values over a GridDomain."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.domain.shape:
            raise DomainError(f"values shape {vals.shape} != grid shape {self.domain.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, domain: GridDomain, value: float) -> "GridFunction":
        return cls(domain, np.full(domain.shape, float(value)))

    def gradient(self) -> np.ndarray:
        """Nodewise gradient: central differences inside, one-sided at the boundary."""
        grads = np.gradient(self.values, *self.domain.spacing, edge_order=1)
        if self.domain.dim == 1:
            grads = [grads]
        return np.stack(grads)

    def gradient_magnitude(self) -> np.ndarray:
        """Nodewise |grad u|.  When a gradient component is above 2^500, where
        its square could overflow, the gradient is first scaled by an exact
        power of two."""
        g = self.gradient()
        top = float(np.max(np.abs(g)))
        if not top > 2.0**500:
            return np.sqrt(np.sum(g * g, axis=0))
        k = math.frexp(top)[1]
        g = np.ldexp(g, -k)
        return np.ldexp(np.sqrt(np.sum(g * g, axis=0)), k)

    def __neg__(self):
        return GridFunction(self.domain, -self.values)

    def __mul__(self, c):
        return GridFunction(self.domain, self.values * float(c))

    __rmul__ = __mul__


@dataclass(frozen=True)
class NormResult:
    value: float
    modular_at_value: float
    iterations: int


def _require_same_nodes(spec: PhiSpec, u: GridFunction):
    if spec.base.shape not in ((), u.domain.shape):
        raise DomainError(f"Phi-function lives on {spec.base.shape}, grid function on {u.domain.shape}")


def modular_rho(spec: PhiSpec, u: GridFunction) -> float:
    """Interior quadrature of phi(x, |u(x)|)."""
    _require_same_nodes(spec, u)
    return _terms_modular(spec, [(u.domain.interior_weights, np.abs(u.values))])


def boundary_modular(spec: PhiSpec, u: GridFunction) -> float:
    """Facet quadrature of phi(x, |u(x)|) over the boundary layer."""
    _require_same_nodes(spec, u)
    return _terms_modular(spec, [(u.domain.boundary_weights, np.abs(u.values))])


def _terms_modular(spec: PhiSpec, terms, lam: float = 1.0) -> float:
    """Sum of w * phi(t / lam) over the (weights, magnitudes) ``terms``; NaN
    when phi overflows at a node of weight 0."""
    with np.errstate(invalid="ignore"):
        return float(sum(np.sum(w * spec.evaluate_nodes(t / lam)) for w, t in terms))


_LN2 = math.log(2.0)
# |log lam| <= _LOG_MAX keeps both lam and 1 / lam finite doubles.
_LOG_MAX = math.log(sys.float_info.max)
_MAX_EVALS = 100
# Every norm is solved until its modular is within this of 1.
_NORM_TOL = 1e-10


def _unit_root(rho, rho_one, lo_exp, hi_exp, tol):
    """The lam > 0 with rho(lam) = 1 for a continuous decreasing ``rho``.

    ``rho_one`` is rho(1).  When rho(lam) / rho(1) lies between lam^-hi_exp
    and lam^-lo_exp, the root lies between rho(1)^(1/hi_exp) and
    rho(1)^(1/lo_exp).  That bracket, widened by a factor 2 at each end (and
    further while it does not hold) and cut at lam = 1, whose value is known,
    is searched in y = log lam, where log rho is almost linear, by regula
    falsi with the Illinois modification (Dowell and Jarratt, BIT 11, 1971).
    Stops when |log rho| <= ``tol`` or the bracket has collapsed.  Returns
    (lam, rho(lam), evaluations of rho) at the latest evaluation.  Raises
    ConvergenceError when the root lies where lam or 1 / lam overflows.
    """
    evals = 0
    g = math.log(rho_one)
    last = (1.0, rho_one, g)  # (lam, rho, log rho) of the latest evaluation

    def f(y):
        nonlocal evals, last
        evals += 1
        if evals > _MAX_EVALS:
            raise ConvergenceError(f"no unit root in {_MAX_EVALS} evaluations; last (lam, rho) {last[:2]}")
        if not abs(y) <= _LOG_MAX:
            raise ConvergenceError(f"no unit root in the double range |log lam| <= {_LOG_MAX:.6g}; "
                                   f"last (lam, rho) {last[:2]}")
        val = rho(math.exp(y))
        last = (math.exp(y), val, math.log(val) if val > 0.0 else -math.inf)
        return last[2]

    a = max(min(g / lo_exp, g / hi_exp) - _LN2, -_LOG_MAX)
    b = min(max(g / lo_exp, g / hi_exp) + _LN2, _LOG_MAX)
    fa = fb = math.nan  # not yet evaluated
    if a < 0.0 < g:
        a, fa = 0.0, g
    if b > 0.0 > g:
        b, fb = 0.0, g
    while abs(last[2]) > tol and not fa > 0.0:
        if fa < 0.0:
            a, b, fb = a - _LN2, a, fa
        fa = f(a)
    while abs(last[2]) > tol and not fb < 0.0:
        if fb > 0.0:
            a, fa, b = b, fb, b + _LN2
        fb = f(b)
    ends, side = [[a, fa], [b, fb]], None  # log rho > 0 at ends[0], < 0 at ends[1]
    while abs(last[2]) > tol:
        (a, fa), (b, fb) = ends
        if b - a <= 4e-16 * max(1.0, abs(a), abs(b)):
            break
        y = (a * fb - b * fa) / (fb - fa)
        if not a < y < b:
            y = 0.5 * (a + b)
        fy = f(y)
        k = 0 if fy > 0.0 else 1
        if k == side:  # Illinois: the other end was kept twice running
            ends[1 - k][1] *= 0.5
        ends[k], side = [y, fy], k
    return last[0], last[1], evals


def _norm(spec: PhiSpec, terms, rho_u: float) -> NormResult:
    """The lam with sum of w * phi(t / lam) over ``terms`` = 1, to ``_NORM_TOL``.

    ``terms`` are (weights, magnitudes) pairs over the nodes of ``spec``;
    ``rho_u`` is the modular at lam = 1.  When that underflows to 0 or is not
    finite, the norm is 2^k times the norm of u / 2^k, for the power of two
    2^k above every weighted magnitude (the norm is homogeneous, and the
    scaling is exact); it is 0 only when every weighted magnitude is.
    """
    # The spec's own exponents, not exponent_bounds(): the normalized kind's start at 1.
    smallest = float(min(np.min(spec.lo), np.min(spec.hi)))
    if smallest <= 0.0:  # a NaN exponent gives a NaN modular, which fails the tolerance test
        raise DomainError(f"a norm needs exponents > 0, got a smallest exponent of {smallest:g}")
    k = 0
    if not 0.0 < rho_u < math.inf:
        top = max(float(np.max(t, where=w > 0.0, initial=0.0)) for w, t in terms)
        if top == 0.0:
            return NormResult(0.0, 0.0, 0)
        k = math.frexp(top)[1]
        terms = [(w, np.ldexp(np.where(w > 0.0, t, 0.0), -k)) for w, t in terms]
        rho_u = _terms_modular(spec, terms)
    lam, val, it = _unit_root(lambda lam: _terms_modular(spec, terms, lam), rho_u, *spec.exponent_bounds(),
                              math.log1p(_NORM_TOL))
    if not abs(val - 1.0) <= _NORM_TOL:
        raise ConvergenceError(f"norm root-finder stalled at lam={lam} with modular {val}")
    try:
        return NormResult(math.ldexp(lam, k), val, it)
    except OverflowError:
        raise ConvergenceError(f"the norm {lam!r} x 2^{k} overflows the double range") from None


def luxemburg_norm(spec: PhiSpec, u: GridFunction) -> NormResult:
    """The Luxemburg norm of u for the selected Phi-function.

    Zero function maps to norm 0; otherwise the unique lam > 0 with
    modular(u/lam) = 1 is found to within ``_NORM_TOL`` in the modular value.
    """
    terms = [(u.domain.interior_weights, np.abs(u.values))]
    return _norm(spec, terms, modular_rho(spec, u))


def sobolev_norm(field: ExponentField, u: GridFunction) -> NormResult:
    """Luxemburg-type norm driven by the gradient-plus-function modular."""
    spec = PhiSpec.double_phase(field)
    _require_same_nodes(spec, u)
    w = u.domain.interior_weights
    terms = [(w, np.abs(u.values)), (w, u.gradient_magnitude())]
    return _norm(spec, terms, _terms_modular(spec, terms))


def boundary_norm(spec: PhiSpec, u: GridFunction) -> NormResult:
    """Luxemburg norm over the boundary layer with facet weights."""
    terms = [(u.domain.boundary_weights, np.abs(u.values))]
    return _norm(spec, terms, boundary_modular(spec, u))
