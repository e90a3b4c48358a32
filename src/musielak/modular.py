"""Grid domains, grid functions, discrete modulars and Luxemburg norms.

The domain is a rectangular lattice whose outermost node layer is the
boundary.  Volume quadrature is a lumped rectangle rule carried entirely by
the interior nodes: each interior node owns its dual cell and the nodes next
to the boundary also absorb the adjacent half-cells, so the interior weights
sum exactly to the box volume.  Boundary nodes carry trapezoidal facet
weights that sum exactly to the surface measure of the box.

For u != 0 the map ``lam -> modular(u / lam)`` is continuous and strictly
decreasing, so each norm is the unique lam with unit modular.  All three
norms share one routine: the quadrature weights and the nodal magnitudes
(plus the gradient magnitude for the Sobolev norm) are built once, the
modular of u seeds the power bracket, and ``phi_core._unit_root`` solves
for lam by Illinois regula falsi in log lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, GridMismatchError
from .phi_core import ExponentField, PhiSpec, _unit_root

__all__ = [
    "GridDomain",
    "GridFunction",
    "NormResult",
    "modular_rho",
    "modular_sobolev",
    "luxemburg_norm",
    "sobolev_norm",
    "boundary_modular",
    "boundary_norm",
]


def _axis_interior_weights(n: int, h: float) -> np.ndarray:
    # Interior nodes own their dual cells; the two nodes adjacent to the
    # boundary absorb the neighbouring half-cells, so the row sums to (n-1) h.
    if n < 3:
        raise DomainError("need at least 3 nodes per axis (one interior node)")
    w = np.full(n, h)
    w[0] = w[-1] = 0.0
    w[1] += 0.5 * h
    w[-2] += 0.5 * h
    return w


def _axis_trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


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
            raise GridMismatchError("shape, spacing and origin must have equal length")
        if any(n < 3 for n in self.shape):
            raise DomainError("each axis needs >= 3 nodes")
        if any(h <= 0 for h in self.spacing):
            raise DomainError("spacing must be positive")

    @classmethod
    def box(cls, shape, lengths=None, origin=None) -> "GridDomain":
        """Lattice over a box; ``lengths`` defaults to the unit box."""
        shape = tuple(int(n) for n in shape)
        dim = len(shape)
        if lengths is None:
            lengths = (1.0,) * dim
        if origin is None:
            origin = (0.0,) * dim
        spacing = tuple(float(L) / (n - 1) for L, n in zip(lengths, shape))
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
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(self.dim):
            sl = [slice(None)] * self.dim
            for edge in (0, -1):
                sl[axis] = edge
                mask[tuple(sl)] = True
        return mask

    @property
    def interior_weights(self) -> np.ndarray:
        """Volume quadrature weights; zero on the boundary, exact box total."""
        rows = [_axis_interior_weights(n, h) for n, h in zip(self.shape, self.spacing)]
        w = rows[0]
        for row in rows[1:]:
            w = np.multiply.outer(w, row)
        return w

    @property
    def boundary_weights(self) -> np.ndarray:
        """Facet quadrature weights; zero in the interior, exact surface total."""
        w = np.zeros(self.shape)
        if self.dim == 1:
            w[0] = w[-1] = 1.0  # 0-dimensional counting measure
            return w
        for axis in range(self.dim):
            rows = [
                _axis_trapezoid_weights(n, h)
                for a, (n, h) in enumerate(zip(self.shape, self.spacing))
                if a != axis
            ]
            facet = rows[0]
            for row in rows[1:]:
                facet = np.multiply.outer(facet, row)
            sl = [slice(None)] * self.dim
            for edge in (0, -1):
                sl[axis] = edge
                w[tuple(sl)] += facet
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
            raise GridMismatchError(f"values shape {vals.shape} != grid shape {self.domain.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, domain: GridDomain, fn) -> "GridFunction":
        return cls(domain, fn(*domain.coordinates))

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
        g = self.gradient()
        return np.sqrt(np.sum(g * g, axis=0))

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
        raise GridMismatchError(
            f"Phi-function lives on {spec.base.shape}, grid function on {u.domain.shape}"
        )


def modular_rho(spec: PhiSpec, u: GridFunction) -> float:
    """Interior quadrature of phi(x, |u(x)|)."""
    _require_same_nodes(spec, u)
    w = u.domain.interior_weights
    return float(np.sum(w * spec.evaluate_nodes(np.abs(u.values))))


def modular_sobolev(field: ExponentField, u: GridFunction) -> float:
    """Double-phase modular of the gradient magnitude plus that of the function."""
    spec = PhiSpec.double_phase(field)
    _require_same_nodes(spec, u)
    w = u.domain.interior_weights
    grad = u.gradient_magnitude()
    return float(np.sum(w * (spec.evaluate_nodes(grad) + spec.evaluate_nodes(np.abs(u.values)))))


def boundary_modular(spec: PhiSpec, u: GridFunction) -> float:
    """Facet quadrature of phi(x, |u(x)|) over the boundary layer."""
    _require_same_nodes(spec, u)
    w = u.domain.boundary_weights
    if not np.any(w > 0):
        raise DomainError("domain has no boundary nodes")
    return float(np.sum(w * spec.evaluate_nodes(np.abs(u.values))))


def _terms_modular(spec: PhiSpec, terms, lam: float = 1.0) -> float:
    """Sum of w * phi(t / lam) over the (weights, magnitudes) ``terms``."""
    return float(sum(np.sum(w * spec.evaluate_nodes(t / lam)) for w, t in terms))


def _norm(spec: PhiSpec, terms, rho_u: float, tol: float) -> NormResult:
    """The lam with sum of w * phi(t / lam) over ``terms`` = 1, to ``tol``.

    ``terms`` are (weights, magnitudes) pairs over the nodes of ``spec``;
    ``rho_u`` is the modular at lam = 1.
    """
    if not tol > 0:
        raise DomainError("tol must be positive")
    if rho_u == 0.0:
        return NormResult(0.0, 0.0, 0)
    lam, val, it = _unit_root(
        lambda lam: _terms_modular(spec, terms, lam), rho_u, *spec.exponent_bounds(), math.log1p(tol),
    )
    if abs(val - 1.0) > tol:
        raise ConvergenceError(f"norm root-finder stalled at lam={lam} with modular {val}")
    return NormResult(lam, val, it)


def luxemburg_norm(spec: PhiSpec, u: GridFunction, tol: float = 1e-10) -> NormResult:
    """The Luxemburg norm of u for the selected Phi-function.

    Zero function maps to norm 0; otherwise the unique lam > 0 with
    modular(u/lam) = 1 is found to within ``tol`` in the modular value.
    """
    terms = [(u.domain.interior_weights, np.abs(u.values))]
    return _norm(spec, terms, modular_rho(spec, u), tol)


def sobolev_norm(field: ExponentField, u: GridFunction, tol: float = 1e-10) -> NormResult:
    """Luxemburg-type norm driven by the gradient-plus-function modular."""
    spec = PhiSpec.double_phase(field)
    _require_same_nodes(spec, u)
    w = u.domain.interior_weights
    terms = [(w, np.abs(u.values)), (w, u.gradient_magnitude())]
    return _norm(spec, terms, _terms_modular(spec, terms), tol)


def boundary_norm(spec: PhiSpec, u: GridFunction, tol: float = 1e-10) -> NormResult:
    """Luxemburg norm over the boundary layer with facet weights."""
    terms = [(u.domain.boundary_weights, np.abs(u.values))]
    return _norm(spec, terms, boundary_modular(spec, u), tol)
