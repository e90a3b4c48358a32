"""Desk-scale solver for the canonical double-phase problems.

The discrete energy lives on lattice cells: on each cell the gradient is the
per-axis forward difference averaged over the transverse corner pairs, and
the energy density is  |grad|^p / p + mu |grad|^q / q  with the exponent
fields averaged to cell centers, minus the nodal load  f u  (and a boundary
flux term in the Neumann case).  The density is convex in the nodal values,
so the minimizer is the discrete weak solution.

Minimization is an inexact Newton-CG method with Armijo backtracking
(Nocedal and Wright, "Numerical Optimization", 2nd ed., 2006, section 7.1).
With s = |g|^2 + eps for the cell gradient g (eps as below), the density's gradient in g
is a g with a = s^((p-2)/2) + mu s^((q-2)/2), and its Hessian in g is
a I + 2 a' g g^T with a' = da/ds.  Its eigenvalues are a across g and
(p-1) s^((p-2)/2) + mu (q-1) s^((q-2)/2) along g, so against the metric, the
same matrix without the term along g (the lagged-diffusivity operator of
Huang, Li and Liu, J. Sci. Comput. 32, 2007), the spectrum lies cell by cell
in [min(1, p-1), max(1, q-1)].  The metric is therefore a preconditioner of
bounded quality for the Hessian, and a factor of it serves as one (below).
For p = q = 2, a' = 0: the Hessian is the metric, and the method converges
in one step.

The cell gradient is one sparse matrix per axis, built once per problem; the
energy, its gradient, the Hessian and the factored metric all use these
matrices and their transposes.  The metric with cell weights W is summed
axis by axis, op^T W op per axis: on equal spacing the couplings along the
lattice edges cancel exactly between the axes and the sparse sum drops them,
where one product of the stacked operators adds the same terms in another
order, leaves rounding residue in their place and more than doubles the fill
of the factor.

Each direction solves the Hessian, applied through the per-axis operators
without assembling it, by conjugate gradients to a fixed relative residual
(an inexact Newton forcing term, Eisenstat and Walker 1996).  The metric
changes little from one outer iteration to the next, so it is not factored
every time: CG is preconditioned by one cached sparse LU factor of an earlier
metric, made on the first outer iteration and made again only after a
direction needed more than a few CG iterations, the sign that the cached
metric has drifted.  CG started from zero returns a descent direction even
when stopped early.  In the Neumann case both operators have a kernel (the
constants, and from 2D on sign patterns such as the checkerboard, which the
averaged cell gradient cannot see); a tiny diagonal shift makes the factor
definite, and the operator CG applies adds the same shift, so the kernel is
no harder for CG than the rest.

The factor is made in SuperLU's symmetric mode: minimum degree ordering on
A^T + A and diagonal pivots (X. S. Li, "An overview of SuperLU", ACM TOMS 31,
2005).  That is safe because the metric is symmetric positive definite: a
weighted sum of Gram matrices of the cell gradient, with the Neumann shift
making the kernel modes definite too, so every diagonal pivot is positive.
It fills in much less than the default unsymmetric ordering (582k against
931k nonzeros in L + U on a 129 x 129 lattice).

A solve converges exactly when the max-norm of the energy gradient on the
free nodes at the returned iterate is at most ``grad_tol``; every other
ending is unconverged and says why (see ``solve``).  A ``grad_tol`` below
what rounding lets the gradient reach ends at the iteration cap.

A tiny regularization eps = ``_EPS_REG`` is added under the gradient powers
so the density stays differentiable at zero gradient when p < 2; the
constant shift is removed so the energy of the zero function is exactly
zero, and for p = 2 terms the regularization cancels identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations
from numbers import Real

import numpy as np

from .errors import ContractError, DomainError, HypothesisError
from .modular import GridDomain, GridFunction
from .phi_core import ExponentField

__all__ = [
    "ProblemSpec",
    "ConvergenceReport",
    "energy",
    "energy_gradient",
    "solve",
    "weak_residual",
]

# The regularization eps under the gradient powers (see the module docstring).
_EPS_REG = 1e-12
# The largest max_iter: 50 times the default, so an input cannot ask for hours
# of work (each iteration also keeps one energy in the report's history).
_MAX_ITER_CAP = 10_000


@dataclass(frozen=True)
class ProblemSpec:
    """A double-phase boundary value problem on a lattice.

    ``bc`` is "dirichlet-zero" (homogeneous essential condition; only interior
    nodes are degrees of freedom) or "neumann" (natural condition with
    boundary flux ``flux``).  Neumann data must be compatible: source and flux
    together integrate to zero and have no component along the sign patterns
    the cell gradient cannot see, or the energy is unbounded below along the
    kernel and ``DomainError`` is raised.  ``max_iter`` is at most
    ``_MAX_ITER_CAP``.
    """

    domain: GridDomain
    field: ExponentField
    f: GridFunction
    bc: str = "dirichlet-zero"
    flux: GridFunction | None = None
    grad_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if self.bc not in ("dirichlet-zero", "neumann"):
            raise DomainError(f"unknown boundary condition {self.bc!r}")
        tol = self.grad_tol
        if isinstance(tol, bool) or not isinstance(tol, Real) or not 0.0 <= tol < np.inf:
            raise DomainError(f"grad_tol must be a finite number >= 0, got {tol!r}")
        cap = self.max_iter
        if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)) or not 1 <= cap <= _MAX_ITER_CAP:
            raise DomainError(f"max_iter must be an integer from 1 to {_MAX_ITER_CAP}, got {cap!r:.40}")
        if self.f.domain.shape != self.domain.shape:
            raise DomainError("source term lives on a different grid")
        if self.field.shape not in ((), self.domain.shape):
            raise DomainError("exponent field lives on a different grid")
        mu = self.field.mu
        if np.any(self.field.p < 1.0) or np.any(self.field.q < 1.0) or not np.all((0.0 <= mu) & (mu < np.inf)):
            raise HypothesisError("need p, q >= 1 and a bounded mu >= 0 for a convex energy")
        if self.bc == "neumann" and self.flux is not None:
            if self.flux.domain.shape != self.domain.shape:
                raise DomainError("flux term lives on a different grid")
        if self.bc == "neumann":
            # Constants are free, so the energy is bounded below only when
            # the load integrates to zero.
            load = self._load
            scale = 1e-8 * float(np.sum(np.abs(load)))
            total = float(np.sum(load))
            if not abs(total) <= scale:
                raise DomainError(
                    f"incompatible Neumann data: source and flux integrate to {total:.3e}, not 0")
            # So are the sign patterns (-1)^(i_a + i_b) g(other indices), for
            # each pair of axes a < b: the averaged cell gradient cannot see
            # them, so the load must have no component along any of them.
            index = np.indices(load.shape)
            for a, b in combinations(range(load.ndim), 2):
                signs = 1.0 - 2.0 * ((index[a] + index[b]) % 2)
                worst = float(np.max(np.abs(np.sum(load * signs, axis=(a, b)))))
                if not worst <= scale:
                    raise DomainError(
                        f"incompatible Neumann data: the load has a component {worst:.3e} "
                        f"along the sign pattern (-1)^(i{a} + i{b}), not 0")

    @property
    def free_mask(self) -> np.ndarray:
        if self.bc == "dirichlet-zero":
            return ~self.domain.boundary_mask
        return np.ones(self.domain.shape, dtype=bool)

    @cached_property
    def _cells(self):
        """The exponent fields p, q and mu averaged to cell centers."""
        return tuple(_to_cells(self.domain, a) for a in (self.field.p, self.field.q, self.field.mu))

    @cached_property
    def _gradient(self):
        """The averaged cell gradient: per axis, the sparse matrix taking nodal
        values to that component on the cells, and its transpose (a CSC view
        on the same arrays, so it costs no memory)."""
        ops = _cell_operators(self.domain)
        return ops, [op.T for op in ops]

    @cached_property
    def _load(self) -> np.ndarray:
        """The nodal load: the source, plus the boundary flux when Neumann."""
        load = self.domain.interior_weights * self.f.values
        if self.bc == "neumann" and self.flux is not None:
            load = load + self.domain.boundary_weights * self.flux.values
        return load


# ---------------------------------------------------------------------------
# The cell gradient
# ---------------------------------------------------------------------------

def _cell_operators(domain: GridDomain):
    """Per axis, the CSR matrix taking nodal values to the cell differences
    along that axis averaged over the transverse corner pairs: the Kronecker
    product of a forward difference and pair averages, written out row by row
    (row c holds the 2^d corners of cell c, weighted +-1/h and 1/2 per other axis)."""
    import scipy.sparse as sp  # lazy: only a solve needs scipy.sparse (about 0.3 s to import)

    dim = domain.dim
    corners = np.indices((2,) * dim).reshape(dim, -1)
    first = np.ravel_multi_index(np.indices([n - 1 for n in domain.shape]).reshape(dim, -1), domain.shape)
    cols = (first[:, None] + np.ravel_multi_index(corners, domain.shape)).ravel()
    rows = np.arange(0, cols.size + 1, 2 ** dim)
    shape = (first.size, int(np.prod(domain.shape)))
    ops = []
    for axis, h in enumerate(domain.spacing):
        stencil = np.where(corners[axis] == 1, 1.0 / h, -1.0 / h) * 0.5 ** (dim - 1)
        ops.append(sp.csr_matrix((np.tile(stencil, first.size), cols, rows), shape=shape))
    return ops


def _components(spec: ProblemSpec, values: np.ndarray):
    """The per-axis components of the cell gradient of nodal ``values``."""
    return [op @ values.ravel() for op in spec._gradient[0]]


def _to_cells(domain: GridDomain, arr) -> np.ndarray:
    """Nodal values averaged to cell centers, flat in cell order."""
    arr = np.broadcast_to(np.asarray(arr, dtype=float), domain.shape)
    for axis in range(domain.dim):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        with np.errstate(over="ignore"):  # two nodes near the double range average to inf
            arr = 0.5 * (arr[lo] + arr[hi])
    return arr.ravel()


def _check_bc(spec: ProblemSpec, u: GridFunction):
    if u.domain.shape != spec.domain.shape:
        raise DomainError("grid function lives on a different grid")
    if spec.bc == "dirichlet-zero" and np.any(u.values[spec.domain.boundary_mask] != 0.0):
        raise ContractError("Dirichlet-zero problem evaluated at a function with nonzero boundary values")


def energy(spec: ProblemSpec, u: GridFunction) -> float:
    """Discrete double-phase energy minus the load terms."""
    _check_bc(spec, u)
    dom = spec.domain
    p, q, mu = spec._cells
    sq = sum(c * c for c in _components(spec, u.values)) + _EPS_REG
    # inf * 0 where the density overflows at a cell with zero gradient is NaN
    with np.errstate(invalid="ignore", over="ignore"):
        dens = (sq ** (p / 2) - _EPS_REG ** (p / 2)) / p + mu * (sq ** (q / 2) - _EPS_REG ** (q / 2)) / q
    bulk = dom.cell_measure * float(np.sum(dens))
    return bulk - float(np.sum(spec._load * u.values))


def _diffusivity(comps, p, q, mu):
    """The coefficient a = s^((p-2)/2) + mu s^((q-2)/2) of the density's
    gradient on cells, with s = |grad u|^2 + eps, and its derivative da/ds."""
    sq = sum(c * c for c in comps) + _EPS_REG
    low = sq ** ((p - 2.0) / 2.0)
    high = mu * sq ** ((q - 2.0) / 2.0)
    return low + high, (0.5 * (p - 2.0) * low + 0.5 * (q - 2.0) * high) / sq


def energy_gradient(spec: ProblemSpec, u: GridFunction) -> GridFunction:
    """Exact nodal gradient of the discrete energy.

    Boundary components are zeroed for the Dirichlet problem since boundary
    nodes are not degrees of freedom.
    """
    _check_bc(spec, u)
    return GridFunction(spec.domain, _energy_gradient(spec, u.values)[0])


def _energy_gradient(spec: ProblemSpec, values: np.ndarray):
    """The energy gradient at nodal ``values``, with what the Hessian at the
    same iterate is built from: the cell gradient components, the
    coefficient a on cells and its derivative a'."""
    dom = spec.domain
    comps = _components(spec, values)
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 as in ``energy``
        coeff, dcoeff = _diffusivity(comps, *spec._cells)
        weight = dom.cell_measure * coeff
        grad = sum(t @ (weight * c) for t, c in zip(spec._gradient[1], comps))
    grad = grad.reshape(dom.shape) - spec._load
    if spec.bc == "dirichlet-zero":
        grad = np.where(dom.boundary_mask, 0.0, grad)
    return grad, comps, coeff, dcoeff


def splu(M):
    """Sparse LU factor of the symmetric positive definite metric ``M``, made
    in SuperLU's symmetric mode (see the module docstring)."""
    from scipy.sparse.linalg import splu as superlu

    return superlu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})


def _metric(spec: ProblemSpec, coeff_cells: np.ndarray, free_idx):
    """Factor the metric, the Hessian without its term along the cell
    gradient, on the free nodes.

    Returns the LU factor and the diagonal shift that was added to the matrix
    before factoring (zero unless the problem is Neumann).
    """
    import scipy.sparse as sp

    w = sp.diags(spec.domain.cell_measure * coeff_cells.ravel())
    # Per axis: equal-spacing edge couplings cancel exactly; a stacked product leaves fill-in residue.
    terms = [t @ w @ op for op, t in zip(*spec._gradient)]
    M = sum(terms[1:], terms[0])[free_idx, :][:, free_idx].tocsc()
    shift = 0.0
    if spec.bc == "neumann":
        # Constants (and, from 2D on, sign patterns such as the checkerboard)
        # are in the kernel; a tiny diagonal shift keeps the factorization
        # well posed without disturbing the descent direction.
        shift = 1e-10 * float(np.mean(M.diagonal()) + 1.0)
        M = M + shift * sp.identity(M.shape[0], format="csc")
    return splu(M), shift


def _hessian_operator(spec: ProblemSpec, comps, coeff_cells, dcoeff_cells, free_idx, shift: float):
    """The Hessian of the energy on the free nodes, applied without assembling it.

    Per cell the density's Hessian in the cell gradient g is a I + 2 a' g g^T,
    with a = ``coeff_cells``, a' = ``dcoeff_cells`` and g = ``comps``.  With
    a' = 0 it is the matrix that ``_metric`` factors for the same coefficients.
    Both add ``shift`` times the identity, which must be the shift of the
    factor used as preconditioner: the kernel modes see only the shift, in both.
    """
    ops, adjoints = spec._gradient
    cell = spec.domain.cell_measure
    weight = cell * np.ravel(coeff_cells)
    along = [2.0 * cell * np.ravel(dcoeff_cells) * c for c in comps]
    full = np.zeros(ops[0].shape[1])

    def apply(v):
        full[free_idx] = v
        dv = [op @ full for op in ops]
        g_dv = sum(c * d for c, d in zip(comps, dv))
        return sum(t @ (weight * d + g_dv * b) for t, d, b in zip(adjoints, dv, along))[free_idx] + shift * v

    return apply


# Forcing term of the inexact linear solves (Eisenstat-Walker with a fixed
# tolerance): CG stops once the residual is this fraction of the right side.
_CG_RTOL = 1e-2
# A cached factor that needed more CG iterations than this is refactored at
# the next outer iteration: by then a fresh factor is cheaper than the solves.
_STALE_AFTER = 6
# Upper bound on the CG iterations of one direction.  Any CG iterate started
# from zero is a descent direction, so stopping early is safe.
_CG_MAXITER = 50


def _pcg(apply, precondition, b):
    """Preconditioned CG for ``apply(x) = b`` from ``x = 0``.

    Stops at relative residual ``_CG_RTOL``, after ``_CG_MAXITER`` iterations,
    or when the operator is not positive along the search direction.  Returns
    the iterate and the number of iterations taken.
    """
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    d = z.copy()
    rz = float(r @ z)
    target = _CG_RTOL * float(np.linalg.norm(b))
    its = 0
    while its < _CG_MAXITER:
        ad = apply(d)
        dad = float(d @ ad)
        if not dad > 0.0:
            break
        step = rz / dad
        x += step * d
        r -= step * ad
        its += 1
        if float(np.linalg.norm(r)) <= target:
            break
        z = precondition(r)
        rz, rz_old = float(r @ z), rz
        d = z + (rz / rz_old) * d
    return x, its


@dataclass
class ConvergenceReport:
    """How a solve ended.  ``converged`` is true exactly when ``grad_norm``, the
    gradient at the returned iterate, is at most ``grad_tol``.  ``factorizations``
    counts the sparse LU factors made and ``linear_iterations`` the CG
    iterations of all outer iterations."""

    converged: bool
    iterations: int
    energy: float
    grad_norm: float
    step_norm: float
    message: str
    energy_history: list = dc_field(default_factory=list)
    factorizations: int = 0
    linear_iterations: int = 0


def solve(spec: ProblemSpec, u0: GridFunction | None = None):
    """Minimize the discrete energy; returns (solution, ConvergenceReport).

    Inexact Newton-CG with Armijo backtracking: each direction solves the
    exact Hessian by CG, preconditioned by a cached factor of the metric (see
    the module docstring).  An accepted step passes the Armijo test, or it
    raises the energy by at most its rounding level 1e-12 max(1, |E|) and
    passes the approximate Wolfe test of Hager and Zhang (SIAM J. Optim. 16,
    2005) on the directional derivative, which stays accurate where energy
    differences do not.  The
    solve converges when the gradient at an iterate drops to ``grad_tol``;
    a gradient or direction that is not finite, a direction that does not
    descend, a metric that cannot be factored, a failed line search and the
    iteration cap return the last iterate with ``converged=False``.  Either
    way ``grad_norm`` is the gradient at the returned iterate.
    """
    dom = spec.domain
    free = spec.free_mask
    free_idx = np.nonzero(free.ravel())[0]

    if u0 is None:
        u = np.zeros(dom.shape)
    else:
        _check_bc(spec, u0)
        u = u0.values.copy()

    history = []
    e = energy(spec, GridFunction(dom, u))
    grad_norm = step_norm = np.inf
    converged = False
    lu = None
    factorizations = linear_iterations = 0
    for it in range(1, spec.max_iter + 1):
        g, comps, coeff, dcoeff = _energy_gradient(spec, u)
        grad_norm = float(np.max(np.abs(g[free])))
        if not np.isfinite(grad_norm):
            message = "energy gradient is not finite (the data overflow the double range)"
            break
        if grad_norm <= spec.grad_tol:
            converged, message = True, "gradient tolerance reached"
            break

        if lu is None:
            try:
                lu, shift = _metric(spec, coeff, free_idx)
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                message = f"metric factorization failed: {exc}"
                break
            factorizations += 1
        # Data near the double range overflow CG's inner products: the direction is then not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            apply = _hessian_operator(spec, comps, coeff, dcoeff, free_idx, shift)
            x, its = _pcg(apply, lu.solve, -g.ravel()[free_idx])
            direction = np.zeros(dom.shape)
            direction.ravel()[free_idx] = x
            slope = float(np.sum(g[free] * direction[free]))
        linear_iterations += its
        if its > _STALE_AFTER:
            lu = None
        if not np.isfinite(slope):
            message = "Newton direction is not finite (the data overflow the double range)"
            break
        if not slope < 0.0:
            message = "Newton direction is not a descent direction"
            break
        alpha = 1.0
        for _ in range(60):
            trial = u + alpha * direction
            e_trial = energy(spec, GridFunction(dom, trial))
            if e_trial <= e + 1e-4 * alpha * slope:
                break
            # Near the solution the Armijo test fails on the energy's rounding noise.
            if e_trial <= e + 1e-12 * max(1.0, abs(e)):
                d_trial = float(np.sum(_energy_gradient(spec, trial)[0][free] * direction[free]))
                if 0.9 * slope <= d_trial <= -0.8 * slope:
                    break
            alpha *= 0.5
        else:
            message = "line search failed"
            break
        step_norm = alpha * float(np.max(np.abs(direction[free])))
        u = trial
        e = e_trial
        history.append(e)
    else:  # the cap: the gradient at the returned iterate decides
        grad_norm = weak_residual(spec, GridFunction(dom, u))
        converged = grad_norm <= spec.grad_tol
        message = "gradient tolerance reached" if converged else "iteration cap reached"

    report = ConvergenceReport(converged, it, e, grad_norm, step_norm, message, history,
                               factorizations, linear_iterations)
    return GridFunction(dom, u), report


def weak_residual(spec: ProblemSpec, u: GridFunction) -> float:
    """Largest violation of the discrete weak form over the nodal hat basis:
    the max-norm of the energy gradient over the free nodes, which vanishes
    exactly at the discrete weak solution."""
    g = energy_gradient(spec, u).values
    return float(np.max(np.abs(g[spec.free_mask])))
