import functools

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from musielak import (
    DomainError,
    GridDomain,
    GridFunction,
    ProblemSpec,
    TruncationLevels,
    energy,
    energy_gradient,
    solve,
    two_sided_bound,
    weak_residual,
)
from musielak import solver as solver_impl


def interval_problem(n=129, p=2.0, q=2.0, mu=0.0, f=1.0, N=3, **kw):
    dom = GridDomain.interval(n)
    field = dom.constant_field(N, p, q, mu)
    return ProblemSpec(dom, field, GridFunction.constant(dom, f), **kw)


def dense_newton_oracle(spec, tol=1e-12, max_iter=60):
    """Independent minimizer: damped Newton with finite-difference Hessian."""
    dom = spec.domain
    free = np.nonzero(spec.free_mask.ravel())[0]
    u = np.zeros(dom.shape)

    def grad(vec):
        full = np.zeros(dom.shape)
        full.ravel()[free] = vec
        return energy_gradient(spec, GridFunction(dom, full)).values.ravel()[free]

    vec = u.ravel()[free].copy()
    for _ in range(max_iter):
        g = grad(vec)
        if np.max(np.abs(g)) <= tol:
            break
        h = 1e-7
        H = np.empty((free.size, free.size))
        for j in range(free.size):
            e = np.zeros(free.size)
            e[j] = h
            H[:, j] = (grad(vec + e) - grad(vec - e)) / (2 * h)
        H = 0.5 * (H + H.T)
        step = np.linalg.solve(H, -g)
        t = 1.0
        e0 = None
        for _ in range(40):
            trial = vec + t * step
            full = np.zeros(dom.shape)
            full.ravel()[free] = trial
            et = energy(spec, GridFunction(dom, full))
            if e0 is None:
                full0 = np.zeros(dom.shape)
                full0.ravel()[free] = vec
                e0 = energy(spec, GridFunction(dom, full0))
            if et <= e0:
                vec = trial
                break
            t *= 0.5
    out = np.zeros(dom.shape)
    out.ravel()[free] = vec
    return GridFunction(dom, out)


class TestEnergy:
    def test_zero_function_zero_energy(self):
        spec = interval_problem(f=2.0)
        assert energy(spec, GridFunction.constant(spec.domain, 0.0)) == 0.0

    def test_quadratic_form_oracle(self, rng):
        # p = q = 2, mu = 0: energy is the hand-coded Dirichlet quadratic form
        spec = interval_problem(n=65, f=1.0)
        dom = spec.domain
        h = dom.spacing[0]
        vals = rng.normal(size=65)
        vals[0] = vals[-1] = 0.0
        u = GridFunction(dom, vals)
        hand = 0.5 * np.sum((np.diff(vals) / h) ** 2) * h - np.sum(dom.interior_weights * vals)
        assert energy(spec, u) == pytest.approx(hand, abs=1e-10)

    def test_dirichlet_contract_violation(self):
        spec = interval_problem()
        with pytest.raises(DomainError, match="Dirichlet-zero problem .* nonzero boundary values"):
            energy(spec, GridFunction.constant(spec.domain, 1.0))

    def test_convexity_of_gradient_part(self, rng):
        spec = interval_problem(n=49, p=2.0, q=3.0, mu=1.0, f=0.0, N=5)
        dom = spec.domain
        for _ in range(20):
            a = rng.normal(size=49)
            b = rng.normal(size=49)
            a[0] = a[-1] = b[0] = b[-1] = 0.0
            mid = energy(spec, GridFunction(dom, 0.5 * (a + b)))
            avg = 0.5 * (energy(spec, GridFunction(dom, a)) + energy(spec, GridFunction(dom, b)))
            assert mid <= avg + 1e-12 * max(1.0, abs(avg))


class TestOtherLattice:
    DOM, OTHER = GridDomain.interval(9), GridDomain.interval(11)

    @pytest.mark.parametrize("part,what", [("f", "source term"), ("flux", "flux term"), ("field", "exponent field")])
    def test_problem_data_on_another_lattice_is_a_domain_error(self, part, what):
        kw = {"field": self.DOM.constant_field(3, 2.0, 2.2, 0.5), "f": GridFunction.constant(self.DOM, 0.0)}
        kw[part] = (self.OTHER.constant_field(3, 2.0, 2.2, 0.5) if part == "field"
                    else GridFunction.constant(self.OTHER, 0.0))
        with pytest.raises(DomainError, match=f"{what} lives on a different grid"):
            ProblemSpec(self.DOM, bc="neumann", **kw)

    def test_energy_at_a_function_on_another_lattice_is_a_domain_error(self):
        spec = ProblemSpec(self.DOM, self.DOM.constant_field(3, 2.0, 2.2, 0.5), GridFunction.constant(self.DOM, 1.0))
        with pytest.raises(DomainError, match="grid function lives on a different grid"):
            energy(spec, GridFunction.constant(self.OTHER, 0.0))


class TestEnergyGradient:
    def test_zero_at_origin_without_load(self):
        spec = interval_problem(f=0.0)
        g = energy_gradient(spec, GridFunction.constant(spec.domain, 0.0))
        assert np.all(g.values == 0.0)

    def test_finite_difference_directional(self, rng):
        spec = interval_problem(n=49, p=2.0, q=3.0, mu=0.7, f=0.5, N=5)
        dom = spec.domain
        uv = rng.normal(size=49)
        vv = rng.normal(size=49)
        uv[0] = uv[-1] = vv[0] = vv[-1] = 0.0
        u = GridFunction(dom, uv)
        g = energy_gradient(spec, u).values
        eps = 1e-6
        ep = energy(spec, GridFunction(dom, uv + eps * vv))
        em = energy(spec, GridFunction(dom, uv - eps * vv))
        fd = (ep - em) / (2 * eps)
        directional = float(np.sum(g * vv))
        assert fd == pytest.approx(directional, rel=1e-5)

    def test_linear_case_matches_stiffness_pattern(self, rng):
        # p = q = 2, mu = 0: gradient is K u - load with the tridiagonal K
        spec = interval_problem(n=33, f=1.0)
        dom = spec.domain
        h = dom.spacing[0]
        vals = rng.normal(size=33)
        vals[0] = vals[-1] = 0.0
        g = energy_gradient(spec, GridFunction(dom, vals)).values
        K = (np.diag(np.full(33, 2.0)) - np.diag(np.ones(32), 1) - np.diag(np.ones(32), -1)) / h
        hand = K @ vals - dom.interior_weights
        hand[0] = hand[-1] = 0.0
        assert np.max(np.abs(g - hand)) <= 1e-10


class TestSolve:
    def test_zero_source_gives_zero(self):
        spec = interval_problem(f=0.0)
        u, rep = solve(spec)
        assert rep.converged
        assert np.max(np.abs(u.values)) <= 1e-12

    def test_poisson_matches_parabola(self):
        spec = interval_problem(n=1025)
        u, rep = solve(spec)
        x = spec.domain.axes[0]
        assert rep.converged
        assert np.max(np.abs(u.values - x * (1 - x) / 2)) <= 1e-4

    def test_double_phase_matches_newton_oracle(self):
        spec = interval_problem(n=129, p=2.0, q=4.0, mu=1.0, N=5, grad_tol=1e-12)
        u, rep = solve(spec)
        assert rep.converged
        oracle = dense_newton_oracle(spec)
        assert np.max(np.abs(u.values - oracle.values)) <= 1e-6

    def test_energy_monotone_along_iterations(self):
        spec = interval_problem(n=257, p=2.0, q=4.0, mu=1.0, N=5)
        _, rep = solve(spec)
        assert all(np.diff(rep.energy_history) <= 1e-13)

    def test_initialization_independence(self, rng):
        spec = interval_problem(n=129, p=2.0, q=3.0, mu=0.5, N=5, grad_tol=1e-12)
        u0, _ = solve(spec)
        init = rng.normal(size=129)
        init[0] = init[-1] = 0.0
        u1, _ = solve(spec, u0=GridFunction(spec.domain, init))
        assert np.max(np.abs(u0.values - u1.values)) <= 1e-8

    def test_vanishing_weight_ignores_q(self):
        a, _ = solve(interval_problem(n=129, p=2.0, q=2.5, mu=0.0, N=5))
        b, _ = solve(interval_problem(n=129, p=2.0, q=4.5, mu=0.0, N=6))
        assert np.max(np.abs(a.values - b.values)) <= 1e-10

    def test_equal_exponents_rescale(self):
        # p = q means the weight only rescales the operator: with mu = 1 the
        # solution halves relative to mu = 0
        a, _ = solve(interval_problem(n=129, p=2.0, q=2.0, mu=0.0))
        b, _ = solve(interval_problem(n=129, p=2.0, q=2.0, mu=1.0))
        assert np.max(np.abs(b.values - a.values / 2)) <= 1e-9

    def test_2d_problem_converges(self):
        dom = GridDomain.box((33, 33))
        field = dom.constant_field(4, 2.0, 3.0, 1.0)
        spec = ProblemSpec(dom, field, GridFunction.constant(dom, 1.0))
        u, rep = solve(spec)
        assert rep.converged
        assert weak_residual(spec, u) <= 1e-8
        assert np.max(u.values) > 0

    def test_iteration_cap_reports_not_converged(self):
        spec = interval_problem(n=257, p=2.0, q=4.0, mu=1.0, N=5, max_iter=1, grad_tol=1e-14)
        _, rep = solve(spec)
        assert not rep.converged
        assert rep.message == "iteration cap reached"


class TestNeumann:
    def make_spec(self, n=129):
        dom = GridDomain.interval(n)
        field = dom.constant_field(3, 2.0, 2.2, 0.5)
        x = dom.axes[0]
        f = GridFunction(dom, np.sin(2 * np.pi * x))  # compatible: zero mean
        return ProblemSpec(dom, field, f, bc="neumann")

    def test_zero_data_zero_solution(self):
        dom = GridDomain.interval(65)
        field = dom.constant_field(3, 2.0, 2.2, 0.5)
        spec = ProblemSpec(dom, field, GridFunction.constant(dom, 0.0), bc="neumann")
        u, rep = solve(spec)
        assert rep.converged
        assert weak_residual(spec, u) <= 1e-10
        assert np.max(np.abs(u.values - np.mean(u.values))) <= 1e-10

    def test_compatible_source_converges(self):
        spec = self.make_spec()
        u, rep = solve(spec)
        assert rep.converged
        assert weak_residual(spec, u) <= 1e-8

    def test_weak_residual_positive_off_solution(self, rng):
        spec = self.make_spec(65)
        u = GridFunction(spec.domain, rng.normal(size=65))
        assert weak_residual(spec, u) > 1e-4


class TestWeakResidual:
    def test_at_minimizer_small(self):
        spec = interval_problem(n=129, p=2.0, q=3.0, mu=1.0, N=5, grad_tol=1e-11)
        u, _ = solve(spec)
        assert weak_residual(spec, u) <= 1e-10

    def test_custom_basis_directional(self, rng):
        spec = interval_problem(n=65, p=2.0, q=3.0, mu=1.0, N=5)
        u, _ = solve(spec)
        basis = []
        for _ in range(4):
            v = rng.normal(size=65)
            v[0] = v[-1] = 0.0
            basis.append(v)
        g = energy_gradient(spec, u).values
        assert max(abs(float(np.sum(g * v))) for v in basis) <= 1e-8

    def test_random_function_fails_stationarity(self, rng):
        spec = interval_problem(n=65, p=2.0, q=3.0, mu=1.0, N=5)
        vals = rng.normal(size=65)
        vals[0] = vals[-1] = 0.0
        assert weak_residual(spec, GridFunction(spec.domain, vals)) > 1e-4


class TestSolutionsFeedTruncationMachinery:
    def test_dirichlet_solution_bounded_via_iteration(self):
        spec = interval_problem(n=257, p=2.0, q=2.2, mu=1.0, N=3)
        u, rep = solve(spec)
        assert rep.converged
        top = float(np.max(np.abs(u.values)))
        report = two_sided_bound(TruncationLevels(u, spec.field, "subcritical-D", r=3.0, s=3.5),
                                 kappa_star_grid=np.geomspace(top / 16, top + 0.1, 10))
        assert report.found and report.bound_ok


def exact_1d_solution(p, q, mu, x):
    """The solution of -(psi(s, u'))' = 1 on (0, 1) with u(0) = u(1) = 0 at
    the increasing nodes ``x`` (from 0 to 1), where psi(s, t) = |t|^(p-2) t
    + mu |t|^(q-2) t and p, q, mu are functions of s.  The flux is
    psi(s, u') = c - s, so u' = psi(s, .)^-1(c - s), with c fixed by the
    integral of u' over (0, 1) being 0, and u is the integral of u'."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    def du(s, c):
        flux = c - s
        if flux == 0.0:
            return 0.0
        a, b, m = p(s), q(s), mu(s)
        # tau^(a-1) + m tau^(b-1) = |flux| has its root below |flux|^(1/(a-1))
        tau = brentq(lambda t: t ** (a - 1) + m * t ** (b - 1) - abs(flux), 0.0, abs(flux) ** (1 / (a - 1)),
                     xtol=1e-15)
        return np.copysign(tau, flux)

    def integral(lo, hi, c):
        return quad(du, lo, hi, args=(c,), points=[c] if lo < c < hi else None, epsabs=1e-14)[0]

    c = brentq(lambda c: integral(0.0, 1.0, c), 0.0, 1.0, xtol=1e-14)
    return np.concatenate([[0.0], np.cumsum([integral(lo, hi, c) for lo, hi in zip(x[:-1], x[1:])])])


# The exponent fields of the 1D oracle cases, as functions of s, and the node counts solved.
ORACLE_CASES = {
    "constant": ((lambda s: 1.6, lambda s: 2.9, lambda s: 0.7), (17, 33, 65, 129, 257)),
    # n = 257 stops at the iteration cap at the default grad_tol
    "variable": ((lambda s: 1.5 + 0.3 * s, lambda s: 2.2 + 0.5 * s * s, lambda s: 0.5 + np.sin(np.pi * s) ** 2),
                 (17, 33, 65, 129)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_the_1d_solve_converges_to_the_exact_solution_at_second_order(case):
    (p, q, mu), sizes = ORACLE_CASES[case]
    fine = GridDomain.interval(sizes[-1]).axes[0]
    exact = exact_1d_solution(p, q, mu, fine)
    errors = []
    for n in sizes:
        dom = GridDomain.interval(n)
        x = dom.axes[0]
        field = dom.constant_field(3, p(x), q(x), mu(x))
        u, rep = solve(ProblemSpec(dom, field, GridFunction.constant(dom, 1.0)))
        assert rep.converged, (n, rep.message)
        errors.append(np.max(np.abs(u.values - exact[::(sizes[-1] - 1) // (n - 1)])))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 1.9), (errors, orders)


def test_the_bound_check_of_the_1d_solve_meets_the_exact_supremum():
    # The constant case is symmetric, so max u = u(1/2), a node of every lattice.
    (p, q, mu), _ = ORACLE_CASES["constant"]
    sizes = (65, 129, 257)
    top = float(np.max(exact_1d_solution(p, q, mu, GridDomain.interval(sizes[-1]).axes[0])))
    errors = []
    for n in sizes:
        dom = GridDomain.interval(n)
        x = dom.axes[0]
        field = dom.constant_field(3, p(x), q(x), mu(x))
        u, rep = solve(ProblemSpec(dom, field, GridFunction.constant(dom, 1.0)))
        assert rep.converged, (n, rep.message)
        # r and s at the middle of their windows, and the CLI's default kappa grid
        r, s = 0.5 * (field.p + field.critical("p")), 0.5 * (field.q + field.critical("q"))
        high = float(np.max(np.abs(u.values))) + 1.0
        report = two_sided_bound(TruncationLevels(u, field, "subcritical-D", r=r, s=s),
                                 np.geomspace(high / 64.0, high, 16))
        assert report.found and report.bound_ok, n
        assert 2.0 * report.kappa_star >= top, n
        errors.append(abs(report.esssup - top))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 1.9), (errors, orders)


def _manufactured_2d(x, y):
    """u = sin(pi x) sin(pi y) (1 + 0.3 x) on the unit square, its exponent
    field p = 2.2 + 0.3 x, q = 2.8 + 0.2 y, mu = 0.5 + x y, and the load
    f = -div((|grad u|^(p-2) + mu |grad u|^(q-2)) grad u): grad u is exact,
    the divergence a fourth-order central difference of the exact flux."""
    pi = np.pi

    def exponents(x, y):
        return 2.2 + 0.3 * x, 2.8 + 0.2 * y, 0.5 + x * y

    def flux(x, y):
        gx = pi * np.cos(pi * x) * np.sin(pi * y) * (1 + 0.3 * x) + 0.3 * np.sin(pi * x) * np.sin(pi * y)
        gy = pi * np.sin(pi * x) * np.cos(pi * y) * (1 + 0.3 * x)
        t = np.hypot(gx, gy)
        p, q, mu = exponents(x, y)
        a = t ** (p - 2) + mu * t ** (q - 2)
        return a * gx, a * gy

    h = 1e-4

    def central(g):
        return (-g(2 * h) + 8 * g(h) - 8 * g(-h) + g(-2 * h)) / (12 * h)

    div = central(lambda d: flux(x + d, y)[0]) + central(lambda d: flux(x, y + d)[1])
    u = np.sin(pi * x) * np.sin(pi * y) * (1 + 0.3 * x)
    return u, exponents(x, y), -div


def test_the_2d_solve_converges_to_a_manufactured_solution_at_second_order():
    errors = []
    for n in (17, 33, 65, 129):
        dom = GridDomain.box((n, n))
        exact, (p, q, mu), f = _manufactured_2d(*dom.coordinates)
        u, rep = solve(ProblemSpec(dom, dom.constant_field(4, p, q, mu), GridFunction(dom, f)))
        assert rep.converged, (n, rep.message)
        errors.append(float(np.max(np.abs(u.values - exact))))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 1.8), (errors, orders)
    assert errors[-1] <= 4e-4, errors


# p > 2: u' is only Holder continuous, with exponent 1 / (p - 1), where it vanishes.
HOLDER_P = 2.5
HOLDER_SIZES = (17, 33, 65, 129, 257)


@functools.lru_cache(maxsize=None)
def _holder_case_solve(n):
    """The 1D solve with p = 2.5, q = 4, mu = 1, f = 1 on n nodes, and its
    maximum nodal error against the exact solution."""
    p, q, mu = (lambda s: HOLDER_P), (lambda s: 4.0), (lambda s: 1.0)
    exact = exact_1d_solution(p, q, mu, GridDomain.interval(HOLDER_SIZES[-1]).axes[0])
    dom = GridDomain.interval(n)
    x = dom.axes[0]
    u, rep = solve(ProblemSpec(dom, dom.constant_field(3, p(x), q(x), mu(x)), GridFunction.constant(dom, 1.0)))
    return rep, float(np.max(np.abs(u.values - exact[::(HOLDER_SIZES[-1] - 1) // (n - 1)])))


@pytest.mark.parametrize("n", HOLDER_SIZES)
def test_the_1d_solve_above_p_2_errs_within_the_holder_rate(n):
    # Measured: error / h^(1 + 1/(p-1)) falls from 0.157 (n = 17) to 0.096 (n = 257).
    h = 1.0 / (n - 1)
    assert _holder_case_solve(n)[1] <= 0.2 * h ** (1.0 + 1.0 / (HOLDER_P - 1.0))


@pytest.mark.parametrize("n", HOLDER_SIZES)
def test_the_1d_solve_above_p_2_converges(n):
    rep, _ = _holder_case_solve(n)
    assert rep.converged, rep.message


def test_a_solve_below_the_energys_rounding_floor_reaches_the_default_tolerance():
    # Near the solution the decrease a step predicts is below the rounding
    # error of the energy sum, so the Armijo test fails on noise; only the
    # approximate Wolfe test accepts the steps that reach grad_tol 1e-10.
    dom = GridDomain.interval(257)
    x = dom.axes[0]
    field = dom.constant_field(3, 1.5 + 0.3 * x, 2.2 + 0.5 * x**2, 0.5 + np.sin(np.pi * x) ** 2)
    spec = ProblemSpec(dom, field, GridFunction.constant(dom, 1.0))
    u, rep = solve(spec)
    assert rep.converged, rep.message
    assert rep.iterations < 30
    assert weak_residual(spec, u) <= spec.grad_tol


# ---------------------------------------------------------------------------
# Cached metric factor reused as a CG preconditioner
# ---------------------------------------------------------------------------


def lattice_problem(shape, regime, bc, variable, load):
    """A smaller copy of one lattice-solve benchmark problem, with the
    nominal data of the benchmark generator and no seeded jitter."""
    dom = GridDomain.box(shape)
    x = dom.coordinates
    p, q = {"low": (1.5, 2.25), "high": (2.2, 2.5), "quadratic": (2.0, 2.0)}[regime]
    mu = 1.0
    if variable:
        p = p + 0.08 * np.sin(np.pi * x[0])
        q = q + 0.08 * np.cos(np.pi * x[-1])
        mu = 1.0 + 0.5 * np.sin(2.0 * np.pi * x[0] * x[-1])
    field = dom.constant_field(3, p, q, mu)
    if bc == "neumann":
        # odd about the box centre, so the load integrates to zero
        f, flux = load * np.cos(np.pi * x[0]), GridFunction.constant(dom, 0.0)
    else:
        f, flux = np.full(shape, load), None
    return ProblemSpec(dom, field, GridFunction(dom, f), bc=bc, flux=flux, grad_tol=1e-8)


# The seven lattice-solve problems on smaller lattices, with the outer
# iteration count of the Newton-CG solve, and the energy that the
# lagged-diffusivity iteration with one splu per outer iteration gave.
SMALL_SOLVES = {
    "s65-dir-const-plow": (((33, 33), "low", "dirichlet-zero", False, 8.0), 8, -0.48932429040226566),
    "s65-dir-var-phigh": (((33, 33), "high", "dirichlet-zero", True, 10.0), 6, -0.985523402064393),
    "s65-neu-var-plow": (((33, 33), "low", "neumann", True, 6.0), 11, -0.356089514238103),
    "s65-dir-p2q2": (((33, 33), "quadratic", "dirichlet-zero", False, 25.0), 2, -5.637405972997269),
    "s129-dir-var-plow": (((49, 49), "low", "dirichlet-zero", True, 8.0), 9, -0.47789916217147066),
    "s129-dir-const-phigh": (((49, 49), "high", "dirichlet-zero", False, 10.0), 6, -1.0015327738356947),
    "s17c-dir-const-phigh": (((9, 9, 9), "high", "dirichlet-zero", False, 10.0), 5, -1.0296358418479412),
}


def metric_operator(spec, coeff, free_idx, shift):
    """The Hessian operator with a' = 0: the metric that ``_metric`` factors
    for ``coeff``, plus ``shift``.  The cell gradient it is given does not
    matter, since its term is scaled by a' = 0."""
    comps = [np.ones(op.shape[0]) for op in spec._gradient[0]]
    return solver_impl._hessian_operator(spec, comps, coeff, 0.0, free_idx, shift)


class TestFactorReuse:
    @pytest.mark.parametrize("bc", ["dirichlet-zero", "neumann"])
    def test_fresh_factor_direction_is_the_direct_solve(self, rng, bc):
        spec = lattice_problem((17, 13), "low", bc, True, 6.0)
        dom = spec.domain
        free_idx = np.nonzero(spec.free_mask.ravel())[0]
        cells = tuple(n - 1 for n in dom.shape)
        coeff = rng.uniform(0.1, 10.0, cells)
        lu, shift = solver_impl._metric(spec, coeff, free_idx)
        assert (shift > 0.0) == (bc == "neumann")
        apply = metric_operator(spec, coeff, free_idx, shift)
        # an energy gradient, like every right side in solve: orthogonal to
        # the kernel of the Neumann metric
        u = GridFunction(dom, np.where(spec.free_mask, rng.normal(size=dom.shape), 0.0))
        b = -energy_gradient(spec, u).values.ravel()[free_idx]
        direct = lu.solve(b)
        x, its = solver_impl._pcg(apply, lu.solve, b)
        assert its == 1
        assert np.linalg.norm(x - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_kernel_modes_see_only_the_shift(self):
        # Constants and the checkerboard have zero cell gradient, so the
        # operator and the factor must both act on them by the shift alone.
        spec = lattice_problem((9, 7), "low", "neumann", False, 6.0)
        free_idx = np.arange(63)
        coeff = np.ones((8, 6))
        apply = metric_operator(spec, coeff, free_idx, 0.25)
        checker = np.indices((9, 7)).sum(axis=0) % 2 * 2.0 - 1.0
        for mode in (np.ones(63), checker.ravel()):
            assert np.allclose(apply(mode), 0.25 * mode, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(SMALL_SOLVES))
    def test_newton_iterations_and_energy_match_the_reference(self, name):
        args, iterations, energy_ref = SMALL_SOLVES[name]
        spec = lattice_problem(*args)
        u, rep = solve(spec)
        assert rep.converged
        assert abs(rep.iterations - iterations) <= 2
        assert rep.energy == pytest.approx(energy_ref, rel=1e-10)
        assert weak_residual(spec, u) <= spec.grad_tol

    def test_quadratic_problem_is_one_step(self):
        spec = lattice_problem(*SMALL_SOLVES["s65-dir-p2q2"][0])
        _, rep = solve(spec)
        assert rep.iterations == 2
        assert (rep.factorizations, rep.linear_iterations) == (1, 1)

    def test_2d_neumann_with_checkerboard_kernel_converges(self):
        dom = GridDomain.box((25, 17), lengths=(1.0, 0.5))
        x = dom.coordinates[0]
        spec = ProblemSpec(dom, dom.constant_field(4, 2.2, 3.0, 1.0),
                           GridFunction(dom, 5.0 * np.cos(np.pi * x)), bc="neumann", grad_tol=1e-9)
        u, rep = solve(spec)
        assert rep.converged
        assert weak_residual(spec, u) <= spec.grad_tol

    def test_splu_hook_counts_every_factorization(self, monkeypatch):
        calls = []
        real = solver_impl.splu

        def counting(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(solver_impl, "splu", counting)
        _, rep = solve(lattice_problem(*SMALL_SOLVES["s129-dir-var-plow"][0]))
        assert len(calls) == rep.factorizations
        # refreshed at least once as the metric drifts, far from once per step
        assert 1 < rep.factorizations <= rep.iterations // 4
        assert rep.linear_iterations >= rep.iterations - 1


# ---------------------------------------------------------------------------
# The exact Hessian that CG applies
# ---------------------------------------------------------------------------


def hessian_at(rng, spec):
    """The Hessian operator (no shift) at a random iterate of ``spec``, that
    iterate, and the free nodes."""
    dom = spec.domain
    free_idx = np.nonzero(spec.free_mask.ravel())[0]
    u = np.where(spec.free_mask, rng.normal(size=dom.shape), 0.0)
    _, comps, coeff, dcoeff = solver_impl._energy_gradient(spec, u)
    return solver_impl._hessian_operator(spec, comps, coeff, dcoeff, free_idx, 0.0), u, free_idx


HESSIAN_PROBLEMS = {
    "2d-dir-var-plow": lambda: lattice_problem((17, 13), "low", "dirichlet-zero", True, 6.0),
    "3d-neu-var-phigh": lambda: lattice_problem((7, 6, 5), "high", "neumann", True, 6.0),
}


class TestHessianOperator:
    @pytest.mark.parametrize("name", sorted(HESSIAN_PROBLEMS))
    def test_is_the_derivative_of_the_energy_gradient(self, rng, name):
        spec = HESSIAN_PROBLEMS[name]()
        dom = spec.domain
        apply, u, free_idx = hessian_at(rng, spec)
        v = np.where(spec.free_mask, rng.normal(size=dom.shape), 0.0)
        h = 1e-5
        plus = energy_gradient(spec, GridFunction(dom, u + h * v)).values.ravel()[free_idx]
        minus = energy_gradient(spec, GridFunction(dom, u - h * v)).values.ravel()[free_idx]
        assert _close(apply(v.ravel()[free_idx]), (plus - minus) / (2.0 * h), 1e-6)

    @pytest.mark.parametrize("name", sorted(HESSIAN_PROBLEMS))
    def test_is_symmetric(self, rng, name):
        apply, _, free_idx = hessian_at(rng, HESSIAN_PROBLEMS[name]())
        v, w = rng.normal(size=(2, free_idx.size))
        wHv, vHw = float(w @ apply(v)), float(v @ apply(w))
        assert abs(wHv - vHw) <= 1e-12 * abs(wHv)


class TestLinearGrowth:
    # p = 1: along the cell gradient the Hessian's eigenvalue is only
    # eps_reg / s times the one across it, so CG may stop on it early.
    @pytest.mark.parametrize("q,f", [(1.5, 4.0), (1.0, 1.0)])
    def test_p1_converges_with_falling_energy(self, q, f):
        dom = GridDomain.box((17, 17))
        spec = ProblemSpec(dom, dom.constant_field(3, 1.0, q, 1.0), GridFunction.constant(dom, f),
                           grad_tol=1e-8)
        u, rep = solve(spec)
        assert rep.converged
        assert weak_residual(spec, u) <= spec.grad_tol
        assert all(b <= a for a, b in zip(rep.energy_history, rep.energy_history[1:]))


class TestSymmetricModeFactor:
    @pytest.mark.parametrize("shape", [(65, 65), (17, 17, 17)])
    def test_fills_less_than_the_default_factor_and_solves_alike(self, rng, monkeypatch, shape):
        spec = lattice_problem(shape, "high", "dirichlet-zero", False, 10.0)
        dom = spec.domain
        free_idx = np.nonzero(spec.free_mask.ravel())[0]
        coeff = rng.uniform(0.1, 10.0, tuple(n - 1 for n in shape))
        metrics = []
        real = solver_impl.splu
        monkeypatch.setattr(solver_impl, "splu", lambda matrix: metrics.append(matrix) or real(matrix))
        lu, _ = solver_impl._metric(spec, coeff, free_idx)
        default = scipy.sparse.linalg.splu(metrics[0])
        assert lu.L.nnz + lu.U.nnz < default.L.nnz + default.U.nnz
        b = rng.normal(size=free_idx.size)
        x, ref = lu.solve(b), default.solve(b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_cell_fields_are_built_once_per_solve(monkeypatch):
    calls = []
    to_cells = solver_impl._to_cells
    monkeypatch.setattr(solver_impl, "_to_cells", lambda *args: calls.append(1) or to_cells(*args))
    _, rep = solve(lattice_problem((17, 17), "low", "neumann", True, 6.0))
    assert rep.converged and rep.iterations > 5
    assert len(calls) == 3  # p, q and mu


def test_one_diffusivity_per_iterate(monkeypatch):
    # the metric reuses the coefficient the energy gradient was built from
    calls = []
    diffusivity = solver_impl._diffusivity
    monkeypatch.setattr(solver_impl, "_diffusivity", lambda *args: calls.append(1) or diffusivity(*args))
    _, rep = solve(lattice_problem((17, 17), "low", "neumann", True, 6.0))
    assert rep.converged and rep.iterations > 5
    assert len(calls) == rep.iterations


class TestStepTolerance:
    def test_small_step_with_falling_gradient_does_not_stop(self):
        # Stopping on the first step below step_tol ended this solve at
        # iteration 17 with gradient 1.7e-8, above grad_tol.
        spec = lattice_problem((57, 57), "low", "dirichlet-zero", True, 10.0)
        u, rep = solve(spec)
        assert rep.message == "gradient tolerance reached"
        assert weak_residual(spec, u) <= spec.grad_tol

    def test_a_tolerance_below_the_rounding_floor_ends_at_the_cap(self):
        # The gradient stalls near 3e-15 from iteration 7 on; a small step
        # with a gradient that no longer falls is not convergence.
        spec = interval_problem(n=129, p=2.0, q=4.0, mu=1.0, N=5, grad_tol=1e-15, max_iter=20)
        u, rep = solve(spec)
        assert not rep.converged
        assert rep.message == "iteration cap reached"
        assert rep.iterations == 20
        assert rep.grad_norm == weak_residual(spec, u) > spec.grad_tol

    def test_the_cap_reports_the_gradient_at_the_returned_iterate(self):
        # p = q = 2 is solved by its first step: at the cap of one iteration
        # the returned iterate is the solution.
        spec = interval_problem(n=65, p=2.0, q=2.0, mu=1.0, max_iter=1)
        u, rep = solve(spec)
        assert rep.converged and rep.message == "gradient tolerance reached"
        assert rep.iterations == 1
        assert rep.grad_norm == weak_residual(spec, u) <= spec.grad_tol


class TestNeumannCompatibility:
    @pytest.mark.parametrize("offset", [1.0, 1e-6])
    def test_source_with_nonzero_integral_is_rejected(self, offset):
        dom = GridDomain.box((17, 17))
        f = GridFunction(dom, np.cos(np.pi * dom.coordinates[0]) + offset)
        with pytest.raises(DomainError, match="incompatible Neumann data"):
            ProblemSpec(dom, dom.constant_field(3, 2.0, 2.5, 1.0), f, bc="neumann")

    def test_flux_alone_is_rejected(self):
        dom = GridDomain.interval(33)
        with pytest.raises(DomainError):
            ProblemSpec(dom, dom.constant_field(3, 2.0, 2.5, 1.0), GridFunction.constant(dom, 0.0),
                        bc="neumann", flux=GridFunction.constant(dom, 0.5))

    def test_flux_balancing_the_source_is_accepted(self):
        # in 1D the constants are the whole kernel of the cell gradient
        dom = GridDomain.interval(65)
        balance = -np.sum(dom.interior_weights) / np.sum(dom.boundary_weights)
        spec = ProblemSpec(dom, dom.constant_field(3, 2.0, 2.5, 1.0), GridFunction.constant(dom, 1.0),
                           bc="neumann", flux=GridFunction.constant(dom, balance))
        u, rep = solve(spec)
        assert rep.converged
        assert weak_residual(spec, u) <= 1e-8

    def test_balanced_load_along_the_checkerboard_is_rejected(self):
        # f = 1 with the balancing constant flux integrates to zero, but its
        # checkerboard component leaves the energy unbounded below
        dom = GridDomain.box((17, 17))
        balance = -np.sum(dom.interior_weights) / np.sum(dom.boundary_weights)
        with pytest.raises(DomainError, match="incompatible Neumann data.*sign pattern"):
            ProblemSpec(dom, dom.constant_field(3, 2.0, 2.5, 1.0), GridFunction.constant(dom, 1.0),
                        bc="neumann", flux=GridFunction.constant(dom, balance))

    @pytest.mark.parametrize("axes", [(0, 1), (0, 2), (1, 2)])
    def test_3d_load_along_a_sign_pattern_is_rejected(self, axes):
        # (-1)^(i_a + i_b) g(other index) on a lattice even along a and b:
        # it integrates to zero, and the cell gradient cannot see it
        shape = [5, 5, 5]
        for a in axes:
            shape[a] = 6
        dom = GridDomain.box(tuple(shape))
        index = np.indices(dom.shape)
        (other,) = set(range(3)) - set(axes)
        f = (-1.0) ** (index[axes[0]] + index[axes[1]]) * (1.0 + index[other])
        assert abs(np.sum(dom.interior_weights * f)) <= 1e-15
        with pytest.raises(DomainError, match="incompatible Neumann data.*sign pattern"):
            ProblemSpec(dom, dom.constant_field(4, 2.0, 2.5, 1.0), GridFunction(dom, f), bc="neumann")

    def test_dirichlet_source_needs_no_balance(self):
        dom = GridDomain.box((9, 9))
        ProblemSpec(dom, dom.constant_field(3, 2.0, 2.5, 1.0), GridFunction.constant(dom, 1.0))


class TestProblemSpecContract:
    @pytest.mark.parametrize("kw", [
        {"grad_tol": float("nan")}, {"grad_tol": -1.0}, {"grad_tol": float("inf")}, {"grad_tol": "1e-8"},
        {"max_iter": 0}, {"max_iter": -3}, {"max_iter": 2.7}, {"max_iter": 3.0}, {"max_iter": True},
    ])
    def test_bad_tolerances_and_caps_are_rejected(self, kw):
        with pytest.raises(DomainError):
            interval_problem(n=9, **kw)

    @pytest.mark.parametrize("kw", [{"grad_tol": 0.0}, {"max_iter": 1},
                                     {"max_iter": np.int64(3)}, {"grad_tol": 1}])
    def test_edge_values_stay_valid(self, kw):
        _, rep = solve(interval_problem(n=9, p=2.5, q=3.0, mu=1.0, **kw))
        assert rep.iterations <= kw.get("max_iter", 200)


# The matrix-free cell gradient that the sparse per-axis operators replaced,
# kept here as a reference: per-axis forward differences, averaged over the
# transverse corner pairs, and the exact adjoint of that map.

def _pair_slices(ndim, axis):
    lo = [slice(None)] * ndim
    hi = [slice(None)] * ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    return tuple(lo), tuple(hi)


def _pair_average(arr, axis):
    lo, hi = _pair_slices(arr.ndim, axis)
    return 0.5 * (arr[lo] + arr[hi])


def _pair_average_adjoint(arr, axis):
    shape = list(arr.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    lo, hi = _pair_slices(arr.ndim, axis)
    out[lo] += 0.5 * arr
    out[hi] += 0.5 * arr
    return out


def _forward_diff(arr, axis, h):
    lo, hi = _pair_slices(arr.ndim, axis)
    return (arr[hi] - arr[lo]) / h


def _forward_diff_adjoint(arr, axis, h):
    shape = list(arr.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    lo, hi = _pair_slices(arr.ndim, axis)
    out[hi] += arr / h
    out[lo] -= arr / h
    return out


def reference_cell_gradient(domain, values):
    comps = []
    for axis in range(domain.dim):
        d = _forward_diff(values, axis, domain.spacing[axis])
        for other in range(domain.dim):
            if other != axis:
                d = _pair_average(d, other)
        comps.append(d)
    return comps


def reference_cell_gradient_adjoint(domain, comps):
    out = np.zeros(domain.shape)
    for axis, c in enumerate(comps):
        for other in range(domain.dim):
            if other != axis:
                c = _pair_average_adjoint(c, other)
        out += _forward_diff_adjoint(c, axis, domain.spacing[axis])
    return out


def random_spacing_problem(rng, shape, bc="dirichlet-zero"):
    """A problem on a lattice with unequal random spacings; the zero load is
    compatible with either boundary condition."""
    dom = GridDomain(shape, tuple(rng.uniform(0.05, 2.0, len(shape))), (0.0,) * len(shape))
    field = dom.constant_field(3, 1.7, 2.4, 0.8)
    return ProblemSpec(dom, field, GridFunction.constant(dom, 0.0), bc=bc)


def _close(got, ref, rtol):
    return np.linalg.norm(got - ref) <= rtol * np.linalg.norm(ref)


class TestCellOperators:
    @pytest.mark.parametrize("shape", [(13,), (9, 7), (6, 5, 7)])
    def test_operators_match_the_slicing_reference(self, rng, shape):
        spec = random_spacing_problem(rng, shape)
        dom = spec.domain
        ops, adjoints = spec._gradient
        u = rng.normal(size=shape)
        for op, ref in zip(ops, reference_cell_gradient(dom, u)):
            assert _close(op @ u.ravel(), ref.ravel(), 1e-14)
        cells = [rng.normal(size=tuple(n - 1 for n in shape)) for _ in shape]
        got = sum(t @ c.ravel() for t, c in zip(adjoints, cells)).reshape(shape)
        assert _close(got, reference_cell_gradient_adjoint(dom, cells), 1e-14)

    @pytest.mark.parametrize("shape", [(13,), (9, 7), (6, 5, 7)])
    def test_operators_are_the_kronecker_products(self, rng, shape):
        # a forward difference on the axis, pair averages on the others
        spec = random_spacing_problem(rng, shape)
        for axis, (op, h) in enumerate(zip(spec._gradient[0], spec.domain.spacing)):
            ref = scipy.sparse.identity(1, format="csr")
            for a, n in enumerate(shape):
                stencil = [-1.0 / h, 1.0 / h] if a == axis else [0.5, 0.5]
                ref = scipy.sparse.kron(ref, scipy.sparse.diags(stencil, [0, 1], shape=(n - 1, n)), format="csr")
            assert op.shape == ref.shape and (op != ref).nnz == 0

    @pytest.mark.parametrize("shape", [(13,), (9, 7), (6, 5, 7)])
    def test_transpose_is_the_adjoint(self, rng, shape):
        ops, adjoints = random_spacing_problem(rng, shape)._gradient
        u = rng.normal(size=int(np.prod(shape)))
        cells = [rng.normal(size=op.shape[0]) for op in ops]
        lhs = sum(float((op @ u) @ c) for op, c in zip(ops, cells))
        rhs = float(u @ sum(t @ c for t, c in zip(adjoints, cells)))
        scale = sum(np.linalg.norm(op @ u) * np.linalg.norm(c) for op, c in zip(ops, cells))
        assert abs(lhs - rhs) <= 1e-14 * scale


def _factored_metric(monkeypatch, spec, coeff):
    """The matrix that ``_metric`` hands to ``splu``, and the shift it added."""
    seen = []
    real = solver_impl.splu
    monkeypatch.setattr(solver_impl, "splu", lambda matrix: seen.append(matrix) or real(matrix))
    free_idx = np.nonzero(spec.free_mask.ravel())[0]
    _, shift = solver_impl._metric(spec, coeff, free_idx)
    return seen[0], free_idx, shift


class TestAssembledMetric:
    @pytest.mark.parametrize("bc", ["dirichlet-zero", "neumann"])
    @pytest.mark.parametrize("shape", [(11, 9), (6, 7, 5)])
    def test_factored_matrix_is_the_cg_operator(self, rng, monkeypatch, bc, shape):
        spec = random_spacing_problem(rng, shape, bc)
        coeff = rng.uniform(0.1, 10.0, tuple(n - 1 for n in shape))
        M, free_idx, shift = _factored_metric(monkeypatch, spec, coeff)
        apply = metric_operator(spec, coeff, free_idx, shift)
        v = rng.normal(size=free_idx.size)
        assert _close(M @ v, apply(v), 1e-13)

    @pytest.mark.parametrize("bc", ["dirichlet-zero", "neumann"])
    def test_fill_does_not_depend_on_the_coefficients(self, rng, monkeypatch, bc):
        # On square spacing the edge couplings of the two axes cancel exactly,
        # whatever the cell weights, so only the stencil decides the pattern.
        spec = lattice_problem((33, 33), "low", bc, False, 6.0)
        unit, _, _ = _factored_metric(monkeypatch, spec, np.ones((32, 32)))
        weighted, _, _ = _factored_metric(monkeypatch, spec, rng.uniform(0.1, 10.0, (32, 32)))
        assert weighted.nnz == unit.nnz
