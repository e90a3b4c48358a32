import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from musielak import (
    BoundConstants,
    DomainError,
    ExponentField,
    GridDomain,
    GridFunction,
    PhiSpec,
    RecursionParams,
    TruncationLevels,
    bound_estimate,
    empirical_iteration,
    entry_condition,
    iterate_recursion,
    kappa_sequence,
    modular_rho,
    recursion_thresholds,
    truncation_energy,
    two_sided_bound,
)
from musielak import degiorgi
from conftest import random_grid_function


class TestRecursionThresholds:
    def test_unit_parameters(self):
        T1, T2 = recursion_thresholds(RecursionParams(1.0, 2.0, 1.0, 1.0))
        assert T1 == pytest.approx(0.25)
        assert T2 == pytest.approx(0.25)

    def test_half_prefactor(self):
        T1, _ = recursion_thresholds(RecursionParams(0.5, 2.0, 1.0, 1.0))
        assert T1 == pytest.approx(0.5)

    def test_equal_exponents_coincide(self, rng):
        # with equal exponents both alternatives reduce to the same power value
        for _ in range(50):
            K = rng.uniform(0.1, 5.0)
            b = rng.uniform(1.1, 6.0)
            m = rng.uniform(0.2, 2.0)
            T1, T2 = recursion_thresholds(RecursionParams(K, b, m, m))
            theta = (2 * K) ** (-1 / m) * b ** (-1 / m**2)
            assert T2 == pytest.approx(theta, rel=1e-12)
            assert T1 == pytest.approx(min(1.0, theta), rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            RecursionParams(0.0, 2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            RecursionParams(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            RecursionParams(1.0, 2.0, 2.0, 1.0)


class TestIterateRecursion:
    def test_halving_sequence(self):
        params = RecursionParams(1.0, 2.0, 1.0, 1.0)
        tr = iterate_recursion(0.25, params, 60)
        # Z_{n+1} = 2^n * 2 Z_n^2 rides the envelope exactly from 1/4
        assert tr.Z[1] == pytest.approx(0.125)
        assert tr.Z[2] == pytest.approx(0.0625)
        assert tr.n0 == 0
        assert tr.envelope_ok is True
        assert not tr.diverged
        assert tr.Z[-1] < 1e-12

    def test_zero_seed(self):
        tr = iterate_recursion(0.0, RecursionParams(1.0, 2.0, 1.0, 1.0), 10)
        assert np.all(tr.Z == 0.0)

    def test_divergent_seed_flagged(self):
        tr = iterate_recursion(4.0, RecursionParams(1.0, 2.0, 1.0, 1.0), 200)
        assert tr.diverged

    def test_randomized_threshold_exactness(self, rng):
        # mini version of the acceptance sweep
        for _ in range(150):
            K = rng.uniform(0.05, 20.0)
            b = rng.uniform(1.05, 8.0)
            m1 = rng.uniform(0.1, 1.5)
            m2 = m1 * rng.uniform(1.0, 2.5)
            params = RecursionParams(K, b, m1, m2)
            T1, T2 = recursion_thresholds(params)
            for seed in (0.99 * T1, 0.99 * T2):
                tr = iterate_recursion(seed, params, 200)
                assert tr.n0 is not None
                assert tr.envelope_ok is True
                assert not tr.diverged

    def test_overflowing_step_is_flagged_not_raised(self):
        # Z0^{1 + mu2} = 1e340 overflows a double
        tr = iterate_recursion(1e200, RecursionParams(1.05, 2.0, 0.5, 0.7), 40)
        assert tr.diverged
        assert tr.Z.tolist() == [1e200, degiorgi._SENTINEL]

    def test_overflowing_power_of_b_leaves_a_zero_seed_at_zero(self):
        # 40^n overflows a double from n = 193 on
        tr = iterate_recursion(0.0, RecursionParams(1e-10, 40.0, 0.01, 0.02), 200)
        assert not tr.diverged and np.all(tr.Z == 0.0)

    def test_extreme_exponents_keep_the_thresholds_finite(self):
        # mu2^2 overflows; (2K)^(-1/mu1) overflows while b^(-1/mu1^2) underflows
        T1, T2 = recursion_thresholds(RecursionParams(1.05, 2.0, 0.5, 1e308))
        assert (T1, T2) == pytest.approx((2.1**-2 / 16, 2.1**-2 / 16), rel=1e-14)
        assert recursion_thresholds(RecursionParams(1e-10, 2.0, 0.01, 0.02)) == (0.0, 0.0)
        tr = iterate_recursion(1e-3, RecursionParams(1.05, 2.0, 0.5, 1e308), 40)
        assert not tr.diverged and tr.envelope_ok is True

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            iterate_recursion(-1.0, RecursionParams(1.0, 2.0, 1.0, 1.0), 10)
        with pytest.raises(DomainError):
            iterate_recursion(float("nan"), RecursionParams(1.0, 2.0, 1.0, 1.0), 10)
        with pytest.raises(DomainError):
            iterate_recursion(0.5, RecursionParams(1.0, 2.0, 1.0, 1.0), 0)


class TestKappaSequence:
    def test_first_values(self):
        assert kappa_sequence(1.0, 0) == pytest.approx(1.0)
        assert kappa_sequence(2.0, 1) == pytest.approx(3.0)

    def test_monotone_to_double(self):
        ks = kappa_sequence(1.5, np.arange(40))
        assert np.all(np.diff(ks) > 0)
        assert abs(ks[-1] - 3.0) < 3.0 * 2.0**-39

    def test_positive_level_required(self):
        with pytest.raises(DomainError):
            kappa_sequence(0.0, 1)


def level_measure(u, kappa):
    """The measure of the interior level set {u > kappa}."""
    dom = u.domain
    return dom.interior_weights[(u.values > kappa) & ~dom.boundary_mask].sum()


def step_function(dom, height, lo=0.25, hi=0.5):
    x = dom.axes[0]
    vals = np.where((x >= lo) & (x < hi), height, 0.0)
    vals[dom.boundary_mask] = 0.0
    return GridFunction(dom, vals)


class TestTruncationEnergy:
    def setup_method(self):
        self.dom = GridDomain.interval(401)
        self.field = self.dom.constant_field(3, 2.0, 2.2, 1.0)
        self.r, self.s = 3.0, 3.5  # inside (p, p*) x (q, q*) = (2,6) x (2.2,8.25)

    def levels(self, u, regime="subcritical-D", **kw):
        """The levels of u in ``regime``; the subcritical ones take r, s of the setup."""
        if regime.startswith("subcritical"):
            kw = dict(kw, r=self.r, s=self.s)
        return TruncationLevels(u, self.field, regime, **kw)

    def test_below_level_zero(self):
        u = GridFunction.constant(self.dom, 0.5)
        e = truncation_energy(self.levels(u), 1.0, 0)
        assert e.total == 0.0

    def test_step_closed_form(self):
        kappa = 0.8
        u = step_function(self.dom, 2.0 * kappa)
        e = truncation_energy(self.levels(u), kappa, 0)
        # on the step, u - kappa_0 = kappa; measure 0.25 up to one cell
        expect = 0.25 * (kappa**self.r + kappa**self.s)
        assert e.interior == pytest.approx(expect, abs=2 * self.dom.spacing[0] * (kappa**self.r + kappa**self.s))

    def test_sequence_decreasing(self, rng):
        u = random_grid_function(rng, self.dom, scale=2.0)
        for kappa in (0.5, 1.5):
            prev = None
            levels = self.levels(u)
            for n in range(10):
                e = truncation_energy(levels, kappa, n)
                if prev is not None:
                    assert e.total <= prev + 1e-12
                prev = e.total

    def test_missing_exponents_rejected(self):
        u = GridFunction.constant(self.dom, 0.5)
        with pytest.raises(DomainError, match="regime subcritical-D needs interior exponents r, s"):
            TruncationLevels(u, self.field, "subcritical-D")
        with pytest.raises(DomainError, match="regime subcritical-N needs boundary exponents l, h"):
            self.levels(u, "subcritical-N")

    def test_neumann_regime_has_boundary_term(self):
        vals = np.full(self.dom.shape, 2.0)
        u = GridFunction(self.dom, vals)
        e = truncation_energy(self.levels(u, "subcritical-N", l=2.5, h=3.0), 0.5, 0)
        assert e.boundary > 0.0
        assert e.total == pytest.approx(e.interior + e.boundary)

    def test_critical_regime_includes_gradient(self):
        x = self.dom.axes[0]
        u = GridFunction(self.dom, np.sin(np.pi * x))
        levels = self.levels(u, "critical-D")
        e0 = truncation_energy(levels, 0.4, 0)
        # gradient term integrates over the level set, so it is positive here
        assert e0.interior > 0.0
        e_above = truncation_energy(levels, 1.1, 0)
        assert e_above.total == 0.0

    def test_pointwise_truncation_bound(self, rng):
        # u <= (2^{n+2} - 1)(u - kappa_n) on the next level set, exactly nodewise
        u = random_grid_function(rng, self.dom, scale=2.0)
        kappa_star = 0.6
        for n in range(8):
            kn = kappa_sequence(kappa_star, n)
            kn1 = kappa_sequence(kappa_star, n + 1)
            mask = u.values > kn1
            factor = 2.0 ** (n + 2) - 1.0
            assert np.all(u.values[mask] <= factor * (u.values[mask] - kn) * (1 + 1e-12))

    def test_level_measure_bound(self, rng):
        # |A_{kappa_{n+1}}| <= 2 (1 + kappa*^{-r+}) 2^{(n+1) r+} Z_n
        u = random_grid_function(rng, self.dom, scale=2.0)
        kappa_star = 0.7
        rplus = self.r
        levels = self.levels(u)
        for n in range(8):
            e = truncation_energy(levels, kappa_star, n)
            measure = level_measure(u, kappa_sequence(kappa_star, n + 1))
            bound = 2.0 * (1.0 + kappa_star**-rplus) * 2.0 ** ((n + 1) * rplus) * e.interior
            assert measure <= bound + 1e-9 * max(1.0, bound)

    def test_zero_energy_forces_empty_next_level(self, rng):
        u = random_grid_function(rng, self.dom, scale=0.3)
        kappa_star = float(np.max(np.abs(u.values))) + 0.1
        e = truncation_energy(self.levels(u), kappa_star, 0)
        assert e.total == 0.0
        assert level_measure(u, kappa_sequence(kappa_star, 1)) == 0.0

    def test_critical_level_measure_bound(self):
        # |A_{kappa_{n+1}}| <= 2^{(n+1)(p*)+} Z_n for kappa* >= 1
        dom = GridDomain.interval(301)
        field = dom.constant_field(5, 2.0, 2.5, 0.8)
        x = dom.axes[0]
        u = GridFunction(dom, 3.0 * np.sin(np.pi * x))
        p_star_plus = float(np.max(field.critical("p")))
        kappa_star = 1.0
        levels = TruncationLevels(u, field, "critical-D")
        for n in range(6):
            e = truncation_energy(levels, kappa_star, n)
            measure = level_measure(u, kappa_sequence(kappa_star, n + 1))
            bound = 2.0 ** ((n + 1) * p_star_plus) * e.interior
            assert measure <= bound + 1e-9 * max(1.0, bound)


class TestLevelSetEnergies:
    """Truncation energies on level sets whose measure is known by hand."""

    def setup_method(self):
        self.r, self.s, self.l, self.h = 3.0, 3.5, 2.5, 3.0

    def levels(self, u, regime):
        field = u.domain.constant_field(3, 2.0, 2.2, 1.0)
        kw = {}
        if regime.startswith("subcritical"):
            kw = dict(r=self.r, s=self.s)
        if regime == "subcritical-N":
            kw.update(l=self.l, h=self.h)
        return TruncationLevels(u, field, regime, **kw)

    def test_linear_ramp_is_the_modular_of_its_truncation(self):
        dom = GridDomain.interval(201)
        u = GridFunction(dom, dom.axes[0])
        e = truncation_energy(self.levels(u, "subcritical-D"), 0.5, 0)
        excess = GridFunction(dom, np.maximum(dom.axes[0] - 0.5, 0.0))
        spec = PhiSpec.subcritical(dom.constant_field(3, 2.0, 2.2, 1.0), self.r, self.s)
        assert e.interior == pytest.approx(modular_rho(spec, excess), rel=1e-13)

    def test_linear_ramp_closed_form(self):
        # integral of t^r + t^s over t = x - 1/2 in [0, 1/2]
        dom = GridDomain.interval(201)
        u = GridFunction(dom, dom.axes[0])
        e = truncation_energy(self.levels(u, "subcritical-D"), 0.5, 0)
        expect = 0.5 ** (self.r + 1) / (self.r + 1) + 0.5 ** (self.s + 1) / (self.s + 1)
        assert e.interior == pytest.approx(expect, abs=2 * dom.spacing[0] * (0.5**self.r + 0.5**self.s))

    @pytest.mark.parametrize("regime", ["subcritical-D", "subcritical-N", "critical-D", "critical-N"])
    def test_level_above_max_has_zero_energy(self, regime):
        dom = GridDomain.interval(11)
        e = truncation_energy(self.levels(GridFunction.constant(dom, 1.0), regime), 2.0, 0)
        assert (e.interior, e.boundary) == (0.0, 0.0)

    @pytest.mark.parametrize("regime", ["subcritical-D", "subcritical-N"])
    def test_level_below_min_covers_the_domain(self, regime):
        dom = GridDomain.interval(11)
        e = truncation_energy(self.levels(GridFunction.constant(dom, 1.0), regime), 0.25, 0)
        assert e.interior == pytest.approx(dom.volume * (0.75**self.r + 0.75**self.s), rel=1e-13)
        # the two end points of the interval, each of facet weight 1
        boundary = 2.0 * (0.75**self.l + 0.75**self.h) if regime == "subcritical-N" else 0.0
        assert e.boundary == pytest.approx(boundary, rel=1e-13)

    @pytest.mark.parametrize("regime", ["subcritical-N", "critical-N"])
    def test_boundary_face_above_the_level(self, regime):
        dom = GridDomain.box((9, 9))
        vals = np.zeros(dom.shape)
        vals[0, :] = 2.0  # one boundary face above the level, excess 1 there
        e = truncation_energy(self.levels(GridFunction(dom, vals), regime), 1.0, 0)
        assert e.interior == 0.0
        # both Phi-functions are 2 at t = 1 with mu = 1; the face has length 1
        # plus the corner shares owned by the adjacent faces
        assert e.boundary == pytest.approx(2.0 * (1.0 + dom.spacing[1]), rel=1e-12)


class TestBoundEstimate:
    def test_zero_norm(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bound_estimate(0.0, BoundConstants()) == 0.0

    def test_identity_exponents(self):
        c = BoundConstants(tau1=1.0, tau2=1.0)
        assert bound_estimate(3.0, c) == pytest.approx(3.0)

    def test_power_switch_at_one(self):
        c = BoundConstants(C=2.0, tau1=0.5, tau2=2.0)
        assert bound_estimate(0.25, c) == pytest.approx(2.0 * 0.25**0.5)
        assert bound_estimate(4.0, c) == pytest.approx(2.0 * 16.0)

    def test_default_exponents_from_recursion(self):
        c = BoundConstants(mu1=0.5, mu2=1.0, delta1=0.4, delta2=0.8)
        assert c.exponents == (0.4, 1.6)

    def test_unknown_regime_rejected(self):
        with pytest.raises(DomainError, match="unknown regime"):
            bound_estimate(1.0, BoundConstants(), regime="supercritical-D")

    @pytest.mark.parametrize("psi,upsilon", [(-1.0, None), (1.0, -1.0)])
    def test_negative_norm_rejected(self, psi, upsilon):
        with pytest.raises(DomainError, match="nonnegative"):
            bound_estimate(psi, BoundConstants(), regime="subcritical-N", upsilon_norm=upsilon)

    @pytest.mark.parametrize("change,message", [({"tau1": -1.0, "tau2": 0.0}, "constants must be positive"),
                                                ({"tau2": 0.0}, "constants must be positive"),
                                                ({"delta1": 2.0, "delta2": 1.0}, "delta1 <= delta2")])
    def test_constants_out_of_range_rejected(self, change, message):
        with pytest.raises(DomainError, match=message):
            BoundConstants(**change)

    def test_neumann_needs_boundary_norm(self):
        with pytest.raises(DomainError, match="Neumann regime needs the boundary norm"):
            bound_estimate(1.0, BoundConstants(), regime="subcritical-N")

    def test_neumann_combines_norms(self):
        c = BoundConstants(tau1=1.0, tau2=1.0)
        assert bound_estimate(1.0, c, regime="subcritical-N", upsilon_norm=2.0) == pytest.approx(3.0)


class TestEmpiricalIteration:
    def test_bounded_function_passes(self, rng):
        dom = GridDomain.interval(201)
        field = dom.constant_field(3, 2.0, 2.2, 1.0)
        u = random_grid_function(rng, dom, scale=0.5, zero_boundary=True)
        top = float(np.max(np.abs(u.values)))
        report = empirical_iteration(TruncationLevels(u, field, "subcritical-D", r=3.0, s=3.5),
                                     kappa_star_grid=[top / 4, top / 2, top + 0.1])
        assert report.found
        assert report.esssup <= 2.0 * report.kappa_star + 1e-9

    def test_two_sided_bound(self, rng):
        dom = GridDomain.interval(201)
        field = dom.constant_field(3, 2.0, 2.2, 1.0)
        x = dom.axes[0]
        u = GridFunction(dom, np.sin(2 * np.pi * x))  # takes both signs
        report = two_sided_bound(TruncationLevels(u, field, "subcritical-D", r=3.0, s=3.5),
                                 kappa_star_grid=np.geomspace(0.05, 2.0, 12))
        assert report.found and report.bound_ok
        assert report.esssup == float(np.max(np.abs(u.values[1:-1])))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_two_sided_sup_of_a_signed_zero_is_plus_zero(self, zero):
        dom = GridDomain.interval(11)
        field = dom.constant_field(3, 2.0, 2.2, 1.0)
        u = GridFunction(dom, np.full(dom.shape, zero))
        report = two_sided_bound(TruncationLevels(u, field, "subcritical-D", r=3.0, s=3.5), kappa_star_grid=[1.0])
        assert report.found and report.bound_ok
        assert np.copysign(1.0, report.esssup) == 1.0

    def test_entry_condition_critical(self):
        dom = GridDomain.interval(201)
        field = dom.constant_field(5, 2.0, 2.5, 0.5)
        x = dom.axes[0]
        u = GridFunction(dom, 0.2 * np.sin(np.pi * x))
        levels = TruncationLevels(u, field, "critical-D")
        small = entry_condition(levels, 5.0)
        assert small == 0.0  # empty level set
        big = entry_condition(levels, 0.01)
        assert big > 0.0

    def test_nonpositive_candidates_are_skipped(self, rng):
        dom = GridDomain.interval(201)
        field = dom.constant_field(3, 2.0, 2.2, 1.0)
        u = random_grid_function(rng, dom, scale=0.5, zero_boundary=True)
        top = float(np.max(np.abs(u.values))) + 0.1
        report = empirical_iteration(TruncationLevels(u, field, "subcritical-D", r=3.0, s=3.5),
                                     kappa_star_grid=[-1.0, 0.0, top])
        assert [c[0] for c in report.candidates] == [top]
        assert report.kappa_star == top

    def test_no_candidate_reports_not_found(self, rng):
        dom = GridDomain.interval(101)
        field = dom.constant_field(3, 2.0, 2.2, 1.0)
        u = GridFunction.constant(dom, 0.0)
        vals = np.zeros(dom.shape)
        vals[30:60] = 50.0
        vals[dom.boundary_mask] = 0.0
        u = GridFunction(dom, vals)
        report = empirical_iteration(TruncationLevels(u, field, "subcritical-D", r=3.0, s=3.5),
                                     kappa_star_grid=[1e-4])
        # tiny level never empties the set: energies stall above the decay tol
        assert not report.found
        assert report.candidates


# ---------------------------------------------------------------------------
# Per-level reference: every Phi-function and the gradient rebuilt at each level
# ---------------------------------------------------------------------------

REGIMES = ("subcritical-D", "subcritical-N", "critical-D", "critical-N")
# Inside the subcritical and trace windows of every field below (N = 3,
# 1.6 <= p <= 1.8, q = 1.2 p): p < r < p*, q < s < q*, p < l < p_trace, q < h < q_trace.
EXPONENTS = {"r": 2.5, "s": 3.0, "l": 2.0, "h": 2.5}


def _masked_sum(values, mask):
    """The sum of values over mask, taken over every node with 0 off the mask,
    the summation order of ``TruncationLevels``."""
    return float(np.sum(np.where(mask, values, 0.0)))


def _reference_specs(field, regime):
    e = EXPONENTS
    if regime.startswith("subcritical"):
        interior = PhiSpec.subcritical(field, e["r"], e["s"])
        boundary = PhiSpec.subcritical_trace(field, e["l"], e["h"]) if regime.endswith("-N") else None
    else:
        interior = PhiSpec.critical(field)
        boundary = PhiSpec.critical_trace(field) if regime.endswith("-N") else None
    return interior, boundary


def _reference_energy(u, field, regime, kappa_n):
    dom = u.domain
    interior_spec, boundary_spec = _reference_specs(field, regime)
    excess = np.maximum(u.values - kappa_n, 0.0)
    interior = float(np.sum(dom.interior_weights * interior_spec.evaluate_nodes(excess)))
    if regime.startswith("critical"):
        on_set = (u.values > kappa_n) & ~dom.boundary_mask
        grad_term = PhiSpec.double_phase(field).evaluate_nodes(u.gradient_magnitude())
        interior += _masked_sum(dom.interior_weights * grad_term, on_set)
    boundary = 0.0
    if boundary_spec is not None:
        boundary = float(np.sum(dom.boundary_weights * boundary_spec.evaluate_nodes(excess)))
    return interior, boundary


def _reference_entry(u, field, regime, kappa_star):
    if regime.startswith("subcritical"):
        return sum(_reference_energy(u, field, regime, kappa_star))
    dom = u.domain
    w, wb = dom.interior_weights, dom.boundary_weights
    inside = (u.values > kappa_star) & ~dom.boundary_mask
    on_boundary = (u.values > kappa_star) & dom.boundary_mask
    absu = np.abs(u.values)
    H = PhiSpec.double_phase(field)
    total = _masked_sum(w * H.evaluate_nodes(u.gradient_magnitude()), inside)
    total += _masked_sum(w * PhiSpec.critical(field).evaluate_nodes(absu), inside)
    if regime == "critical-D":
        return total + _masked_sum(w * H.evaluate_nodes(absu), inside)
    trace = PhiSpec.critical_trace(field).evaluate_nodes(absu)
    return total + _masked_sum(wb * trace, on_boundary)


def _reference_iteration(u, field, regime, kappas, n_max, decay_tol=1e-12):
    candidates, chosen, chosen_energies = [], None, []
    for kappa in sorted(kappas):
        entry = _reference_entry(u, field, regime, kappa)
        energies = []
        for n in range(n_max + 1):
            kappa_n = kappa * (2.0 - 0.5**n)
            energies.append((n, kappa_n, *_reference_energy(u, field, regime, kappa_n)))
            if sum(energies[-1][2:]) <= decay_tol:
                break
        total = sum(energies[-1][2:])
        candidates.append((kappa, entry, total <= decay_tol, total))
        if entry < 1.0 and total <= decay_tol and chosen is None:
            chosen, chosen_energies = kappa, energies
    return chosen, candidates, chosen_energies


def _case(dim, varying):
    dom = GridDomain.interval(41) if dim == 1 else GridDomain.box((17, 13))
    x = dom.coordinates
    if varying:
        p = 1.7 + 0.1 * np.sin(3.0 * x[0])
        field = ExponentField(3, p, 1.2 * p, 0.5 + 0.5 * np.cos(2.0 * x[-1]), spacing=dom.spacing)
    else:
        field = dom.constant_field(3, 1.7, 2.04, 1.0)
    bump = np.sin(np.pi * x[0]) * (np.sin(np.pi * x[-1]) if dim == 2 else 1.0)
    u = GridFunction(dom, 0.6 * bump + 0.15 * np.cos(5.0 * x[0]) + 0.25)
    return u, field


def _rel_close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("varying", [False, True])
def test_levels_match_per_level_reference(monkeypatch, regime, dim, varying):
    u, field = _case(dim, varying)
    kappas = [0.02, 0.1, 0.3, 0.45, 0.5, 0.55, 0.7]
    levels = TruncationLevels(u, field, regime, **EXPONENTS)
    for kappa in kappas:
        assert _rel_close(entry_condition(levels, kappa), _reference_entry(u, field, regime, kappa))
        for n in (0, 1, 5):
            e = truncation_energy(levels, kappa, n)
            ref = _reference_energy(u, field, regime, kappa * (2.0 - 0.5**n))
            assert _rel_close((e.interior, e.boundary), ref)
    monkeypatch.setattr(degiorgi, "_N_LEVELS", 25)
    report = empirical_iteration(levels, kappas)
    chosen, candidates, energies = _reference_iteration(u, field, regime, kappas, n_max=25)
    assert report.kappa_star == chosen
    reference = {ref[0]: ref for ref in candidates}
    assert report.candidates
    for got in report.candidates:
        ref = reference[got[0]]
        assert got[2] == ref[2]
        assert _rel_close(got[1], ref[1]) and _rel_close(got[3], ref[3])
    assert [(e.n, e.kappa_n) for e in report.energies] == [ref[:2] for ref in energies]
    assert _rel_close([(e.interior, e.boundary) for e in report.energies], [ref[2:] for ref in energies])
    _assert_bisects_the_full_walk(report, _walk_all_levels(u, field, regime, kappas, n_max=25))


def _full_node_entry(levels, kappa_star):
    """``TruncationLevels.entry`` with every Phi-function evaluated at every node and then masked."""
    above = levels.values > kappa_star
    on_set = above & ~levels.bmask
    absu = np.abs(levels.values)
    total = _masked_sum(levels.gradient_term, on_set)
    total += _masked_sum(levels.w * levels.interior.evaluate_nodes(absu), on_set)
    if levels.boundary is None:
        return total + _masked_sum(levels.w * levels.H.evaluate_nodes(absu), on_set)
    on_set = above & levels.bmask
    return total + _masked_sum(levels.wb * levels.boundary.evaluate_nodes(absu), on_set)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("varying", [False, True])
def test_level_set_evaluation_equals_full_node_evaluation(regime, dim, varying):
    u, field = _case(dim, varying)
    levels = TruncationLevels(u, field, regime, **EXPONENTS)
    lo, hi = float(np.min(u.values)), float(np.max(u.values))
    assert lo > 0.0
    # below min u (every node), inside the range, and at and above max u (an empty set)
    for kappa in (0.5 * lo, 0.5 * (lo + hi), 0.9 * hi, hi, 2.0 * hi):
        excess = np.maximum(u.values - kappa, 0.0)
        interior = float(np.sum(levels.w * levels.interior.evaluate_nodes(excess)))
        if levels.gradient_term is not None:
            interior += _masked_sum(levels.gradient_term, (u.values > kappa) & ~levels.bmask)
        boundary = 0.0
        if levels.boundary is not None:
            boundary = float(np.sum(levels.wb * levels.boundary.evaluate_nodes(excess)))
        assert levels.energy(kappa) == (interior, boundary)
        if kappa >= hi:
            assert levels.energy(kappa) == (0.0, 0.0)
        entry = entry_condition(levels, kappa)
        if regime.startswith("subcritical"):
            assert entry == interior + boundary
        else:
            assert entry == _full_node_entry(levels, kappa)


def _plateau():
    dom = GridDomain.interval(61)
    field = dom.constant_field(3, 1.7, 2.04, 1.0)
    vals = np.zeros(dom.shape)
    vals[20:40] = 50.0  # a plateau far above every level: the energies never decay
    return GridFunction(dom, vals), field


def _count_builds(monkeypatch) -> dict:
    """Counts of PhiSpec builds and gradient_magnitude calls from here on."""
    counts = {"specs": 0, "gradients": 0}
    init, gradient = PhiSpec.__init__, GridFunction.gradient_magnitude

    def counted_init(obj, *args, **kwargs):
        counts["specs"] += 1
        init(obj, *args, **kwargs)

    def counted_gradient(obj):
        counts["gradients"] += 1
        return gradient(obj)

    monkeypatch.setattr(PhiSpec, "__init__", counted_init)
    monkeypatch.setattr(GridFunction, "gradient_magnitude", counted_gradient)
    return counts


@pytest.mark.parametrize("regime", REGIMES)
def test_phi_builds_and_gradients_do_not_grow_with_levels(monkeypatch, regime):
    u, field = _plateau()
    counts = _count_builds(monkeypatch)
    seen = []
    for n_max in (2, 40):
        counts.update(specs=0, gradients=0)
        monkeypatch.setattr(degiorgi, "_N_LEVELS", n_max)
        report = empirical_iteration(TruncationLevels(u, field, regime, **EXPONENTS), [1e-3, 1e-2])
        assert not any(c[2] for c in report.candidates)  # every level up to n_max ran
        seen.append(dict(counts))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("regime", REGIMES)
def test_undecayed_candidate_costs_one_level(monkeypatch, regime):
    u, field = _plateau()
    kappas = [1e-3, 3e-3, 1e-2]
    levels = []
    energy = TruncationLevels.energy

    def counted_energy(obj, kappa):
        levels.append(kappa)
        return energy(obj, kappa)

    monkeypatch.setattr(TruncationLevels, "energy", counted_energy)
    # The subcritical entry condition is itself a level-0 energy; a constant
    # entry keeps the count to the level loop.
    monkeypatch.setattr(degiorgi, "entry_condition", lambda *args, **kwargs: 2.0)
    for n_max in (2, 40):
        levels.clear()
        monkeypatch.setattr(degiorgi, "_N_LEVELS", n_max)
        report = empirical_iteration(TruncationLevels(u, field, regime, **EXPONENTS), kappas)
        assert not any(c[2] for c in report.candidates)
        # no candidate is admissible, so the bisection probes upward: 3e-3, then 1e-2
        assert [c[0] for c in report.candidates] == [3e-3, 1e-2]
        assert levels == [kappa_sequence(c[0], np.arange(n_max + 1))[-1] for c in report.candidates]
        _assert_bisects_the_full_walk(report, _walk_all_levels(u, field, regime, kappas, n_max))


def _walk_all_levels(u, field, regime, kappas, n_max=60, decay_tol=1e-12):
    """empirical_iteration before it bisected the candidates and settled
    undecayed ones at their last level: every positive candidate walks up from
    n = 0, and the report lists them all.  The entry condition is looked up on
    the module, so a test that replaces it replaces it here too."""
    levels = TruncationLevels(u, field, regime, **EXPONENTS)
    candidates, chosen, chosen_energies = [], None, []
    for kappa in sorted(kappas):
        if kappa <= 0:
            continue
        entry = degiorgi.entry_condition(levels, kappa)
        energies = []
        for n, kappa_n in enumerate(kappa_sequence(kappa, np.arange(n_max + 1))):
            energies.append(degiorgi.IterationEnergy(regime, n, float(kappa_n), *levels.energy(kappa_n)))
            if energies[-1].total <= decay_tol:
                break
        decayed = energies[-1].total <= decay_tol
        candidates.append((kappa, entry, decayed, energies[-1].total))
        if entry < 1.0 and decayed and chosen is None:
            chosen, chosen_energies = kappa, energies
    sup = float(np.max(u.values[~u.domain.boundary_mask]))
    slack = max(u.domain.spacing) * float(np.max(u.gradient_magnitude()))
    bound_ok = chosen is not None and sup <= 2.0 * chosen + slack
    return degiorgi.IterationReport(regime, chosen, sup, bound_ok, candidates, chosen_energies)


def _assert_bisects_the_full_walk(report, walk):
    """The bisection chose what the full walk chose, probed in ascending kappa
    at most ceil(log2(n + 1)) of the walk's n candidates, and recorded for
    each probe what the walk recorded for that kappa."""
    assert (report.kappa_star, report.esssup, report.bound_ok) == (walk.kappa_star, walk.esssup, walk.bound_ok)
    assert report.energies == walk.energies
    probed = [c[0] for c in report.candidates]
    assert probed == sorted(probed)
    assert len(probed) <= len(walk.candidates).bit_length()
    recorded = {c[0]: c for c in walk.candidates}
    assert report.candidates == [recorded[k] for k in probed]


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("varying", [False, True])
@pytest.mark.parametrize("n_max", [25, 60])
def test_settled_candidates_equal_full_walk(monkeypatch, regime, dim, varying, n_max):
    u, field = _case(dim, varying)
    kappas = [0.02, 0.1, 0.3, 0.45, 0.5, 0.55, 0.7]
    monkeypatch.setattr(degiorgi, "_N_LEVELS", n_max)
    for v in (u, -u):
        report = empirical_iteration(TruncationLevels(v, field, regime, **EXPONENTS), kappas)
        _assert_bisects_the_full_walk(report, _walk_all_levels(v, field, regime, kappas, n_max))
    # the case has candidates settled at their last level and candidates walked
    assert {c[2] for c in _walk_all_levels(u, field, regime, kappas, n_max).candidates} == {False, True}


@st.composite
def _level_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    dom = GridDomain.interval(21) if dim == 1 else GridDomain.box((9, 7))
    amplitude = 10.0 ** draw(st.floats(-3.0, 3.0))
    shape_values = draw(hnp.arrays(np.float64, dom.shape, elements=st.floats(-1.0, 1.0)))
    u = GridFunction(dom, amplitude * shape_values)
    if draw(st.booleans()):
        a, b, c = draw(st.tuples(*[st.floats(-np.pi, np.pi)] * 3))
        x = dom.coordinates
        p = 1.7 + 0.1 * np.sin(3.0 * x[0] + a)
        field = ExponentField(3, p, 1.2 * p, 0.5 + 0.5 * np.cos(2.0 * x[-1] + b) * np.cos(c),
                              spacing=dom.spacing)
    else:
        p = draw(st.floats(1.6, 1.8))
        field = dom.constant_field(3, p, 1.2 * p, draw(st.floats(0.0, 2.0)))
    # levels from well below the profile's top to above it
    kappa_star = amplitude * 10.0 ** draw(st.floats(-3.0, 0.3))
    return u, field, kappa_star


# Candidate levels as powers of ten times the case's kappa_star, from 1 to 29 of them
_SPREADS = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=29)


def _nonincreasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=75, deadline=None)
@given(case=_level_cases(), spread=_SPREADS)
def test_energies_never_increase_along_the_levels(regime, case, spread):
    # Exact, with no slack: a candidate whose last level has not decayed is
    # settled by that level alone, which is exact only if the floating-point
    # energies do not increase from one level to the next.  The bisection over
    # the candidates is exact only if the entry value and the last level's
    # energy do not increase from one candidate to the next.
    u, field, kappa_star = case
    levels = TruncationLevels(u, field, regime, **EXPONENTS)
    totals = [i + b for i, b in map(levels.energy, kappa_sequence(kappa_star, np.arange(61)))]
    assert _nonincreasing(totals)
    kappas = sorted(kappa_star * 10.0**f for f in spread)
    assert _nonincreasing([entry_condition(levels, k) for k in kappas])
    last = [sum(levels.energy(kappa_sequence(k, degiorgi._N_LEVELS))) for k in kappas]
    assert _nonincreasing(last)


@pytest.mark.parametrize("regime", REGIMES)
@settings(max_examples=40, deadline=None)
@given(case=_level_cases(), spread=_SPREADS)
def test_bisection_chooses_what_the_full_walk_chooses(regime, case, spread):
    u, field, kappa_star = case
    kappas = [kappa_star * 10.0**f for f in spread]
    for v in (u, -u):
        report = empirical_iteration(TruncationLevels(v, field, regime, **EXPONENTS), kappas)
        _assert_bisects_the_full_walk(report, _walk_all_levels(v, field, regime, kappas))


@pytest.mark.parametrize("call", [
    pytest.param(lambda u, f: TruncationLevels(u, f, "bogus"), id="unknown-regime"),
    pytest.param(lambda u, f: entry_condition(TruncationLevels(u, f, "critical-D"), 0.0), id="critical-D-zero-level"),
    pytest.param(lambda u, f: entry_condition(TruncationLevels(u, f, "critical-N"), -1.0),
                 id="critical-N-negative-level"),
    pytest.param(lambda u, f: entry_condition(TruncationLevels(u, f, "critical-D"), float("inf")),
                 id="critical-D-infinite-level"),
    pytest.param(lambda u, f: entry_condition(TruncationLevels(u, f, "subcritical-D", **EXPONENTS), 0.0),
                 id="subcritical-D-zero-level"),
    pytest.param(lambda u, f: truncation_energy(TruncationLevels(u, f, "critical-D"), 0.5, -3),
                 id="critical-negative-index"),
    pytest.param(lambda u, f: truncation_energy(TruncationLevels(u, f, "subcritical-D", **EXPONENTS), 0.5, -1),
                 id="subcritical-negative-index"),
    pytest.param(lambda u, f: empirical_iteration(TruncationLevels(u, f, "critical-D"), [0.5, float("nan")]),
                 id="nan-candidate"),
    pytest.param(lambda u, f: empirical_iteration(TruncationLevels(u, f, "critical-D"), [0.5, float("inf")]),
                 id="inf-candidate"),
    pytest.param(lambda u, f: empirical_iteration(TruncationLevels(u, f, "critical-D"), [float("-inf"), 0.5]),
                 id="minus-inf-candidate"),
])
def test_out_of_contract_inputs_are_domain_errors(call):
    u, field = _case(1, False)
    with pytest.raises(DomainError):
        call(u, field)


@pytest.mark.parametrize("regime,specs", [("subcritical-D", 1), ("subcritical-N", 2), ("critical-D", 2),
                                          ("critical-N", 3)])
@pytest.mark.parametrize("dim", [1, 2])
def test_one_levels_object_serves_both_sides_of_the_bound(monkeypatch, regime, specs, dim):
    u, field = _case(dim, True)
    kappas = [0.02, 0.1, 0.3, 0.5, 0.7]
    # the report the two one-sided runs give, each with levels of its own
    up = empirical_iteration(TruncationLevels(u, field, regime, **EXPONENTS), kappas)
    down = empirical_iteration(TruncationLevels(-u, field, regime, **EXPONENTS), kappas)
    entries = [{k: entry_condition(TruncationLevels(v, field, regime, **EXPONENTS), k) for k in kappas}
               for v in (u, -u)]
    counts = _count_builds(monkeypatch)
    levels = TruncationLevels(u, field, regime, **EXPONENTS)
    assert counts == {"specs": specs, "gradients": 1}
    report = two_sided_bound(levels, kappas)
    assert counts == {"specs": specs, "gradients": 1}  # the iterations and entry conditions build nothing
    assert report.candidates == up.candidates + down.candidates
    assert [c[1] for c in report.candidates] == ([entries[0][c[0]] for c in up.candidates]
                                                 + [entries[1][c[0]] for c in down.candidates])
    assert report.energies == up.energies + down.energies
    assert report.esssup == abs(max(up.esssup, down.esssup))
    found = up.found and down.found
    assert report.kappa_star == (max(up.kappa_star, down.kappa_star) if found else None)
    assert report.bound_ok == (found and report.esssup <= 2.0 * report.kappa_star + max(u.domain.spacing)
                               * float(np.max(u.gradient_magnitude())))
    for side, v in ((up, u), (down, -u)):
        _assert_bisects_the_full_walk(side, _walk_all_levels(v, field, regime, kappas))


@pytest.mark.parametrize("regime", REGIMES)
def test_energies_of_an_overflowing_phi_are_inf_without_a_warning(regime):
    # Phi(u - kappa) = inf at every node, the boundary nodes of interior
    # weight 0 (and the interior nodes of boundary weight 0) included.
    dom = GridDomain.box((9, 7))
    u = GridFunction.constant(dom, 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        interior, boundary = TruncationLevels(u, dom.constant_field(3, 1.7, 2.04, 1.0), regime,
                                              **EXPONENTS).energy(1.0)
    assert interior == math.inf
    assert boundary == (math.inf if regime.endswith("-N") else 0.0)
