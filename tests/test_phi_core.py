import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musielak import (
    ConvergenceError,
    DomainError,
    ExponentField,
    HypothesisError,
    PhiSpec,
    SingularityError,
    critical_exponents,
    eval_phi,
    phi_inverse,
    validate_hypotheses,
)
from conftest import random_field_h3


def const_field(N, p, q, mu, **kw):
    return ExponentField(N, float(p), float(q), float(mu), **kw)


def nodewise_specs():
    """One spec of every kind over a three-node field."""
    p = np.array([1.4, 1.7, 2.0])
    q = 1.2 * p
    f = ExponentField(4, p, q, np.array([0.0, 0.7, 2.0]))

    def mid(lo, cap):
        return 0.5 * (lo + cap)

    return [
        PhiSpec.double_phase(f),
        PhiSpec.double_phase_normalized(f),
        PhiSpec.critical(f),
        PhiSpec.critical_trace(f),
        PhiSpec.subcritical(f, mid(p, f.critical("p")), mid(q, f.critical("q"))),
        PhiSpec.subcritical_trace(f, mid(p, f.critical_trace("p")), mid(q, f.critical_trace("q"))),
        PhiSpec.weighted(f, 1.5, 2.5, 1.3),
    ]


class TestExponentFieldData:
    @pytest.mark.parametrize("name", ["p", "q", "mu"])
    def test_nan_rejected(self, name):
        data = {"p": np.array([1.5, 1.6]), "q": np.array([1.8, 1.9]), "mu": np.array([0.0, 1.0])}
        data[name][1] = np.nan
        with pytest.raises(DomainError):
            ExponentField(3, **data)

    @pytest.mark.parametrize("name", ["p", "q"])
    def test_infinite_exponent_rejected(self, name):
        data = {"p": 1.5, "q": 1.8, "mu": 1.0}
        data[name] = np.inf
        with pytest.raises(DomainError):
            ExponentField(3, **data)

    def test_infinite_weight_kept_for_validation(self):
        report = validate_hypotheses(ExponentField(3, 1.5, 1.8, np.inf), "H2")
        assert report.conditions() == ["mu bounded"]


class TestValidateHypotheses:
    def test_h3_pass_example(self):
        rep = validate_hypotheses(const_field(3, 1.5, 1.6, 0.5), "H3")
        assert rep.passed and rep.violations == []

    def test_h3_ratio_failure_names_condition(self):
        rep = validate_hypotheses(const_field(3, 2.0, 2.8, 0.5), "H3")
        assert not rep.passed
        assert rep.conditions() == ["(q/p)^+ < 1 + 1/N"]

    def test_equal_exponents_fail_h1(self):
        rep = validate_hypotheses(const_field(3, 2.0, 2.0, 0.5), "H1")
        assert not rep.passed
        assert "p(x) < q(x)" in rep.conditions()

    def test_level_implications(self, rng):
        # passing a stronger level implies passing every weaker one
        for _ in range(100):
            f = random_field_h3(rng)
            for level in ("H1", "H2", "H3"):
                assert validate_hypotheses(f, level).passed

    def test_h2_needs_q_below_critical(self):
        # q above Np/(N-p) violates only the H2 condition
        f = const_field(3, 2.0, 6.5, 0.1)
        assert validate_hypotheses(f, "H1").passed
        rep = validate_hypotheses(f, "H2")
        assert not rep.passed and "q(x) < p*(x)" in rep.conditions()

    def test_violating_nodes_are_reported(self):
        p = np.array([1.5, 1.5, 3.5])
        q = np.array([1.6, 1.6, 3.6])
        f = ExponentField(3, p, q, np.zeros(3))
        rep = validate_hypotheses(f, "H1")
        assert not rep.passed
        assert (2, "p(x) < N") in rep.violations

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(Exception):
            ExponentField(3, np.ones(4), np.ones(5) * 2, np.zeros(4))

    def test_lipschitz_quotients_checked_when_declared(self):
        p = np.array([1.5, 1.5, 1.9, 1.5])
        q = p + 0.05
        f = ExponentField(3, p, q, np.zeros(4), lipschitz_bound=0.5, spacing=(0.1,))
        rep = validate_hypotheses(f, "H3")
        assert not rep.passed
        assert any(c.startswith("Lipschitz") for c in rep.conditions())

    def test_unknown_level_rejected(self):
        with pytest.raises(DomainError):
            validate_hypotheses(const_field(3, 1.5, 1.6, 0.0), "H4")


class TestEvalPhi:
    def test_double_phase_value(self):
        spec = PhiSpec.double_phase(const_field(3, 2, 3, 1))
        assert eval_phi(spec, None, 2.0) == pytest.approx(12.0)

    def test_zero_maps_to_zero_for_every_kind(self):
        f = const_field(4, 2.0, 3.0, 1.5)
        specs = [
            PhiSpec.double_phase(f),
            PhiSpec.double_phase_normalized(f),
            PhiSpec.critical(f),
            PhiSpec.critical_trace(f),
            PhiSpec.subcritical(f, 3.0, 11.0),
            PhiSpec.subcritical_trace(f, 2.5, 8.0),
            PhiSpec.weighted(f, 4.0, 12.0, 4.0),
        ]
        for spec in specs:
            assert eval_phi(spec, None, 0.0) == 0.0

    def test_critical_kind_value(self):
        # p* = 4, q* = 12, weight exponent q*/q = 4
        spec = PhiSpec.critical(const_field(4, 2, 3, 16))
        assert eval_phi(spec, None, 1.0) == pytest.approx(65537.0)

    def test_normalized_kind_is_linear_below_one(self):
        f = const_field(3, 1.5, 2.0, 2.0)
        spec = PhiSpec.double_phase_normalized(f)
        assert eval_phi(spec, None, 0.5) == pytest.approx(0.5 * 3.0)
        assert eval_phi(spec, None, 2.0) == pytest.approx(2.0**1.5 + 2.0 * 4.0)

    def test_negative_argument_rejected(self):
        spec = PhiSpec.double_phase(const_field(3, 2, 3, 1))
        with pytest.raises(DomainError):
            eval_phi(spec, None, -0.1)

    def test_nodewise_selection(self):
        p = np.array([2.0, 3.0])
        q = np.array([3.0, 4.0])
        mu = np.array([0.0, 1.0])
        spec = PhiSpec.double_phase(ExponentField(5, p, q, mu))
        assert eval_phi(spec, 0, 2.0) == pytest.approx(4.0)
        assert eval_phi(spec, 1, 2.0) == pytest.approx(8.0 + 16.0)

    @pytest.mark.parametrize("spec", nodewise_specs(), ids=lambda s: s.kind)
    def test_scalar_path_matches_vectorized(self, spec):
        ts = np.array([0.0, 0.3, 1.0, 2.5])
        for x in range(3):
            by_node = [spec.evaluate_nodes(np.full(3, t))[x] for t in ts]
            assert [eval_phi(spec, x, t) for t in ts] == pytest.approx(by_node, rel=1e-15)
            assert eval_phi(spec, x, ts) == pytest.approx(by_node, rel=1e-15)

    def test_strict_monotonicity_sampled(self, rng):
        for _ in range(50):
            f = random_field_h3(rng)
            spec = PhiSpec.double_phase(f)
            ts = np.sort(rng.uniform(0.0, 5.0, 8))
            vals = [eval_phi(spec, None, t) for t in ts]
            diffs = np.diff(vals)
            assert np.all(diffs[np.diff(ts) > 0] > 0)

    def test_midpoint_convexity_sampled(self, rng):
        for _ in range(50):
            f = random_field_h3(rng)
            for make in (PhiSpec.double_phase, PhiSpec.critical, PhiSpec.critical_trace):
                spec = make(f)
                t1, t2 = rng.uniform(0.0, 4.0, 2)
                mid = eval_phi(spec, None, 0.5 * (t1 + t2))
                avg = 0.5 * (eval_phi(spec, None, t1) + eval_phi(spec, None, t2))
                assert mid <= avg + 1e-12 * max(1.0, avg)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.01, 5.0),
    b_shift=st.floats(0.0, 5.0),
    c_shift=st.floats(0.0, 5.0),
    t=st.floats(0.0, 50.0),
)
def test_ordered_power_inequality(a, b_shift, c_shift, t):
    # t^beta <= t^alpha + t^gamma whenever alpha <= beta <= gamma
    alpha = a
    beta = a + b_shift
    gamma = beta + c_shift
    lhs = t**beta
    rhs = t**alpha + t**gamma
    assert lhs <= rhs * (1.0 + 1e-12) + 1e-300


class TestCriticalExponents:
    def test_interior_value(self):
        ce = critical_exponents(const_field(3, 2.0, 2.5, 0.0))
        assert ce.p_star == pytest.approx(6.0)

    def test_trace_value(self):
        ce = critical_exponents(const_field(3, 2.0, 2.5, 0.0))
        assert ce.p_trace == pytest.approx(4.0)

    def test_exponent_at_dimension_is_singular(self):
        with pytest.raises(SingularityError):
            critical_exponents(const_field(3, 3.0, 3.5, 0.0))

    def test_q_at_dimension_is_singular(self):
        with pytest.raises(SingularityError):
            critical_exponents(const_field(3, 2.0, 3.0, 0.0))

    @pytest.mark.parametrize("q", [0.0, -1.0])
    @pytest.mark.parametrize("kind", ["critical", "critical_trace"])
    def test_q_at_most_zero_is_rejected_before_the_weight_divides_by_it(self, kind, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 0 / 0 in mu^(q*/q) would warn first
            with pytest.raises(DomainError, match="exponents q > 0"):
                getattr(PhiSpec, kind)(const_field(3, 1.5, q, 1.0))


class TestPhiInverse:
    def test_square_root_case(self):
        spec = PhiSpec.double_phase(const_field(3, 2.0, 2.5, 0.0))
        assert phi_inverse(spec, None, 9.0) == pytest.approx(3.0, abs=1e-10)

    def test_zero(self):
        spec = PhiSpec.double_phase(const_field(3, 2.0, 2.5, 0.0))
        assert phi_inverse(spec, None, 0.0) == 0.0

    def test_double_phase_case(self):
        spec = PhiSpec.double_phase(const_field(3, 2.0, 3.0, 1.0))
        t = phi_inverse(spec, None, 12.0)
        assert t == pytest.approx(2.0, abs=1e-10)

    def test_round_trip_sampled(self, rng):
        tol = 1e-12
        for _ in range(60):
            f = random_field_h3(rng)
            spec = PhiSpec.double_phase(f)
            t = rng.uniform(0.0, 8.0)
            s = eval_phi(spec, None, t)
            back = phi_inverse(spec, None, s, tol=tol)
            assert eval_phi(spec, None, back) == pytest.approx(s, rel=0, abs=10 * tol * max(1, s))

    def test_negative_value_rejected(self):
        spec = PhiSpec.double_phase(const_field(3, 2.0, 2.5, 0.0))
        with pytest.raises(DomainError):
            phi_inverse(spec, None, -1.0)

    @pytest.mark.parametrize("p,s", [(1e-3, 10.0), (1e-3, 0.1), (1e-300, 4.0), (1e-300, 1.0)])
    def test_an_inverse_beyond_the_double_range_is_a_convergence_error(self, p, s):
        # t^p + t^p: t = (s/2)^(1/p) overflows (s > 2) or underflows (s < 2)
        spec = PhiSpec.double_phase(const_field(3, p, p, 1.0))
        with pytest.raises(ConvergenceError, match="double range"):
            phi_inverse(spec, None, s)

    def test_an_inverse_near_the_end_of_the_double_range_is_found(self):
        # t = s^1000 = 1 / lam with log lam = 709.3, 0.5 below log(max double):
        # the bracket widened by a factor 2 crosses that end and is cut there
        spec = PhiSpec.double_phase(const_field(3, 1e-3, 2.0, 0.0))
        assert phi_inverse(spec, None, 0.492) == pytest.approx(0.492**1000, rel=1e-8)

    @pytest.mark.parametrize("spec", nodewise_specs(), ids=lambda s: s.kind)
    def test_round_trip_every_kind(self, spec):
        tol = 1e-12
        for x in range(3):
            for s in (1e-6, 0.3, 1.0, 7.0, 1e4):
                t = phi_inverse(spec, x, s, tol=tol)
                assert abs(eval_phi(spec, x, t) - s) <= tol * max(1.0, s)


class TestPhiSpecWindows:
    def test_subcritical_needs_strict_window(self):
        f = const_field(4, 2.0, 3.0, 1.0)  # p* = 4, q* = 12
        with pytest.raises(HypothesisError):
            PhiSpec.subcritical(f, 4.0, 11.0)  # r = p* not allowed strictly
        with pytest.raises(HypothesisError):
            PhiSpec.subcritical(f, 3.0, 2.5)  # s below q

    def test_critical_mode_allows_equality_caps(self):
        f = const_field(4, 2.0, 3.0, 1.0)
        spec = PhiSpec.subcritical(f, 4.0, 12.0, mode="critical")
        assert eval_phi(spec, None, 1.0) == pytest.approx(2.0)

    def test_weighted_needs_positive_exponents(self):
        f = const_field(4, 2.0, 3.0, 1.0)
        with pytest.raises(DomainError):
            PhiSpec.weighted(f, -1.0, 2.0, 1.0)

    @pytest.mark.parametrize("bad", ["r", "s", "alpha"])
    def test_weighted_rejects_nan_exponents(self, bad):
        args = dict({"r": 1.5, "s": 2.5, "alpha": 1.0}, **{bad: float("nan")})
        with pytest.raises(DomainError):
            PhiSpec.weighted(const_field(4, 2.0, 3.0, 1.0), **args)

    def test_zero_weight_kills_upper_phase(self):
        # mu = 0 with a fractional weight exponent must not produce NaN
        spec = PhiSpec.critical(const_field(4, 2.0, 3.0, 0.0))
        assert eval_phi(spec, None, 2.0) == pytest.approx(2.0**4)

    @pytest.mark.parametrize("kind", ["critical", "critical_trace"])
    def test_an_upper_weight_beyond_the_double_range_is_rejected(self, kind):
        # mu^(q*/q) = (1e308)^4 and mu^(q_b*/q) = (1e308)^3 overflow for a finite mu
        with pytest.raises(DomainError, match="overflows the double range"):
            getattr(PhiSpec, kind)(const_field(4, 2.0, 3.0, 1e308))

    def test_an_infinite_mu_keeps_an_infinite_upper_weight(self):
        spec = PhiSpec.critical(const_field(4, 2.0, 3.0, np.inf))
        assert spec.weight == np.inf


def test_exponents_near_the_double_range_overflow_without_a_warning():
    field = const_field(3, 1e308, 1e308, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not validate_hypotheses(field, "H3").passed
        assert eval_phi(PhiSpec.double_phase(field), None, 2.0) == np.inf
