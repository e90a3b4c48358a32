import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from musielak import (
    DomainError,
    ExponentField,
    PhiSpec,
    eval_phi,
    sobolev_critical,
    validate_hypotheses,
)
from conftest import random_field_h3


def const_field(N, p, q, mu, **kw):
    return ExponentField(N, float(p), float(q), float(mu), **kw)


# One constructor per PhiSpec kind over a constant field with p = 2, q = 3, N = 4
# (p* = 4, q* = 12, trace 3 and 9), each exponent window met.
SEVEN_KINDS = {
    "double_phase": PhiSpec.double_phase,
    "double_phase_normalized": PhiSpec.double_phase_normalized,
    "critical": PhiSpec.critical,
    "critical_trace": PhiSpec.critical_trace,
    "subcritical": lambda f: PhiSpec.subcritical(f, 3.0, 6.0),
    "subcritical_trace": lambda f: PhiSpec.subcritical_trace(f, 2.5, 5.0),
    "weighted": lambda f: PhiSpec.weighted(f, 1.5, 2.5, 1.0),
}


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
        assert const_field(3, 2.0, 2.5, 0.0).critical("p") == pytest.approx(6.0)

    def test_trace_value(self):
        assert const_field(3, 2.0, 2.5, 0.0).critical_trace("p") == pytest.approx(4.0)

    def test_sobolev_critical_broadcasts(self):
        r = np.array([1.5, 2.0])
        assert np.array_equal(sobolev_critical(3, r), [3.0, 6.0])
        assert np.array_equal(sobolev_critical(3, r, trace=True), [2.0, 4.0])

    def test_exponent_at_dimension_is_singular(self):
        field = const_field(3, 3.0, 3.5, 0.0)
        for critical in (field.critical, field.critical_trace):
            with pytest.raises(DomainError, match=r"p\(x\) >= N=3 somewhere: critical exponent undefined"):
                critical("p")

    def test_q_at_dimension_is_singular(self):
        field = const_field(3, 2.0, 3.0, 0.0)
        for critical in (field.critical, field.critical_trace):
            with pytest.raises(DomainError, match=r"q\(x\) >= N=3 somewhere: critical exponent undefined"):
                critical("q")

    @pytest.mark.parametrize("q", [0.0, -1.0])
    @pytest.mark.parametrize("kind", ["critical", "critical_trace"])
    def test_q_at_most_zero_is_rejected_before_the_weight_divides_by_it(self, kind, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 0 / 0 in mu^(q*/q) would warn first
            with pytest.raises(DomainError, match="exponents q > 0"):
                getattr(PhiSpec, kind)(const_field(3, 1.5, q, 1.0))


class TestPhiSpecWindows:
    def test_subcritical_needs_strict_window(self):
        f = const_field(4, 2.0, 3.0, 1.0)  # p* = 4, q* = 12
        with pytest.raises(DomainError, match="subcritical mode needs p < r < p-critical"):
            PhiSpec.subcritical(f, 4.0, 11.0)  # r = p* not allowed strictly
        with pytest.raises(DomainError, match="subcritical mode needs p < r < p-critical"):
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

    def test_a_weighted_weight_beyond_the_double_range_is_rejected(self):
        # mu^alpha = (1e10)^40 overflows although mu is finite
        with pytest.raises(DomainError, match="overflows the double range"):
            PhiSpec.weighted(const_field(4, 2.0, 3.0, 1e10), 1.5, 2.5, 40.0)

    @pytest.mark.parametrize("kind", sorted(SEVEN_KINDS))
    def test_an_infinite_mu_is_rejected(self, kind):
        # weight * 0^hi would be NaN, so Phi(0) = 0 would fail
        with pytest.raises(DomainError, match="mu is unbounded"):
            SEVEN_KINDS[kind](const_field(4, 2.0, 3.0, np.inf))

    @pytest.mark.parametrize("kind", sorted(SEVEN_KINDS))
    @pytest.mark.parametrize("mu", [0.0, 0.7, 1e5])
    def test_phi_of_zero_is_exactly_positive_zero(self, kind, mu):
        out = SEVEN_KINDS[kind](const_field(4, 2.0, 3.0, mu)).evaluate_nodes(np.zeros(3))
        assert np.all(out == 0.0) and not np.any(np.signbit(out))


def _every_mask(n):
    return [np.array([(i >> k) & 1 for k in range(n)], dtype=bool) for i in range(2**n)]


@pytest.mark.parametrize("varying", [False, True])
@pytest.mark.parametrize("kind", sorted(SEVEN_KINDS))
def test_masked_evaluation_is_the_full_evaluation_on_the_mask(kind, varying):
    if varying:
        spec = dict(zip(SEVEN_KINDS, nodewise_specs()))[kind]
    else:
        spec = SEVEN_KINDS[kind](const_field(4, 2.0, 3.0, 1.5))
    assert spec.kind == kind
    t = np.array([0.4, 1.0, 2.5])  # below, at and above 1, where the normalized kind changes form
    full = spec.evaluate_nodes(t)
    for where in _every_mask(3):
        got = spec.evaluate_nodes(t, where)
        assert got.shape == t.shape
        assert np.array_equal(got[where], full[where])
        assert np.all(got[~where] == 0.0) and not np.any(np.signbit(got[~where]))
    assert np.array_equal(spec.evaluate_nodes(t, np.zeros(3, dtype=bool)), np.zeros(3))


@pytest.mark.parametrize("kind", sorted(SEVEN_KINDS))
def test_masked_evaluation_checks_t_at_every_node(kind):
    spec = SEVEN_KINDS[kind](const_field(4, 2.0, 3.0, 1.5))
    with pytest.raises(DomainError, match="t >= 0"):
        spec.evaluate_nodes(np.array([1.0, -0.5, 2.0]), np.array([True, False, True]))


def test_exponents_near_the_double_range_overflow_without_a_warning():
    field = const_field(3, 1e308, 1e308, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert not validate_hypotheses(field, "H3").passed
        assert eval_phi(PhiSpec.double_phase(field), None, 2.0) == np.inf
