import numpy as np
import pytest

from musielak import (
    ConvergenceError,
    DomainError,
    ExponentField,
    GridDomain,
    GridFunction,
    PhiSpec,
    bump_function,
    embedding_sides,
    eval_phi,
    exponent_scan,
    luxemburg_norm,
    scale_function,
    sobolev_critical,
)


@pytest.fixture(scope="module")
def square():
    # [-1, 1]^2 with h = 1/256: fine enough for 1% change-of-variable checks
    return GridDomain.box((513, 513), lengths=(2.0, 2.0), origin=(-1.0, -1.0))


@pytest.fixture(scope="module")
def bump(square):
    return bump_function(square)


class TestScaleFunction:
    def test_identity(self, bump):
        v = scale_function(bump, 1.0)
        assert np.array_equal(v.values, bump.values)

    def test_shrinks_support(self, square, bump):
        v = scale_function(bump, 4.0)
        r = square.radius()
        assert np.all(v.values[r > 0.25 + 2 * max(square.spacing)] == 0.0)

    def test_rejects_contraction(self, bump):
        with pytest.raises(DomainError):
            scale_function(bump, 0.5)

    def test_rejects_boundary_support(self, square):
        u = GridFunction.constant(square, 1.0)
        with pytest.raises(DomainError):
            scale_function(u, 2.0)

    def test_change_of_variables_value_integral(self, square, bump):
        # integral of |v|^s rescales by lambda^{-N} exactly in the continuum
        w = square.interior_weights
        s = 3.0
        base = float(np.sum(w * np.abs(bump.values) ** s))
        for lam in (2.0, 4.0):
            v = scale_function(bump, lam)
            got = float(np.sum(w * np.abs(v.values) ** s))
            assert got == pytest.approx(base * lam**-2, rel=0.01)

    def test_change_of_variables_gradient_integral(self, square, bump):
        w = square.interior_weights
        p = 2.0
        base = float(np.sum(w * bump.gradient_magnitude() ** p))
        for lam in (2.0, 4.0):
            v = scale_function(bump, lam)
            got = float(np.sum(w * v.gradient_magnitude() ** p))
            assert got == pytest.approx(base * lam ** (p - 2.0), rel=0.01)

    def test_composition(self, square, bump):
        v12 = scale_function(scale_function(bump, 2.0), 2.0)
        v2 = scale_function(bump, 4.0)
        assert np.max(np.abs(v12.values - v2.values)) <= 1e-3


class TestEmbeddingSides:
    def test_zero_profile(self, square):
        field = square.constant_field(2, 1.3, 1.6, 1.0)
        z = GridFunction.constant(square, 0.0)
        sides = embedding_sides(z, field, 2.0, 3.0, 1.0)
        assert sides.lhs == 0.0 and sides.rhs == 0.0

    def test_sides_finite_and_ordered_sanity(self, square, bump):
        field = square.constant_field(2, 1.3, 1.6, 1.0)
        sides = embedding_sides(bump, field, 2.0, 3.0, 1.0)
        assert sides.lhs > 0 and sides.rhs > 0

    def test_norm_sandwich(self, square, bump, rng):
        # two-term Luxemburg norm lies between half and 2^{1/r} of the term sum
        field = square.constant_field(2, 1.3, 1.6, 1.0)
        for _ in range(5):
            scale = rng.uniform(0.2, 5.0)
            v = GridFunction(square, bump.values * scale)
            sides = embedding_sides(v, field, 2.0, 3.0, 1.0, weight_mode="radial")
            norm = luxemburg_norm(PhiSpec.weighted(ExponentField(2, 1.3, 1.6, square.radius()), 2.0, 3.0, 1.0),
                                  v).value
            assert 0.5 * sides.lhs <= norm * (1 + 1e-9)
            assert norm <= 2.0 ** (1 / 2.0) * sides.lhs * (1 + 1e-9)

    def test_unknown_weight_mode(self, square, bump):
        field = square.constant_field(2, 1.3, 1.6, 1.0)
        with pytest.raises(DomainError):
            embedding_sides(bump, field, 2.0, 3.0, 1.0, weight_mode="bogus")


class TestExponentScan:
    def test_unit_weight_slopes(self, square, bump):
        field = square.constant_field(2, 2.0, 3.0, 1.0)
        fits = exponent_scan(bump, field, r=3.0, s=3.0, alpha=1.0, lambdas=(1, 2, 4, 8, 16), weight_mode="unit")
        assert fits["lhs_s"].slope == pytest.approx(-2.0 / 3.0, rel=0.02)
        assert abs(fits["rhs_p"].slope) <= 0.02
        assert fits["rhs_q"].slope == pytest.approx(1.0 / 3.0, rel=0.05)
        assert all(f.reliable for f in fits.values())

    def test_radial_weight_slopes(self, square, bump):
        field = square.constant_field(2, 2.0, 3.0, 1.0)
        fits = exponent_scan(bump, field, r=3.0, s=3.0, alpha=1.0, lambdas=(1, 2, 4, 8, 16), weight_mode="radial")
        assert abs(fits["rhs_q"].slope) <= 0.02  # (q - N - 1)/q = 0 here
        # weighted value term decays like -(alpha + N)/s = -1
        assert fits["lhs_s"].predicted == pytest.approx(-1.0)
        assert fits["lhs_s"].slope == pytest.approx(-1.0, rel=0.02)

    def test_needs_decade_span(self, square, bump):
        field = square.constant_field(2, 2.0, 3.0, 1.0)
        with pytest.raises(DomainError, match="spanning at least one decade"):
            exponent_scan(bump, field, r=3.0, s=3.0, alpha=1.0, lambdas=(1, 2, 4, 8), weight_mode="unit")

    def test_a_quantity_beyond_the_double_range_is_not_fitted(self, square, bump):
        # r = 1e-300: the r-integral norm at lambda = 1, about pi^(1e300), reads inf
        field = square.constant_field(2, 2.0, 3.0, 1.0)
        assert embedding_sides(bump, field, 1e-300, 3.0, 1.0).lhs_terms[0] == np.inf
        with pytest.raises(ConvergenceError, match="lhs_r is not positive and finite"):
            exponent_scan(bump, field, r=1e-300, s=3.0, alpha=1.0, weight_mode="unit")

    def test_support_resolution_guard(self, bump, square):
        field = square.constant_field(2, 2.0, 3.0, 1.0)
        with pytest.raises(DomainError, match="fewer than 8 cells"):
            exponent_scan(bump, field, r=3.0, s=3.0, alpha=1.0, lambdas=(1, 2, 4, 64), weight_mode="unit")

    def test_vanishing_base_rejected(self, square):
        field = square.constant_field(2, 2.0, 3.0, 1.0)
        z = GridFunction.constant(square, 0.0)
        with pytest.raises(DomainError):
            exponent_scan(z, field, r=3.0, s=3.0, alpha=1.0)


def test_admissible_pair_dominated_by_critical_plus_two(rng):
    # two-exponent functions with admissible, strictly subcritical (r, s)
    # stay below the critical function plus 2
    field = ExponentField(4, 2.0, 3.0, rng.uniform(0.0, 2.0))
    assert 3.5 <= sobolev_critical(4, 2.0) and 11.0 <= sobolev_critical(4, 3.0)
    psi = PhiSpec.subcritical(field, 3.5, 11.0)
    crit = PhiSpec.critical(field)
    for t in rng.uniform(0.0, 10.0, 200):
        assert eval_phi(psi, None, t) <= eval_phi(crit, None, t) + 2.0 + 1e-12
