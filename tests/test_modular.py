import importlib
import math

import numpy as np
import pytest

from musielak import (
    ConvergenceError,
    DomainError,
    ExponentField,
    GridDomain,
    GridFunction,
    PhiSpec,
    boundary_modular,
    boundary_norm,
    luxemburg_norm,
    modular_rho,
    modular_sobolev,
    sobolev_norm,
)
from conftest import random_field_h3, random_grid_function


class TestGridDomain:
    def test_interior_weights_sum_to_volume_exactly(self):
        for shape, lengths in [((11,), (1.0,)), ((9, 13), (1.0, 2.0)), ((5, 6, 7), (1.0, 1.5, 0.5))]:
            dom = GridDomain.box(shape, lengths)
            assert np.sum(dom.interior_weights) == pytest.approx(np.prod(lengths), rel=1e-14)

    def test_boundary_weights_sum_to_surface_measure(self):
        dom = GridDomain.box((17, 17))  # unit square, perimeter 4
        assert np.sum(dom.boundary_weights) == pytest.approx(4.0, rel=1e-14)
        dom3 = GridDomain.box((5, 5, 5), (1.0, 2.0, 3.0))  # box surface 2(2+3+6)
        assert np.sum(dom3.boundary_weights) == pytest.approx(22.0, rel=1e-14)

    def test_interval_boundary_counting_measure(self):
        dom = GridDomain.interval(11)
        assert np.sum(dom.boundary_weights) == pytest.approx(2.0)

    def test_every_node_interior_xor_boundary(self):
        dom = GridDomain.box((7, 9))
        interior = dom.interior_weights > 0
        boundary = dom.boundary_mask
        assert np.all(interior ^ boundary)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(DomainError):
            GridDomain.box((2, 5))

    def test_no_axis_rejected(self):
        with pytest.raises(DomainError):
            GridDomain((), (), ())

    @pytest.mark.parametrize("shape", [(1, 5), (1,)])
    def test_a_box_with_too_few_nodes_on_an_axis_is_a_domain_error(self, shape):
        # One node once divided the length by zero before the count was checked.
        with pytest.raises(DomainError, match="each with >= 3 nodes"):
            GridDomain.box(shape)

    @pytest.mark.parametrize("shape,spacing", [
        ((9, 9), (1e-200, 1e-200)),  # interior weights and cell measure underflow
        ((5, 5, 5), (1e-200,) * 3),
        ((9, 9), (1e200, 1e200)),  # they overflow
        ((3, 3), (5e-324, 1.0)),  # half the smallest subnormal (an end node's row entry) is 0
        ((5, 5, 5), (1e-200, 1e-200, 1e300)),  # the first two axes' facet product underflows first
        ((3, 3, 3), (1e154, 1e154, 1.0)),  # only the interior weight 2h x 2h x 2h overflows
        ((3,), (1.5e308,)),  # the interior row entry 2h overflows
        ((9,), (float("inf"),)),
        ((9,), (float("nan"),)),
    ])
    def test_weights_outside_the_double_range_are_a_domain_error(self, shape, spacing):
        with pytest.raises(DomainError, match="outside the double range"):
            GridDomain(shape, spacing, (0.0,) * len(shape))

    @pytest.mark.parametrize("shape,spacing", [((9, 9), (1e-150, 1e-150)), ((5, 5, 5), (1e300, 1e-200, 1e-90)),
                                               ((9,), (1e300,)), ((9,), (1e-320,))])
    def test_weights_inside_the_double_range_are_positive_and_finite(self, shape, spacing):
        dom = GridDomain(shape, spacing, (0.0,) * len(shape))
        for w, nodes in ((dom.interior_weights, ~dom.boundary_mask), (dom.boundary_weights, dom.boundary_mask)):
            assert np.all((w[nodes] > 0.0) & (w[nodes] < np.inf))

    @pytest.mark.parametrize("shape", [(3,), (8,), (3, 5), (6, 3), (3, 3, 4), (5, 4, 3), (3, 4, 3, 5)])
    def test_weights_and_mask_match_a_per_node_reference_bit_for_bit(self, shape):
        # Per axis with spacing h: interior factor 0 at the ends, h inside, +h/2
        # (added in that order) next to each end; trapezoid factor h/2 at the
        # ends, h inside.  Products run in axis order and faces add in axis order.
        spacing = tuple(float(h) for h in 10.0 ** np.random.default_rng(len(shape)).uniform(-3, 2, len(shape)))
        dom = GridDomain(shape, spacing, (0.0,) * len(shape))

        def interior(i, n, h):
            if i in (0, n - 1):
                return 0.0
            f = h
            if i == 1:
                f += 0.5 * h
            if i == n - 2:
                f += 0.5 * h
            return f

        def trapezoid(i, n, h):
            return 0.5 * h if i in (0, n - 1) else h

        axes = list(zip(shape, spacing))
        mask, w_int, w_bnd = np.zeros(shape, bool), np.zeros(shape), np.zeros(shape)
        for node in np.ndindex(*shape):
            at_end = [i in (0, n - 1) for i, n in zip(node, shape)]
            mask[node] = any(at_end)
            w_int[node] = math.prod(interior(i, n, h) for i, (n, h) in zip(node, axes))
            total = 0.0
            for a, end in enumerate(at_end):
                if end:
                    total += math.prod(trapezoid(i, n, h) for b, (i, (n, h)) in enumerate(zip(node, axes)) if b != a)
            w_bnd[node] = total
        assert dom.boundary_mask.dtype == bool and np.array_equal(dom.boundary_mask, mask)
        assert dom.interior_weights.tobytes() == w_int.tobytes()
        assert dom.boundary_weights.tobytes() == w_bnd.tobytes()


class TestModulars:
    def test_constant_one_unit_box(self, unit_interval):
        field = unit_interval.constant_field(3, 2.0, 3.0, 0.0)
        u = GridFunction.constant(unit_interval, 1.0)
        assert modular_rho(PhiSpec.double_phase(field), u) == pytest.approx(1.0, rel=1e-13)

    def test_constant_two_double_phase(self, unit_interval):
        field = unit_interval.constant_field(3, 2.0, 3.0, 1.0)
        u = GridFunction.constant(unit_interval, 2.0)
        assert modular_rho(PhiSpec.double_phase(field), u) == pytest.approx(12.0, rel=1e-13)

    def test_zero_function(self, unit_interval):
        field = unit_interval.constant_field(3, 2.0, 3.0, 1.0)
        u = GridFunction.constant(unit_interval, 0.0)
        assert modular_rho(PhiSpec.double_phase(field), u) == 0.0

    def test_sobolev_constant_reduces_to_plain_modular(self, unit_interval):
        field = unit_interval.constant_field(3, 2.0, 3.0, 0.5)
        u = GridFunction.constant(unit_interval, 1.7)
        spec = PhiSpec.double_phase(field)
        assert modular_sobolev(field, u) == pytest.approx(modular_rho(spec, u), rel=1e-13)

    def test_sobolev_zero(self, unit_interval):
        field = unit_interval.constant_field(3, 2.0, 3.0, 0.5)
        assert modular_sobolev(field, GridFunction.constant(unit_interval, 0.0)) == 0.0

    def test_sobolev_linear_ramp_quadrature_order(self):
        # integral of 1 + x^2 over the unit interval is 4/3; the lumped rule
        # is second order, so quartering h divides the error by ~16
        errs = []
        for n in (65, 257):
            dom = GridDomain.interval(n)
            field = dom.constant_field(3, 2.0, 3.0, 0.0)
            u = GridFunction(dom, dom.axes[0])
            errs.append(abs(modular_sobolev(field, u) - 4.0 / 3.0))
        assert errs[1] < errs[0] / 8.0
        assert errs[0] < 1e-3

    def test_grid_mismatch_rejected(self, unit_interval):
        other = GridDomain.interval(33)
        field = unit_interval.constant_field(3, 2.0, 3.0, 0.0)
        spec = PhiSpec.double_phase(
            ExponentField(3, np.full(unit_interval.shape, 2.0),
                          np.full(unit_interval.shape, 3.0),
                          np.zeros(unit_interval.shape)))
        with pytest.raises(DomainError, match="Phi-function lives on .*, grid function on"):
            modular_rho(spec, GridFunction.constant(other, 1.0))


class TestLuxemburgNorm:
    def test_constant_l2_case(self, unit_interval):
        field = unit_interval.constant_field(3, 2.0, 3.0, 0.0)
        u = GridFunction.constant(unit_interval, 2.0)
        res = luxemburg_norm(PhiSpec.double_phase(field), u)
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert abs(res.modular_at_value - 1.0) <= 1e-10

    def test_zero_function(self, unit_interval):
        field = unit_interval.constant_field(3, 2.0, 3.0, 0.0)
        res = luxemburg_norm(PhiSpec.double_phase(field), GridFunction.constant(unit_interval, 0.0))
        assert res.value == 0.0

    def test_nan_modular_is_not_a_root(self, unit_interval):
        # A spec built past the constructors' checks with a NaN exponent has a
        # NaN modular at every lam, which must fail the tolerance test.
        field = unit_interval.constant_field(3, 2.0, 3.0, 0.0)
        good = PhiSpec.double_phase(field)
        spec = PhiSpec("double_phase", field, np.full(field.shape, np.nan), good.hi, good.weight)
        with pytest.raises(ConvergenceError):
            luxemburg_norm(spec, GridFunction.constant(unit_interval, 2.0))

    @staticmethod
    def _constant_one(length, p, q, mu):
        # The one interior node of three carries the whole length, so the
        # modular of 1 / lam is length * phi(1 / lam).
        dom = GridDomain.interval(3, length)
        return PhiSpec.double_phase(dom.constant_field(3, p, q, mu)), GridFunction.constant(dom, 1.0)

    @pytest.mark.parametrize("p,length", [(1e-3, 0.1), (1e-3, 10.0), (1e-300, 0.25), (1e-300, 1.0)])
    def test_a_norm_beyond_the_double_range_is_a_convergence_error(self, p, length):
        # 2 length lam^-p = 1: lam = (2 length)^(1/p) underflows (length < 1/2)
        # or overflows (length > 1/2)
        spec, u = self._constant_one(length, p, p, 1.0)
        with pytest.raises(ConvergenceError, match="double range"):
            luxemburg_norm(spec, u)

    @pytest.mark.parametrize("length,q", [(1.0 / 0.492, 2.0), (0.492, 1e-3)], ids=["upper", "lower"])
    def test_a_norm_near_the_end_of_the_double_range_is_found(self, length, q):
        # lam = length^1000 with |log lam| = 709.3, 0.5 below log(max double):
        # the bracket widened by a factor 2 crosses that end and is cut there.
        # At the lower end, q = p keeps mu t^q = 0 t^q finite at t = 1 / lam.
        spec, u = self._constant_one(length, 1e-3, q, 0.0)
        assert luxemburg_norm(spec, u).value == pytest.approx(length**1000, rel=1e-8)

    def test_unit_modular_means_unit_norm(self, rng, unit_interval):
        field = random_field_h3(rng, unit_interval)
        spec = PhiSpec.double_phase(field)
        u = random_grid_function(rng, unit_interval)
        lam = luxemburg_norm(spec, u).value
        scaled = GridFunction(unit_interval, u.values / lam)
        assert modular_rho(spec, scaled) == pytest.approx(1.0, abs=1e-10)
        assert luxemburg_norm(spec, scaled).value == pytest.approx(1.0, abs=1e-9)

    def test_sign_relation_modular_vs_norm(self, rng, unit_interval):
        # norm below/above 1 iff modular below/above 1
        field = random_field_h3(rng, unit_interval)
        spec = PhiSpec.double_phase(field)
        for scale in (0.05, 0.4, 2.5, 8.0):
            u = random_grid_function(rng, unit_interval, scale=scale)
            rho = modular_rho(spec, u)
            norm = luxemburg_norm(spec, u).value
            if abs(rho - 1.0) > 1e-8:
                assert (rho < 1.0) == (norm < 1.0)

    def test_two_sided_power_bounds(self, rng, unit_interval):
        field = random_field_h3(rng, unit_interval)
        spec = PhiSpec.double_phase(field)
        lo, hi = spec.exponent_bounds()
        for scale in (0.1, 0.7, 1.5, 6.0):
            u = random_grid_function(rng, unit_interval, scale=scale)
            rho = modular_rho(spec, u)
            norm = luxemburg_norm(spec, u).value
            slack = 1e-9 * max(1.0, rho)
            if norm < 1.0:
                assert norm**hi <= rho + slack and rho <= norm**lo + slack
            elif norm > 1.0:
                assert norm**lo <= rho + slack and rho <= norm**hi + slack

    def test_homogeneity(self, rng, unit_interval):
        field = random_field_h3(rng, unit_interval)
        spec = PhiSpec.double_phase(field)
        u = random_grid_function(rng, unit_interval)
        base = luxemburg_norm(spec, u).value
        for c in (0.3, 2.0, -1.7):
            scaled = luxemburg_norm(spec, c * u).value
            assert scaled == pytest.approx(abs(c) * base, rel=1e-8)

    def test_classical_lp_agreement(self, rng, unit_interval):
        # mu = 0 with constant p reduces to the discrete L^p norm
        p = 2.7
        field = unit_interval.constant_field(3, p, 2.9, 0.0)
        spec = PhiSpec.double_phase(field)
        u = random_grid_function(rng, unit_interval)
        w = unit_interval.interior_weights
        classical = float(np.sum(w * np.abs(u.values) ** p)) ** (1.0 / p)
        assert luxemburg_norm(spec, u).value == pytest.approx(classical, rel=1e-9)


class TestSobolevNorm:
    def test_zero(self, unit_interval):
        field = unit_interval.constant_field(3, 2.0, 3.0, 0.0)
        assert sobolev_norm(field, GridFunction.constant(unit_interval, 0.0)).value == 0.0

    def test_constant_reduces_to_l2(self, unit_interval):
        field = unit_interval.constant_field(3, 2.0, 3.0, 0.0)
        res = sobolev_norm(field, GridFunction.constant(unit_interval, 1.3))
        assert res.value == pytest.approx(1.3, abs=1e-9)

    def test_unit_modular_gives_unit_norm(self, rng, unit_interval):
        field = random_field_h3(rng, unit_interval)
        u = random_grid_function(rng, unit_interval)
        lam = sobolev_norm(field, u).value
        scaled = GridFunction(unit_interval, u.values / lam)
        assert modular_sobolev(field, scaled) == pytest.approx(1.0, abs=1e-10)
        assert sobolev_norm(field, scaled).value == pytest.approx(1.0, abs=1e-9)

    def test_two_sided_power_bounds(self, rng, unit_interval):
        field = random_field_h3(rng, unit_interval)
        lo, hi = float(np.min(field.p)), float(np.max(field.q))
        for scale in (0.05, 0.8, 4.0):
            u = random_grid_function(rng, unit_interval, scale=scale)
            rho = modular_sobolev(field, u)
            norm = sobolev_norm(field, u).value
            slack = 1e-9 * max(1.0, rho)
            if norm < 1.0:
                assert norm**hi <= rho + slack and rho <= norm**lo + slack
            elif norm > 1.0:
                assert norm**lo <= rho + slack and rho <= norm**hi + slack


class TestBoundaryNorms:
    def test_unit_square_boundary_modular(self, unit_square):
        field = unit_square.constant_field(3, 2.0, 3.0, 0.0)
        u = GridFunction.constant(unit_square, 1.0)
        assert boundary_modular(PhiSpec.double_phase(field), u) == pytest.approx(4.0, rel=1e-13)

    def test_boundary_zero(self, unit_square):
        field = unit_square.constant_field(3, 2.0, 3.0, 0.0)
        u = GridFunction.constant(unit_square, 0.0)
        assert boundary_modular(PhiSpec.double_phase(field), u) == 0.0

    def test_boundary_norm_hand_solved(self, unit_square):
        # 4 (2/lam)^2 = 1 has the solution lam = 4
        field = unit_square.constant_field(3, 2.0, 3.0, 0.0)
        u = GridFunction.constant(unit_square, 2.0)
        res = boundary_norm(PhiSpec.double_phase(field), u)
        assert res.value == pytest.approx(4.0, abs=1e-9)

    def test_boundary_norm_ignores_interior(self, unit_square, rng):
        field = unit_square.constant_field(3, 2.0, 3.0, 0.0)
        spec = PhiSpec.double_phase(field)
        vals = np.full(unit_square.shape, 2.0)
        vals[~unit_square.boundary_mask] = rng.normal(size=int(np.sum(~unit_square.boundary_mask)))
        res = boundary_norm(spec, GridFunction(unit_square, vals))
        assert res.value == pytest.approx(4.0, abs=1e-9)


def _norm_cases():
    dom = GridDomain.box((33, 33), (2.0, 2.0), (-1.0, -1.0))
    x, y = dom.coordinates
    p = 1.5 + 0.2 * np.sin(x)
    q = 1.25 * p
    field = ExponentField(3, p, q, 1.0 + 0.5 * np.cos(y), spacing=dom.spacing)
    u = np.exp(-3.0 * (x * x + y * y)) * np.cos(1.2 * x + 0.5) + 0.3

    def mid(lo, cap):
        return 0.5 * (lo + cap)

    luxemburg = {
        "double_phase": PhiSpec.double_phase(field),
        "double_phase_normalized": PhiSpec.double_phase_normalized(field),
        "critical": PhiSpec.critical(field),
        "critical_trace": PhiSpec.critical_trace(field),
        "subcritical": PhiSpec.subcritical(field, mid(p, field.critical("p")), mid(q, field.critical("q"))),
        "subcritical_trace": PhiSpec.subcritical_trace(
            field, mid(p, field.critical_trace("p")), mid(q, field.critical_trace("q"))),
        "weighted": PhiSpec.weighted(field, 1.3, 2.6, 1.5),
    }
    cases = {f"luxemburg-{k}": (lambda v, s=s: luxemburg_norm(s, v)) for k, s in luxemburg.items()}
    cases["sobolev"] = lambda v: sobolev_norm(field, v)
    cases["boundary"] = lambda v: boundary_norm(luxemburg["critical_trace"], v)
    return dom, u, cases


_DOMAIN, _PROFILE, _NORMS = _norm_cases()


@pytest.mark.parametrize("which", sorted(_NORMS))
@pytest.mark.parametrize("scale", [1e-3, 1.0, 40.0])
def test_every_norm_converges_in_few_modular_evaluations(which, scale):
    res = _NORMS[which](GridFunction(_DOMAIN, scale * _PROFILE))
    assert res.iterations <= 10
    assert abs(res.modular_at_value - 1.0) <= 1e-10


def test_sobolev_norm_seeds_with_the_sobolev_modular(monkeypatch, rng, unit_square):
    # sobolev_norm builds its terms once and seeds the root-finder from them
    field = random_field_h3(rng, unit_square, N=3)
    u = random_grid_function(rng, unit_square)
    module = importlib.import_module("musielak.modular")
    norm, seeds = module._norm, []

    def spy(spec, terms, rho_u):
        seeds.append(rho_u)
        return norm(spec, terms, rho_u)

    monkeypatch.setattr(module, "_norm", spy)
    sobolev_norm(field, u)
    assert seeds == [pytest.approx(modular_sobolev(field, u), rel=1e-13, abs=0.0)]
