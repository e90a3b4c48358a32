import importlib

import numpy as np
import pytest

from musielak import (
    DomainError,
    ExponentField,
    HypothesisError,
    PhiSpec,
    build_conjugate_table,
    conjugate,
    conjugate_batch,
    conjugate_inverse,
    conjugate_inverse_batch,
    eval_phi,
    tabulate_bounds,
    verify_conjugate_bounds,
    verify_trace_bound,
)

# Reference for (N, p, q, mu, s) = (4, 2, 3, 1, 12), computed two independent
# ways: 40-digit tanh-sinh quadrature after the monotone substitution
# (5.850194916685884823...) and a fixed 10^6-panel midpoint rule
# (agrees to 2.6e-11).
REF_N4_P2_Q3_MU1_S12 = 5.850194916685885


def pure_power_field(N=4, p=2.0):
    q = p + 0.45 * (N - p)
    return ExponentField(N, p, q, 0.0)


class TestConjugateInverse:
    def test_pure_power_closed_form(self):
        # with mu = 0 the inverse is p* s^{1/p*}; N=4, p=2 gives 4 * 16^{1/4} = 8
        f = pure_power_field()
        assert conjugate_inverse(f, None, 16.0, tol=1e-11) == pytest.approx(8.0, rel=1e-10)

    def test_zero(self):
        assert conjugate_inverse(pure_power_field(), None, 0.0) == 0.0

    def test_double_phase_reference_value(self):
        f = ExponentField(4, 2.0, 3.0, 1.0)
        val = conjugate_inverse(f, None, 12.0, tol=1e-12)
        assert val == pytest.approx(REF_N4_P2_Q3_MU1_S12, abs=1e-9)

    def test_midpoint_oracle_agreement(self):
        # independent fixed-order oracle: 10^6 midpoint panels on the
        # substituted integrand, evaluated in logs
        p, q, mu, N = 2.0, 3.0, 1.0, 4.0
        T = 2.0  # 2^2 + 2^3 = 12
        m = 12.0 * N / (N - p)
        M = 1_000_000
        sig = (np.arange(M) + 0.5) / M
        lt = np.log(T) + m * np.log(sig)
        ln_w = np.logaddexp(p * lt, np.log(mu) + q * lt)
        ln_wp = np.logaddexp(np.log(p) + (p - 1) * lt, np.log(mu * q) + (q - 1) * lt)
        oracle = float(np.sum(np.exp(lt + ln_wp - (N + 1) / N * ln_w) * T * m * sig ** (m - 1)) / M)
        lib = conjugate_inverse(ExponentField(4, 2.0, 3.0, 1.0), None, 12.0, tol=1e-12)
        assert lib == pytest.approx(oracle, abs=1e-9)

    def test_strictly_increasing_and_concave(self):
        f = ExponentField(4, 2.0, 3.0, 2.0)
        table = build_conjugate_table(f, None, np.linspace(0.0, 30.0, 40), tol=1e-11)
        assert table.inverse_values[0] == 0.0
        assert np.all(np.diff(table.inverse_values) > 0)
        second = np.diff(table.inverse_values, 2)
        assert np.all(second <= 1e-9)

    def test_negative_s_rejected(self):
        with pytest.raises(DomainError):
            conjugate_inverse(pure_power_field(), None, -1.0)

    def test_inadmissible_field_rejected(self):
        with pytest.raises(HypothesisError):
            conjugate_inverse(ExponentField(3, 2.0, 3.5, 1.0), None, 1.0)  # q > N

    def test_refinement_consistency(self):
        # halving the tolerance moves the value by at most the coarser tolerance
        f = ExponentField(4, 1.7, 2.6, 0.8)
        for s in (0.3, 4.0, 90.0):
            coarse = conjugate_inverse(f, None, s, tol=1e-6)
            fine = conjugate_inverse(f, None, s, tol=5e-7)
            assert abs(fine - coarse) <= 1e-6 * max(1.0, abs(coarse))

    def test_normalized_variant_linear_branch(self):
        # below the value at 1 the normalized inverse is closed form
        N, mu = 4.0, 1.5
        s = 2.0  # below 1 + mu
        vals, _ = conjugate_inverse_batch(N, 2.0, 3.0, mu, s, tol=1e-12, normalized=True)
        expect = (N / (N - 1.0)) * s ** ((N - 1.0) / N) / (1.0 + mu)
        assert vals[0] == pytest.approx(expect, rel=1e-12)

    def test_normalized_variant_continuous_at_break(self):
        N, mu = 4.0, 1.5
        c = 1.0 + mu
        below, _ = conjugate_inverse_batch(N, 2.0, 3.0, mu, c * (1 - 1e-9), tol=1e-12, normalized=True)
        above, _ = conjugate_inverse_batch(N, 2.0, 3.0, mu, c * (1 + 1e-9), tol=1e-12, normalized=True)
        assert below[0] == pytest.approx(above[0], rel=1e-7)


class TestConjugate:
    def test_pure_power_closed_form(self):
        # H*(t) = (t/p*)^{p*}; N=4, p=2: (8/4)^4 = 16
        f = pure_power_field()
        assert conjugate(f, None, 8.0, tol=1e-11) == pytest.approx(16.0, rel=1e-9)

    def test_zero(self):
        assert conjugate(pure_power_field(), None, 0.0) == 0.0

    def test_round_trip(self, rng):
        f = ExponentField(4, 2.0, 3.0, 1.0)
        tol = 1e-11
        for t in rng.uniform(0.01, 20.0, 12):
            s = conjugate(f, None, t, tol=tol)
            back = conjugate_inverse(f, None, s, tol=tol)
            assert back == pytest.approx(t, abs=10 * tol * max(1.0, t))

    def test_increasing_and_convex_sampled(self):
        f = ExponentField(4, 2.0, 3.0, 1.0)
        ts = np.linspace(0.0, 6.0, 25)
        vals = conjugate_batch(4.0, 2.0, 3.0, 1.0, ts, tol=1e-11)
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) >= -1e-8)

    def test_batch_matches_scalar(self, rng):
        f = ExponentField(5, 1.8, 2.7, 0.6)
        ts = rng.uniform(0.0, 10.0, 6)
        batch = conjugate_batch(5.0, 1.8, 2.7, 0.6, ts, tol=1e-11)
        for t, v in zip(ts, batch):
            assert conjugate(f, None, float(t), tol=1e-11) == pytest.approx(v, rel=1e-9)


class TestBoundVerification:
    def test_pure_power_bound_attained(self):
        # with mu = 0 the p-power bound is an equality everywhere
        f = pure_power_field(N=4, p=2.0)
        ts = [0.5, 1.0, 3.0, 10.0]
        rep = verify_conjugate_bounds(f, [(None, t) for t in ts], tol=1e-9)
        assert rep.all_pass
        assert np.max(np.abs(rep.slacks["power_p"])) <= 1e-8

    def test_zero_argument_all_slack_zero(self):
        f = ExponentField(4, 2.0, 3.0, 1.0)
        rep = verify_conjugate_bounds(f, [(None, 0.0)], tol=1e-9)
        assert rep.all_pass
        assert rep.slacks["power_p"][0] == pytest.approx(0.0, abs=1e-12)

    def test_double_phase_bounds_hold(self):
        f = ExponentField(4, 2.0, 3.0, 1.0)
        rep = verify_conjugate_bounds(f, [(None, t) for t in (0.5, 1.0, 2.0, 5.0)], tol=1e-9)
        assert rep.all_pass, rep.worst()

    def test_trace_bound_pure_power(self):
        f = pure_power_field(N=4, p=2.0)
        rep = verify_trace_bound(f, [(None, t) for t in np.linspace(0.0, 10.0, 21)], tol=1e-9)
        assert rep.all_pass, rep.worst()

    def test_trace_bound_double_phase(self):
        f = ExponentField(4, 2.0, 3.0, 1.0)
        rep = verify_trace_bound(f, [(None, t) for t in (0.5, 1.0, 2.0, 5.0)], tol=1e-9)
        assert rep.all_pass, rep.worst()

    def test_nodewise_fields(self, rng):
        p = rng.uniform(1.4, 2.0, 7)
        q = p + rng.uniform(0.1, 0.5, 7)
        mu = rng.uniform(0.0, 2.0, 7)
        f = ExponentField(4, p, q, mu)
        samples = [(i, float(t)) for i, t in enumerate(rng.uniform(0.0, 8.0, 7))]
        assert verify_conjugate_bounds(f, samples).all_pass
        assert verify_trace_bound(f, samples).all_pass

    def test_critical_function_agreement(self):
        # the critical-function value used in the domination check matches eval_phi
        f = ExponentField(4, 2.0, 3.0, 16.0)
        spec = PhiSpec.critical(f)
        assert eval_phi(spec, None, 1.0) == pytest.approx(65537.0)


class TestTabulateBounds:
    FIELD = ExponentField(3, np.linspace(1.35, 1.8, 30), np.linspace(1.7, 2.3, 30),
                          np.where(np.arange(30) % 3 == 0, 0.0, np.linspace(0.1, 2.0, 30)))
    TS = np.linspace(0.0, 9.0, 10)

    def test_one_solve_per_sample(self, monkeypatch):
        module = importlib.import_module("musielak.conjugate")
        sizes = []

        def counted(N, p, q, mu, t, **kw):
            sizes.append(np.size(t))
            return conjugate_batch(N, p, q, mu, t, **kw)

        monkeypatch.setattr(module, "conjugate_batch", counted)
        nodes = list(range(12))
        report = tabulate_bounds(self.FIELD, nodes, self.TS)
        assert sum(sizes) == len(nodes) * self.TS.size == report.conjugate.size == len(report.samples)

    @pytest.mark.parametrize("block", [None, 7])
    def test_blocks_across_nodes_match_per_node_tables(self, monkeypatch, block):
        module = importlib.import_module("musielak.conjugate")
        if block is not None:
            monkeypatch.setattr(module, "_BLOCK", block)
        nodes = list(range(30))
        assert len(nodes) * self.TS.size > module._BLOCK
        for normalized in (False, True):
            report = tabulate_bounds(self.FIELD, nodes, self.TS, normalized=normalized)
            for x in nodes:
                rows = slice(x * self.TS.size, (x + 1) * self.TS.size)
                rep_node = tabulate_bounds(self.FIELD, [x], self.TS, normalized=normalized)
                assert report.samples[rows] == rep_node.samples
                np.testing.assert_allclose(report.conjugate[rows], rep_node.conjugate, rtol=1e-12, atol=0.0)
                for name, vals in rep_node.slacks.items():
                    assert np.all(np.abs(report.slacks[name][rows] - vals) <= 1e-12 * np.maximum(1.0, np.abs(vals)))

    def test_slacks_match_the_verify_functions(self):
        nodes = [0, 1, 2]
        samples = [(x, t) for x in nodes for t in self.TS]
        report = tabulate_bounds(self.FIELD, nodes, self.TS, tol=1e-9)
        ref = {**verify_conjugate_bounds(self.FIELD, samples).slacks,
               **verify_trace_bound(self.FIELD, samples).slacks}
        assert report.samples == samples and report.tol == 1e-9
        assert set(report.slacks) == set(ref)
        for name, vals in ref.items():
            assert np.all(np.abs(report.slacks[name] - vals) <= 1e-12 * np.maximum(1.0, np.abs(vals)))
        assert report.all_pass

    def test_inadmissible_field_rejected(self):
        with pytest.raises(HypothesisError):
            tabulate_bounds(ExponentField(3, 1.5, 3.5, 0.0), [None], self.TS)

    def test_trace_bound_reuses_a_given_conjugate(self, monkeypatch):
        samples = [(x, t) for x in (0, 1, 3) for t in self.TS]
        checks = verify_conjugate_bounds(self.FIELD, samples, normalized=True)
        h_ref = np.concatenate([conjugate_batch(3, *self.FIELD.at(x), self.TS, tol=1e-11,
                                                normalized=True) for x in (0, 1, 3)])
        np.testing.assert_allclose(checks.conjugate, h_ref, rtol=1e-12, atol=0.0)
        solved = verify_trace_bound(self.FIELD, samples, normalized=True)
        monkeypatch.setattr(importlib.import_module("musielak.conjugate"), "conjugate_batch", None)
        given = verify_trace_bound(self.FIELD, samples, conjugate=checks.conjugate)
        assert given.samples == solved.samples
        np.testing.assert_array_equal(given.conjugate, solved.conjugate)
        np.testing.assert_array_equal(given.slacks["trace_domination"], solved.slacks["trace_domination"])
        with pytest.raises(DomainError):
            verify_trace_bound(self.FIELD, samples, conjugate=checks.conjugate[:-1])

    def test_one_field_lookup_per_node(self, monkeypatch):
        calls = []
        lookup = ExponentField.at
        monkeypatch.setattr(ExponentField, "at", lambda f, x: calls.append(x) or lookup(f, x))
        nodes = [4, 2, 7]
        tabulate_bounds(self.FIELD, nodes, self.TS)
        assert calls == nodes * 2
        calls.clear()
        verify_trace_bound(self.FIELD, [(4, 1.0), (2, 1.0), (4, 2.0)])
        assert calls == [4, 2, 4]
