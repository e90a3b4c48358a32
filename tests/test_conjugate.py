import csv
import importlib
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from musielak import (
    ConvergenceError,
    DomainError,
    ExponentField,
    HypothesisError,
    PhiSpec,
    conjugate_batch,
    conjugate_inverse_batch,
    eval_phi,
    tabulate_bounds,
    verify_conjugate_bounds,
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
        vals, _ = conjugate_inverse_batch(f.N, *f.at(None), 16.0)
        assert vals[0] == pytest.approx(8.0, rel=1e-10)

    def test_zero(self):
        f = pure_power_field()
        assert conjugate_inverse_batch(f.N, *f.at(None), 0.0)[0][0] == 0.0

    def test_double_phase_reference_value(self):
        vals, _ = conjugate_inverse_batch(4, 2.0, 3.0, 1.0, 12.0)
        assert vals[0] == pytest.approx(REF_N4_P2_Q3_MU1_S12, abs=1e-9)

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
        lib, _ = conjugate_inverse_batch(4, 2.0, 3.0, 1.0, 12.0)
        assert lib[0] == pytest.approx(oracle, abs=1e-9)

    def test_strictly_increasing_and_concave(self):
        vals, _ = conjugate_inverse_batch(4, 2.0, 3.0, 2.0, np.linspace(0.0, 30.0, 40))
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) > 0)
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-9)

    @pytest.mark.parametrize("s", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_negative_s_rejected(self, s):
        f = pure_power_field()
        with pytest.raises(DomainError):
            conjugate_inverse_batch(f.N, *f.at(None), s)
        with pytest.raises(DomainError):
            conjugate_inverse_batch(3, 1.5, 2, 1, [1.0, s])

    def test_inadmissible_field_rejected(self):
        with pytest.raises(HypothesisError):
            conjugate_inverse_batch(3, 2.0, 3.5, 1.0, 1.0)  # q > N

    def test_normalized_variant_linear_branch(self):
        # below the value at 1 the normalized inverse is closed form
        N, mu = 4.0, 1.5
        s = 2.0  # below 1 + mu
        vals, _ = conjugate_inverse_batch(N, 2.0, 3.0, mu, s, normalized=True)
        expect = (N / (N - 1.0)) * s ** ((N - 1.0) / N) / (1.0 + mu)
        assert vals[0] == pytest.approx(expect, rel=1e-12)

    def test_normalized_variant_continuous_at_break(self):
        N, mu = 4.0, 1.5
        c = 1.0 + mu
        below, _ = conjugate_inverse_batch(N, 2.0, 3.0, mu, c * (1 - 1e-9), normalized=True)
        above, _ = conjugate_inverse_batch(N, 2.0, 3.0, mu, c * (1 + 1e-9), normalized=True)
        assert below[0] == pytest.approx(above[0], rel=1e-7)


class TestConjugate:
    def test_pure_power_closed_form(self):
        # H*(t) = (t/p*)^{p*}; N=4, p=2: (8/4)^4 = 16
        f = pure_power_field()
        assert conjugate_batch(f.N, *f.at(None), 8.0)[0] == pytest.approx(16.0, rel=1e-9)

    def test_zero(self):
        f = pure_power_field()
        assert conjugate_batch(f.N, *f.at(None), 0.0)[0] == 0.0

    def test_round_trip(self, rng):
        tol = importlib.import_module("musielak.conjugate")._SOLVE_TOL
        ts = rng.uniform(0.01, 20.0, 12)
        back, _ = conjugate_inverse_batch(4, 2.0, 3.0, 1.0, conjugate_batch(4, 2.0, 3.0, 1.0, ts))
        assert np.all(np.abs(back - ts) <= 10 * tol * np.maximum(1.0, ts))

    def test_increasing_and_convex_sampled(self):
        f = ExponentField(4, 2.0, 3.0, 1.0)
        ts = np.linspace(0.0, 6.0, 25)
        vals = conjugate_batch(4.0, 2.0, 3.0, 1.0, ts)
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) >= -1e-8)

    @pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_negative_or_non_finite_t_rejected(self, t):
        f = pure_power_field()
        with pytest.raises(DomainError):
            conjugate_batch(f.N, *f.at(None), t)
        for normalized in (False, True):
            with pytest.raises(DomainError):
                conjugate_batch(3, 1.5, 2, 1, [1.0, t], normalized=normalized)

    @pytest.mark.parametrize("batch,p,q,named", [
        (conjugate_inverse_batch, 1.5, 1.2, "q = 1.2"),
        (conjugate_batch, 1.5, 1.2, "q = 1.2"),
        (conjugate_batch, 1.5, 3.5, "q = 3.5"),
        (conjugate_batch, float("nan"), 2.0, "p = nan"),
        (conjugate_inverse_batch, [1.5, float("nan")], 2.0, "p = nan"),
        (conjugate_batch, 1.5, [2.0, 2.5, 3.0], "q = 3"),
    ])
    def test_batches_reject_inadmissible_exponents(self, batch, p, q, named):
        with pytest.raises(HypothesisError, match=named):
            batch(3, p, q, 1, 1.0)

    def test_batch_matches_scalar(self, rng):
        ts = rng.uniform(0.0, 10.0, 6)
        batch = conjugate_batch(5.0, 1.8, 2.7, 0.6, ts)
        for t, v in zip(ts, batch):
            assert conjugate_batch(5.0, 1.8, 2.7, 0.6, float(t))[0] == pytest.approx(v, rel=1e-9)


class TestBoundVerification:
    def test_pure_power_bound_attained(self):
        # with mu = 0 the p-power bound is an equality everywhere
        f = pure_power_field(N=4, p=2.0)
        ts = [0.5, 1.0, 3.0, 10.0]
        rep = verify_conjugate_bounds(f, [(None, t) for t in ts])
        assert rep.all_pass
        assert np.max(np.abs(rep.slacks["power_p"])) <= 1e-8

    def test_zero_argument_all_slack_zero(self):
        f = ExponentField(4, 2.0, 3.0, 1.0)
        rep = verify_conjugate_bounds(f, [(None, 0.0)])
        assert rep.all_pass
        assert rep.slacks["power_p"][0] == pytest.approx(0.0, abs=1e-12)

    def test_double_phase_bounds_hold(self):
        f = ExponentField(4, 2.0, 3.0, 1.0)
        rep = verify_conjugate_bounds(f, [(None, t) for t in (0.5, 1.0, 2.0, 5.0)])
        assert rep.all_pass, rep.slacks

    def test_trace_bound_pure_power(self):
        f = pure_power_field(N=4, p=2.0)
        trace = verify_conjugate_bounds(f, [(None, t) for t in np.linspace(0.0, 10.0, 21)]).slacks["trace_domination"]
        assert np.all(trace >= -1e-9), np.min(trace)

    def test_trace_bound_double_phase(self):
        f = ExponentField(4, 2.0, 3.0, 1.0)
        trace = verify_conjugate_bounds(f, [(None, t) for t in (0.5, 1.0, 2.0, 5.0)]).slacks["trace_domination"]
        assert np.all(trace >= -1e-9), np.min(trace)

    def test_nodewise_fields(self, rng):
        p = rng.uniform(1.4, 2.0, 7)
        q = p + rng.uniform(0.1, 0.5, 7)
        mu = rng.uniform(0.0, 2.0, 7)
        f = ExponentField(4, p, q, mu)
        samples = [(i, float(t)) for i, t in enumerate(rng.uniform(0.0, 8.0, 7))]
        rep = verify_conjugate_bounds(f, samples)
        assert rep.all_pass
        assert np.all(rep.slacks["trace_domination"] >= -importlib.import_module("musielak.conjugate")._PASS_TOL)

    def test_domination_slacks_use_the_phi_spec_critical_functions(self):
        # a node with mu = 0 and samples at t = 0: the slacks hold exactly the
        # values of PhiSpec.critical and PhiSpec.critical_trace
        f = ExponentField(3, np.array([1.5, 1.8, 2.0]), np.array([2.0, 2.2, 2.5]), np.array([0.0, 0.5, 2.0]))
        samples = [(x, t) for x in range(3) for t in (0.0, 0.3, 1.0, 4.0)]
        rep = verify_conjugate_bounds(f, samples)
        N, h = f.N, rep.conjugate
        const = float(np.max(f.critical("q") ** f.critical("q")))
        g_star = np.array([eval_phi(PhiSpec.critical(f), x, t) for x, t in samples])
        t_star = np.array([eval_phi(PhiSpec.critical_trace(f), x, t) for x, t in samples])
        rhs = 2.0 * const ** ((N - 1.0) / N) * h ** ((N - 1.0) / N)
        assert np.array_equal(rep.slacks["critical_domination"],
                              (2.0 * const * h - g_star) / np.maximum(1.0, g_star))
        assert np.array_equal(rep.slacks["trace_domination"],
                              (rhs - t_star) / np.maximum(1.0, np.maximum(rhs, t_star)))

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

    def test_blocks_across_nodes_match_per_node_tables(self):
        nodes = list(range(30))
        for normalized in (False, True):
            report = tabulate_bounds(self.FIELD, nodes, self.TS, normalized=normalized)
            for x in nodes:
                rows = slice(x * self.TS.size, (x + 1) * self.TS.size)
                rep_node = tabulate_bounds(self.FIELD, [x], self.TS, normalized=normalized)
                assert report.samples[rows] == rep_node.samples
                np.testing.assert_allclose(report.conjugate[rows], rep_node.conjugate, rtol=1e-12, atol=0.0)
                for name, vals in rep_node.slacks.items():
                    assert np.all(np.abs(report.slacks[name][rows] - vals) <= 1e-12 * np.maximum(1.0, np.abs(vals)))

    def test_many_node_table_equals_per_node_solves_exactly(self):
        # Each Newton row stops on its own, so a sample's value does not
        # depend on the other samples of its batch.
        nodes = list(range(30))
        for normalized in (False, True):
            report = tabulate_bounds(self.FIELD, nodes, self.TS, normalized=normalized)
            for x in nodes:
                rows = slice(x * self.TS.size, (x + 1) * self.TS.size)
                rep_node = tabulate_bounds(self.FIELD, [x], self.TS, normalized=normalized)
                h_node = conjugate_batch(3, *self.FIELD.at(x), self.TS, normalized=normalized)
                assert np.all(report.conjugate[rows] == rep_node.conjugate)
                assert np.all(report.conjugate[rows] == h_node)
                for name, vals in rep_node.slacks.items():
                    assert np.all(report.slacks[name][rows] == vals), (x, name)

    WIDE = ExponentField(3, np.linspace(1.3, 1.9, 64), np.linspace(1.6, 2.5, 64),
                         np.where(np.arange(64) % 4 == 0, 0.0, np.linspace(0.05, 3.0, 64)))

    @pytest.mark.parametrize("normalized", [False, True])
    def test_one_solve_call_per_table(self, monkeypatch, normalized):
        module = importlib.import_module("musielak.conjugate")
        sizes = []

        def counted(N, p, q, mu, t, **kw):
            sizes.append(np.size(t))
            return conjugate_batch(N, p, q, mu, t, **kw)

        monkeypatch.setattr(module, "conjugate_batch", counted)
        tabulate_bounds(self.WIDE, range(64), np.linspace(0.0, 20.0, 64), normalized=normalized)
        assert sizes == [64 * 64]

    @pytest.mark.parametrize("normalized", [False, True])
    def test_one_inverse_call_per_table(self, monkeypatch, normalized):
        # The Newton steps evaluate the closed form directly; one call of the
        # public inverse then certifies the returned conjugates.
        module = importlib.import_module("musielak.conjugate")
        sizes = []

        def counted(N, p, q, mu, s, **kw):
            sizes.append(np.size(s))
            return conjugate_inverse_batch(N, p, q, mu, s, **kw)

        monkeypatch.setattr(module, "conjugate_inverse_batch", counted)
        tabulate_bounds(self.WIDE, range(64), np.linspace(0.0, 20.0, 64), normalized=normalized)
        assert sizes == [64 * 64]

    def test_table_memory_peak(self):
        ts = np.linspace(0.0, 20.0, 64)
        tabulate_bounds(self.WIDE, [0, 1], ts, normalized=True)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            tabulate_bounds(self.WIDE, range(64), ts, normalized=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_slacks_match_the_verify_functions(self):
        nodes = [0, 1, 2]
        samples = [(x, t) for x in nodes for t in self.TS]
        report = tabulate_bounds(self.FIELD, nodes, self.TS)
        ref = verify_conjugate_bounds(self.FIELD, samples).slacks
        assert report.samples == samples
        assert set(report.slacks) == set(ref)
        for name, vals in ref.items():
            assert np.all(np.abs(report.slacks[name] - vals) <= 1e-12 * np.maximum(1.0, np.abs(vals)))
        assert report.all_pass

    def test_inadmissible_field_rejected(self):
        with pytest.raises(HypothesisError):
            tabulate_bounds(ExponentField(3, 1.5, 3.5, 0.0), [None], self.TS)

    def test_one_field_lookup_per_node(self, monkeypatch):
        calls = []
        lookup = ExponentField.at
        monkeypatch.setattr(ExponentField, "at", lambda f, x: calls.append(x) or lookup(f, x))
        nodes = [4, 2, 7]
        tabulate_bounds(self.FIELD, nodes, self.TS)
        assert calls == nodes
        calls.clear()
        verify_conjugate_bounds(self.FIELD, [(4, 1.0), (2, 1.0), (4, 2.0)])
        assert calls == [4, 2, 4]


def _mp_inverse(N, p, q, mu, s, normalized):
    """The inverse conjugate at 30 digits: T = W^{-1}(s) by Newton from above,
    then the Euler-integral form N (T^a/a) 2F1(1/N, b; b+1; -mu T^{q-p}) - N T s^{-1/N}."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        N, p, q, mu = (mp.mpf(float(v)) for v in (N, p, q, mu))
        s = mp.mpf(s)  # a float exactly; a 30-digit s stays 30 digits
        a = 1 - p / N
        b = a / (q - p)

        def G(T, w):
            return N * (T**a / a * mp.hyp2f1(1 / N, b, b + 1, -mu * T ** (q - p)) - T * w ** (-1 / N))

        def W_inv(w):
            T = min(w ** (1 / p), (w / mu) ** (1 / q)) if mu > 0 else w ** (1 / p)
            for _ in range(200):
                f = T**p + mu * T**q - w
                if abs(f) <= w * mp.mpf(10) ** -28:
                    return T
                T -= f / (p * T ** (p - 1) + mu * q * T ** (q - 1))
            raise AssertionError("mpmath Newton did not converge")

        if not normalized:
            return +G(W_inv(s), s)
        c = 1 + mu
        linear = N / (N - 1) * min(s, c) ** ((N - 1) / N) / c
        return +(linear if s <= c else linear + G(W_inv(s), s) - G(mp.mpf(1), c))


def _mp_conjugate(N, p, q, mu, t, normalized, seed):
    """The conjugate at 30 digits: the root in log s of ``_mp_inverse(s) = t``,
    by the secant method from ``seed`` > 0.  The inverse increases strictly,
    so the root does not depend on the seed."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        u0 = mp.log(seed)
        return mp.exp(mp.findroot(lambda u: _mp_inverse(N, p, q, mu, mp.exp(u), normalized) - t,
                                  (u0, u0 + mp.mpf("1e-6"))))


def _oracle_cases(n=240, seed=20261018):
    """Cases over N = 2..6 that reach q - p = 1e-3, N - q = 1e-3 (N - p),
    mu from 1e-6 to 1e6 and s from 1e-8 to 1e8."""
    rng = np.random.default_rng(seed)
    N = rng.integers(2, 7, n).astype(float)
    p = 1.0 + (N - 1.0) * rng.uniform(1e-3, 0.99, n)
    gap = N - p
    near = 10.0 ** rng.uniform(-3.0, -1.0, n)
    kind = np.arange(n) % 3
    q = np.where(kind == 0, p + near * np.minimum(1.0, gap) * 0.9,
                 np.where(kind == 1, N - near * gap, p + gap * rng.uniform(0.1, 0.9, n)))
    mu = 10.0 ** rng.uniform(-6.0, 6.0, n)
    s = 10.0 ** rng.uniform(-8.0, 8.0, n)
    return N, p, q, mu, s


def _extreme_cases():
    """N = 2, 3, 5 with mu = 0, 1e-6, 1, 1e6 and s = 1e-300 to 1e300, where
    T^q overflows or underflows a double."""
    grid = np.meshgrid([2.0, 3.0, 5.0], [0.0, 1e-6, 1.0, 1e6],
                       10.0 ** np.array([-300, -200, -100, 100, 200, 300]), indexing="ij")
    N, mu, s = (a.ravel() for a in grid)
    p = 1.0 + 0.4 * (N - 1.0)
    return N, p, p + 0.5 * (N - p), mu, s


def _assert_matches_mp_inverse(N, p, q, mu, s, normalized):
    vals, est = conjugate_inverse_batch(N, p, q, mu, s, normalized=normalized)
    for i in range(s.size):
        ref = float(_mp_inverse(N[i], p[i], q[i], mu[i], s[i], normalized))
        err = abs(vals[i] - ref)
        assert err <= 1e-10 * abs(ref), (N[i], p[i], q[i], mu[i], s[i], err / ref)
        assert err <= est[i], (N[i], p[i], q[i], mu[i], s[i], err, est[i])


@pytest.mark.parametrize("normalized", [False, True])
def test_closed_form_inverse_matches_mpmath(normalized):
    N, p, q, mu, s = _oracle_cases()
    assert np.min(q - p) < 2e-3 and np.min((N - q) / (N - p)) < 2e-3
    if normalized:
        assert 50 < np.count_nonzero(s <= 1.0 + mu) < s.size - 50
    _assert_matches_mp_inverse(N, p, q, mu, s, normalized)


@pytest.mark.parametrize("normalized", [False, True])
def test_closed_form_inverse_matches_mpmath_over_extreme_range(normalized):
    _assert_matches_mp_inverse(*_extreme_cases(), normalized)


@pytest.mark.parametrize("normalized", [False, True])
def test_conjugate_batch_inverts_the_mpmath_inverse(normalized):
    N, p, q, mu, s = _oracle_cases()
    t = np.array([float(_mp_inverse(*case, normalized)) for case in zip(N, p, q, mu, s)])
    np.testing.assert_allclose(conjugate_batch(N, p, q, mu, t, normalized=normalized), s, rtol=1e-9, atol=0.0)


def test_conjugate_where_the_q_power_overflows():
    # t^{q*} overflows a double (q* = 495); with mu = 0 the conjugate is (t/p*)^{p*}
    N, p, t = 5.0, 2.65, 4.5
    p_star = N * p / (N - p)
    assert conjugate_batch(N, p, 4.95, 0.0, t)[0] == pytest.approx((t / p_star) ** p_star, rel=1e-12)


@pytest.mark.parametrize("s", [1e250, 1e300, 1e307])
def test_inverse_with_mu_zero_where_the_q_power_overflows(s):
    # T = s^{1/p} and T^q overflows; with mu = 0 the inverse is p* s^{1/p*}, p* = 3
    vals, _ = conjugate_inverse_batch(3.0, 1.5, 2.0, 0.0, s)
    assert vals[0] == pytest.approx(3.0 * s ** (1.0 / 3.0), rel=1e-13, abs=0.0)


def test_conjugate_with_mu_zero_where_the_certifying_inverse_overflows():
    # The certifying inverse at s = (t/p*)^{p*} meets T^{q-p} and T^q beyond a double
    N, p, t = 3.0, 1.1, np.array([1e80, 1e120])
    p_star = N * p / (N - p)
    np.testing.assert_allclose(conjugate_batch(N, p, 2.9, 0.0, t), (t / p_star) ** p_star, rtol=1e-12, atol=0.0)


def test_conjugate_that_overflows_is_a_convergence_error():
    # (t/p*)^{p*} = (1e150/3)^3 is about 4e448
    with pytest.raises(ConvergenceError):
        conjugate_batch(3.0, 1.5, 2.0, 0.0, 1e150)


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("variant", ["raw", "normalized"])
def test_golden_conjugates_are_the_mpmath_conjugate(variant):
    # The conjugate column of the golden tables that test_cli pins is the
    # float of the 30-digit conjugate.
    payload = json.loads((DATA / f"conjugate_golden_{variant}.json").read_text())
    field = ExponentField(payload["field"]["N"], *(np.array(payload["field"][k]) for k in ("p", "q", "mu")))
    with open(DATA / f"conjugate_golden_{variant}.csv", newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.DictReader(fh) if float(row["t"]) > 0]
    assert len(rows) == 60
    for row in rows:
        h = float(row["conjugate"])
        ref = _mp_conjugate(field.N, *field.at(int(row["x_index"])), float(row["t"]), payload["normalized"], h)
        assert h == pytest.approx(float(ref), rel=1e-14, abs=0.0), row


def test_accuracy_bound_covers_q_near_N():
    # With q within 1e-8 (N - p) of N, 2F1 loses about eps/(b - 1/N) with
    # b - 1/N = (N - q)/(N (q - p)): the errors pass 1e-10, and the bound follows.
    rng = np.random.default_rng(8)
    n = 80
    N = rng.integers(2, 7, n).astype(float)
    p = 1.0 + (N - 1.0) * rng.uniform(1e-3, 0.99, n)
    q = N - (N - p) * 10.0 ** rng.uniform(-8.0, -3.0, n)
    mu = 10.0 ** rng.uniform(-6.0, 6.0, n)
    s = 10.0 ** rng.uniform(-8.0, 8.0, n)
    for normalized in (False, True):
        vals, est = conjugate_inverse_batch(N, p, q, mu, s, normalized=normalized)
        err = np.array([abs(v - float(_mp_inverse(*case, normalized))) for v, *case in zip(vals, N, p, q, mu, s)])
        assert np.all(err <= est)
        assert np.max(err / np.abs(vals)) > 1e-10
        assert np.max(est / np.abs(vals)) < 1e-4


def test_closed_form_matches_the_defining_integral():
    # The integration by parts, checked against tanh-sinh quadrature of
    # integral_0^s W^{-1}(tau) tau^{-(N+1)/N} dtau after tau = W(t) and
    # t = v^m, m = N/(N - p), which makes the integrand smooth at zero.
    mp = pytest.importorskip("mpmath")
    for N, p, q, mu, T in [(2, 1.5, 1.6666666666666667, 0.7, 3.0), (3, 1.2, 2.9, 1e3, 0.05),
                           (5, 4.0, 4.001, 2.0, 40.0), (6, 1.1, 1.3, 1e-4, 1e4)]:
        s = float(T**p + mu * T**q)
        m = N / (N - p)
        with mp.workdps(30):
            def integrand(v):
                t = v**m
                dW = p * t ** (p - 1) + mu * q * t ** (q - 1)
                return t * dW * (t**p + mu * t**q) ** (-(N + 1.0) / N) * m * v ** (m - 1)

            ref = float(mp.quad(integrand, [0, min(T, 1.0) ** (1 / m), T ** (1 / m)]))
        vals, _ = conjugate_inverse_batch(N, p, q, mu, s)
        assert vals[0] == pytest.approx(ref, rel=1e-12)


def test_accuracy_bound_is_the_relative_floor_away_from_q_near_N():
    args = (3.0, 1.5, 2.2, [0.0, 0.5, 4.0], [0.1, 2.0, 50.0])
    for normalized in (False, True):
        ref, est = conjugate_inverse_batch(*args, normalized=normalized)
        np.testing.assert_array_equal(est, 1e-10 * np.abs(ref))


def test_overflowing_domination_constant_is_a_domain_error(monkeypatch):
    # q = 2.95 on N = 3 gives q* = 177, and 177^177 overflows a double
    field = ExponentField(3, 1.5, 2.95, 0.5)
    monkeypatch.setattr(importlib.import_module("musielak.conjugate"), "conjugate_batch", None)
    with pytest.raises(DomainError, match="domination constant"):
        verify_conjugate_bounds(field, [(None, 1.0)])
    with pytest.raises(DomainError, match="domination constant"):
        tabulate_bounds(field, [None], [0.5, 1.0])
    monkeypatch.undo()
    # q* = 99 (q = 2.91) still fits: 99^99 is about 3.7e197
    assert tabulate_bounds(ExponentField(3, 1.5, 2.91, 0.5), [None], [0.5]).slacks


def test_an_overflowing_critical_weight_is_a_domain_error_with_no_warning():
    # mu^(q*/q) = 1e11^30 overflows; the check once warned three times and returned NaN slacks.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite weight"):
            verify_conjugate_bounds(ExponentField(3, 1.5, 2.9, 1e11), [(None, 0.0), (None, 1.0), (None, 5.0)])
