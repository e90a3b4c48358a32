"""Sobolev conjugate of the double-phase function, by quadrature and inversion.

The conjugate is defined through its inverse
``s -> integral_0^s  Winv(tau) tau^{-(N+1)/N} dtau`` where ``Winv`` inverts
the double-phase function ``W(t) = t^p + mu t^q`` in its second argument.
Substituting ``tau = W(t)`` turns this into an integral of the closed-form
expression ``t W'(t) W(t)^{-(N+1)/N}`` with no root-finding inside the
quadrature; the remaining endpoint singularity ``t^{-p/N}`` at zero is removed
by a power substitution and the upper range is integrated in log space.
Everything is vectorized over sample batches so bulk verification sweeps stay
fast.

By default the raw double-phase function is inverted, which reproduces the
closed form ``(t/p*)^{p*}`` exactly when mu vanishes and p is constant.  With
``normalized=True`` the variant that is linear below t = 1 is used instead;
its lower integral is then available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import ConvergenceError, DomainError, HypothesisError
from .phi_core import ExponentField

__all__ = [
    "ConjugateTable",
    "BoundReport",
    "conjugate_inverse",
    "conjugate",
    "conjugate_inverse_batch",
    "conjugate_batch",
    "build_conjugate_table",
    "verify_conjugate_bounds",
    "verify_trace_bound",
    "tabulate_bounds",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 2048
# Samples per conjugate_batch call in the bound checks.  The quadrature's
# work arrays take about 7 KB per sample, so one batch over a 64 x 64 table
# raised peak memory by 26 MB.  Blocks of 256 keep that near 2 MB, and
# blocks of 128 ran the benchmark's tables 13 % slower.
_BLOCK = 256


def _require_admissible(field: ExponentField):
    """Conditions that make the conjugate integral well defined.

    The defining integral needs 1 < p(x) < q(x) < N and a nonnegative bounded
    weight (the endpoint exponent -p/N then stays above -1).  The ratio bound
    on q/p belongs to the embedding theory, not to this computation, and is
    deliberately not enforced here.
    """
    p, q, mu = field.p, field.q, field.mu
    ok = (
        np.all(p > 1.0) and np.all(p < q) and np.all(q < field.N)
        and np.all(mu >= 0.0) and np.all(np.isfinite(mu))
    )
    if not ok:
        raise HypothesisError("conjugate needs 1 < p(x) < q(x) < N and 0 <= mu bounded")


# ---------------------------------------------------------------------------
# Vectorized primitives
# ---------------------------------------------------------------------------

def _invert_w(p, q, mu, s, rtol=1e-14, max_iter=200):
    """Solve t^p + mu t^q = s elementwise by monotone Newton from above."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        upper_p = np.where(s > 0, s ** (1.0 / p), 0.0)
        upper_q = np.where((mu > 0) & (s > 0),
                           (s / np.where(mu > 0, mu, 1.0)) ** (1.0 / q), np.inf)
    t = np.where(s > 0, np.minimum(upper_p, upper_q), 0.0)
    for _ in range(max_iter):
        with np.errstate(invalid="ignore"):
            f = np.where(t > 0, t**p + mu * t**q, 0.0) - s
        if np.all(np.abs(f) <= rtol * np.maximum(s, 1e-300)):
            return t
        with np.errstate(invalid="ignore", divide="ignore"):
            fp = p * t ** (p - 1.0) + mu * q * t ** (q - 1.0)
        step = np.where(t > 0, f / np.maximum(fp, 1e-300), 0.0)
        t = np.maximum(t - step, 0.0)
    raise ConvergenceError("double-phase inversion did not converge")


def _gl_panels(n_panels):
    """Composite Gauss-Legendre nodes/weights on [0, 1]."""
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 / n_panels
    nodes = (centers[:, None] + half * _GL_NODES[None, :]).ravel()
    weights = np.broadcast_to(half * _GL_WEIGHTS[None, :], (n_panels, _GL_NODES.size)).ravel()
    return nodes, weights.ravel()


def _refine(integrand, n_rows, tol, start_panels=4):
    """Panel-doubling composite Gauss-Legendre on [0,1] with per-row masking.

    ``integrand(rows, sigma)`` evaluates the selected rows at the quadrature
    points, returning shape (len(rows), len(sigma)).  Rows are refined until
    the change between consecutive levels is below ``tol`` relative to
    max(1, value).  Returns (values, error estimates).
    """
    idx = np.arange(n_rows)
    nodes, weights = _gl_panels(start_panels)
    vals = integrand(idx, nodes) @ weights
    errs = np.full(n_rows, np.inf)
    pending = idx
    panels = start_panels
    while pending.size and panels < _MAX_PANELS:
        panels *= 2
        nodes, weights = _gl_panels(panels)
        new = integrand(pending, nodes) @ weights
        errs[pending] = np.abs(new - vals[pending])
        vals[pending] = new
        keep = errs[pending] > tol * np.maximum(1.0, np.abs(vals[pending]))
        pending = pending[keep]
    if pending.size:
        raise ConvergenceError("conjugate quadrature did not converge within the panel cap")
    return vals, errs


def _integrand_value(t, N, p, q, mu):
    """t W'(t) W(t)^{-(N+1)/N} with W the raw double-phase function.

    Evaluated entirely in logs so that the negative power of W never meets an
    underflowed intermediate; rows with t = 0 (or underflow) return 0.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lt = np.log(np.where(t > 0, t, 1.0))
        lmu = np.where(mu > 0, np.log(np.where(mu > 0, mu, 1.0)), -np.inf)
        ln_w = np.logaddexp(p * lt, lmu + q * lt)
        ln_wp = np.logaddexp(np.log(p) + (p - 1.0) * lt, lmu + np.log(q) + (q - 1.0) * lt)
        out = np.exp(lt + ln_wp - (N + 1.0) / N * ln_w)
    return np.where((t > 0) & np.isfinite(out), out, 0.0)


def _lower_integral(N, p, q, mu, t_cap, tol):
    """Integral over [0, t_cap]; substitution t = t_cap sigma^m removes the
    endpoint singularity.

    The raw integrand behaves like t^{-p/N} at zero; after substitution it
    vanishes like sigma^{m(N-p)/N - 1}, and m is sized so that power is large
    (about 11), which makes the composite Gauss-Legendre rule converge to
    near machine accuracy within a few refinements.
    """
    m = np.minimum(12.0 * N / (N - p), 300.0)
    out = np.zeros_like(t_cap)
    errs = np.zeros_like(t_cap)
    rows = np.nonzero(t_cap > 0)[0]
    if rows.size == 0:
        return out, errs
    Nr, pr, qr, mur, capr, mr = (a[rows] for a in (N, p, q, mu, t_cap, m))

    def integrand(sub, sig):
        mm = mr[sub][:, None]
        t = capr[sub][:, None] * sig[None, :] ** mm
        jac = capr[sub][:, None] * mm * sig[None, :] ** (mm - 1.0)
        return _integrand_value(t, Nr[sub][:, None], pr[sub][:, None],
                                qr[sub][:, None], mur[sub][:, None]) * jac

    vals, err = _refine(integrand, rows.size, tol)
    out[rows] = vals
    errs[rows] = err
    return out, errs


def _upper_integral(N, p, q, mu, t_lo, t_hi, tol):
    """Integral over [t_lo, t_hi] in log space (smooth, no singularity)."""
    out = np.zeros_like(t_hi)
    errs = np.zeros_like(t_hi)
    rows = np.nonzero(t_hi > t_lo)[0]
    if rows.size == 0:
        return out, errs
    Nr, pr, qr, mur = (a[rows] for a in (N, p, q, mu))
    lo = np.log(t_lo[rows])
    span = np.log(t_hi[rows]) - lo

    def integrand(sub, sig):
        t = np.exp(lo[sub][:, None] + span[sub][:, None] * sig[None, :])
        return _integrand_value(t, Nr[sub][:, None], pr[sub][:, None],
                                qr[sub][:, None], mur[sub][:, None]) * t * span[sub][:, None]

    vals, err = _refine(integrand, rows.size, tol)
    out[rows] = vals
    errs[rows] = err
    return out, errs


def _broadcast_inputs(*args):
    arrs = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    return tuple(np.ascontiguousarray(a.ravel(), dtype=float) for a in arrs)


def conjugate_inverse_batch(N, p, q, mu, s, tol=1e-10, normalized=False):
    """Inverse Sobolev conjugate at the values ``s``, batched.

    Arguments broadcast to a common shape and are flattened.  Returns
    (values, accuracy estimates).
    """
    N, p, q, mu, s = _broadcast_inputs(N, p, q, mu, s)
    if np.any(s < 0):
        raise DomainError("conjugate inverse is defined for s >= 0")
    half = 0.5 * tol
    if normalized:
        c = 1.0 + mu
        vals = (N / (N - 1.0)) * np.minimum(s, c) ** ((N - 1.0) / N) / c
        T = _invert_w(p, q, mu, np.maximum(s, c))
        upper, err_u = _upper_integral(N, p, q, mu, np.ones_like(T), T, half)
        return vals + upper, err_u
    T = _invert_w(p, q, mu, s)
    t_cap = np.minimum(T, 1.0)
    lower, err_l = _lower_integral(N, p, q, mu, t_cap, half)
    upper, err_u = _upper_integral(N, p, q, mu, np.ones_like(T), T, half)
    return lower + upper, err_l + err_u


def conjugate_batch(N, p, q, mu, t, tol=1e-10, normalized=False, max_iter=200):
    """Sobolev conjugate values at arguments ``t``, batched.

    Solves ``inverse(s) = t`` by Newton in log s.  The inverse map grows like
    a positive power of s, so it is convex and increasing in log coordinates
    and the safeguarded iteration converges from the certified power lower
    bounds used as seeds.  All stepping is done in logs to stay overflow-safe.
    """
    N, p, q, mu, t = _broadcast_inputs(N, p, q, mu, t)
    if np.any(t < 0):
        raise DomainError("the conjugate is defined for t >= 0")
    p_star = N * p / (N - p)
    q_star = N * q / (N - q)
    # Certified lower bounds on the conjugate seed the iteration: the two
    # power bounds and the critical function divided by its domination
    # constant.
    with np.errstate(over="ignore", invalid="ignore"):
        mu_pow = np.where(mu > 0, np.where(mu > 0, mu, 1.0) ** (q_star / q), 0.0)
        seed = np.maximum((t / p_star) ** p_star, q_star**-q_star * mu_pow * t**q_star)
        dom_const = 2.0 * q_star**q_star
        alt = np.where(np.isfinite(dom_const),
                       (t**p_star + mu_pow * t**q_star) / dom_const, 0.0)
        seed = np.maximum(seed, np.where(np.isfinite(alt), alt, 0.0))
    seed = np.clip(seed, 1e-280, 1e280)
    y = np.where(t > 0, np.log(seed), 0.0)
    inner = max(min(0.1 * tol, 1e-10), 5e-14)
    target = tol * np.maximum(1.0, t)
    out = np.zeros_like(t)
    active = np.nonzero(t > 0)[0]
    for _ in range(max_iter):
        if active.size == 0:
            return out
        a = active
        s = np.exp(y[a])
        vals, _ = conjugate_inverse_batch(N[a], p[a], q[a], mu[a], s,
                                          tol=inner, normalized=normalized)
        resid = t[a] - vals
        done = np.abs(resid) <= target[a]
        out[a[done]] = s[done]
        rows = a[~done]
        if rows.size:
            sr = s[~done]
            if normalized:
                c = 1.0 + mu[rows]
                winv = np.where(sr <= c, sr / c, _invert_w(p[rows], q[rows], mu[rows], sr))
            else:
                winv = _invert_w(p[rows], q[rows], mu[rows], sr)
            # d inverse / d log s = Winv(s) s^{-1/N}, evaluated in logs.
            with np.errstate(divide="ignore", over="ignore"):
                log_deriv = np.log(winv) - y[rows] / N[rows]
                step = resid[~done] * np.exp(-log_deriv)
            step = np.clip(np.nan_to_num(step, nan=50.0, posinf=50.0, neginf=-50.0), -50.0, 50.0)
            y[rows] = np.clip(y[rows] + step, np.log(1e-290), np.log(1e290))
        active = rows
    raise ConvergenceError("conjugate inversion did not converge")


# ---------------------------------------------------------------------------
# Per-node public interface
# ---------------------------------------------------------------------------

def conjugate_inverse(field: ExponentField, x, s: float, tol: float = 1e-10,
                      normalized: bool = False) -> float:
    """Inverse Sobolev conjugate at node ``x`` and value ``s >= 0``."""
    _require_admissible(field)
    if s < 0:
        raise DomainError("s must be nonnegative")
    if s == 0.0:
        return 0.0
    p, q, mu = field.at(x)
    vals, _ = conjugate_inverse_batch(field.N, p, q, mu, s, tol=tol, normalized=normalized)
    return float(vals[0])


def conjugate(field: ExponentField, x, t: float, tol: float = 1e-10,
              normalized: bool = False) -> float:
    """Sobolev conjugate at node ``x`` and argument ``t`` (zero maps to zero)."""
    _require_admissible(field)
    if t < 0:
        raise DomainError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    p, q, mu = field.at(x)
    return float(conjugate_batch(field.N, p, q, mu, t, tol=tol, normalized=normalized)[0])


@dataclass(frozen=True)
class ConjugateTable:
    """Sampled inverse-conjugate values at one node, with accuracy estimates."""

    x: object
    s_values: np.ndarray
    inverse_values: np.ndarray
    accuracy: np.ndarray


def build_conjugate_table(field: ExponentField, x, s_values, tol: float = 1e-10,
                          normalized: bool = False) -> ConjugateTable:
    _require_admissible(field)
    s_values = np.asarray(s_values, dtype=float)
    if np.any(s_values < 0):
        raise DomainError("s values must be nonnegative")
    p, q, mu = field.at(x)
    vals, err = conjugate_inverse_batch(field.N, p, q, mu, s_values, tol=tol,
                                        normalized=normalized)
    return ConjugateTable(x, s_values, vals, err)


# ---------------------------------------------------------------------------
# Inequality verification
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Per-sample slack of verified inequalities; slack >= -tol means pass."""

    samples: list  # (x, t) pairs
    slacks: dict  # name -> normalized slack array
    tol: float
    conjugate: np.ndarray | None = None  # conjugate values the slacks were computed from

    @property
    def all_pass(self) -> bool:
        return all(bool(np.all(v >= -self.tol)) for v in self.slacks.values())

    def worst(self):
        return {k: float(np.min(v)) for k, v in self.slacks.items()}


def _sample_arrays(field: ExponentField, samples):
    """Nodes and (p, q, mu, t) arrays of the (node, t) samples, read in one
    pass, with one field lookup per run of equal consecutive nodes."""
    xs, data, ts = [], [], []
    for x, run in groupby(samples, key=lambda sample: sample[0]):
        pqm = field.at(x)
        for _, t in run:
            xs.append(x)
            data.append(pqm)
            ts.append(t)
    p, q, mu = np.array(data, dtype=float).reshape(-1, 3).T
    return xs, p, q, mu, np.array(ts, dtype=float)


def _slacks(N, p, q, mu, t, h_star, const):
    """Slacks of both bound checks given the conjugate values ``h_star`` at
    the samples; ``const`` is max over the nodes of q*(x)^q*(x)."""
    p_star = N * p / (N - p)
    q_star = N * q / (N - q)
    mu_pow = np.where(mu > 0, np.where(mu > 0, mu, 1.0) ** (q_star / q), 0.0)
    scale = np.maximum(1.0, h_star)

    bound_p = p_star**-p_star * t**p_star
    bound_q = q_star**-q_star * mu_pow * t**q_star
    g_star = t**p_star + mu_pow * t**q_star

    p_trace = (N - 1.0) * p / (N - p)
    q_trace = (N - 1.0) * q / (N - q)
    t_star = t**p_trace + np.where(mu > 0, np.where(mu > 0, mu, 1.0) ** (q_trace / q), 0.0) * t**q_trace
    rhs = 2.0 * const ** ((N - 1.0) / N) * h_star ** ((N - 1.0) / N)
    return {
        "power_p": (h_star - bound_p) / scale,
        "power_q": (h_star - bound_q) / scale,
        "critical_domination": (2.0 * const * h_star - g_star) / np.maximum(1.0, g_star),
        "trace_domination": (rhs - t_star) / np.maximum(1.0, np.maximum(rhs, t_star)),
    }


def _bounds(field: ExponentField, samples, quad_tol, normalized, conjugate, slack_names):
    """The report of the slacks ``slack_names`` at the (node, t) samples.

    Unless ``conjugate`` gives its values at the samples, the conjugate is
    solved at ``quad_tol`` in blocks of at most ``_BLOCK`` samples.
    """
    _require_admissible(field)
    xs, p, q, mu, t = _sample_arrays(field, samples)
    N = float(field.N)
    if conjugate is None:
        h_star = np.empty_like(t)
        for lo in range(0, t.size, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            h_star[block] = conjugate_batch(N, p[block], q[block], mu[block], t[block],
                                            tol=quad_tol, normalized=normalized)
    else:
        h_star = np.asarray(conjugate, dtype=float)
        if h_star.shape != t.shape:
            raise DomainError(f"{h_star.size} conjugate values for {t.size} samples")
    qq = field.critical("q")
    slacks = _slacks(N, p, q, mu, t, h_star, float(np.max(qq**qq)))
    return list(zip(xs, t)), {k: slacks[k] for k in slack_names}, h_star


def verify_conjugate_bounds(field: ExponentField, samples, tol: float = 1e-9,
                            quad_tol: float = 1e-11, normalized: bool = False) -> BoundReport:
    """Slack of the two power lower bounds on the conjugate and of the
    domination of the critical function, at the given (node, t) samples.

    Slacks are normalized by max(1, dominant side); the bound holds when the
    slack is >= -tol.
    """
    samples, slacks, h_star = _bounds(field, samples, quad_tol, normalized, None,
                                      ("power_p", "power_q", "critical_domination"))
    return BoundReport(samples, slacks, tol, h_star)


def verify_trace_bound(field: ExponentField, samples, tol: float = 1e-9,
                       quad_tol: float = 1e-11, normalized: bool = False, *,
                       conjugate=None) -> BoundReport:
    """Slack of the domination of the trace-critical function by the
    (N-1)/N power of the conjugate, at the given (node, t) samples.

    ``conjugate``, if given, holds the conjugate at the samples (the
    ``conjugate`` of a ``verify_conjugate_bounds`` report) and replaces the
    solve at ``quad_tol``.
    """
    samples, slacks, h_star = _bounds(field, samples, quad_tol, normalized, conjugate,
                                      ("trace_domination",))
    return BoundReport(samples, slacks, tol, h_star)


def tabulate_bounds(field: ExponentField, nodes, ts, tol: float = 1e-10,
                    normalized: bool = False) -> BoundReport:
    """The conjugate and the slacks of both bound checks at every (node, t)
    of ``nodes`` x ``ts``, in node-major order, from one solve per sample.

    ``verify_conjugate_bounds`` solves the conjugate at ``min(tol, 1e-11)``
    (never looser than the default of the ``verify_*`` functions) and
    ``verify_trace_bound`` reuses its values.  The report holds all four
    slacks, with pass tolerance ``tol``, and the conjugate values.
    """
    ts = np.asarray(ts, dtype=float).tolist()
    samples = ((x, s) for x in nodes for s in ts)  # read once, so no list during the solve
    checks = verify_conjugate_bounds(field, samples, tol, min(tol, 1e-11), normalized)
    trace = verify_trace_bound(field, checks.samples, tol, normalized=normalized,
                               conjugate=checks.conjugate)
    checks.slacks.update(trace.slacks)
    return checks
