"""Sobolev conjugate of the double-phase function, in closed form.

The conjugate H* is defined through its inverse
``H*^{-1}(s) = integral_0^s Winv(tau) tau^{-(N+1)/N} dtau``, where ``Winv``
inverts ``W(t) = t^p + mu t^q``.  Substituting ``tau = W(t)`` and integrating
by parts gives ``G(T) = N integral_0^T W^{-1/N} dt - N T s^{-1/N}`` with
``T = Winv(s)``, and the integral is an Euler integral (DLMF 15.6.1):
``(T^a / a) 2F1(1/N, b; b+1; -Z)``, ``a = 1 - p/N``, ``b = a/(q - p)``,
``Z = mu T^{q-p}``.  For ``b > 20`` (q close to p) the Pfaff form (DLMF
15.8.1) ``(1+Z)^{-1/N} 2F1(1/N, 1; b+1; Z/(1+Z))`` is the stable one.  The
exponents are pointwise in x, so node-varying fields go row by row; mu = 0
gives ``(t/p*)^{p*}`` back.  The conjugate is found by Newton in log T on
``G(T) = t`` and is ``s = W(T)``, so each step is one closed-form evaluation
with no inner inversion.  ``Winv`` (which the inverse needs) is Newton in
log T too.  Both read W only as log W, so no power of T overflows before W
does; both stop row by row, so a value does not depend on its batch.

The interface is two batch functions, ``conjugate_batch`` and
``conjugate_inverse_batch`` (a node's exponents are ``ExponentField.at``),
and one bound check, ``verify_conjugate_bounds``.  It reports the two power
lower bounds, the critical domination and the trace domination over a node x t
table, in node-major order, from one field read per node and one batch solve.

``normalized=True`` uses the variant that is linear below t = 1: its inverse
is closed form up to ``s = 1 + mu = W(1)``, and only rows above that add
``G(T) - G(1)`` (on the others that difference is rounding noise).

The inverse takes no tolerance.  The accuracy it
returns is an a priori bound: ``_REL_ERR`` times the value, raised where
``b - 1/N = (N-q)/(N(q-p))`` is small, since 2F1 then loses about
eps/(b - 1/N) of each term.  Against 30-digit mpmath the worst relative
errors seen were 3e-13 (raw) and 9e-13 (normalized) for N - q >= 1e-3 (N - p),
and 4e-8 and 1e-6, inside the bound, with q within 1e-8 (N - p) of N.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .phi_core import ExponentField, PhiSpec, sobolev_critical

__all__ = [
    "BoundReport",
    "conjugate_inverse_batch",
    "conjugate_batch",
    "verify_conjugate_bounds",
]

# A priori relative accuracy of the inverse, and the factor on eps/(b - 1/N)
# that bounds each term's error where b - 1/N is small (measured: <= 1.7).
_REL_ERR = 1e-10
_DELTA_LOSS = 4.0
# Above this b the Pfaff form of the hypergeometric function is used.
_PFAFF_B = 20.0
# Steps either Newton loop may take, the tolerance ``conjugate_batch`` solves
# to, and the slack at which a bound passes.
_MAX_ITER = 200
_SOLVE_TOL = 1e-11
_PASS_TOL = 1e-10


def _require_admissible(N, p, q, mu):
    """Conditions that make the conjugate integral well defined.

    The defining integral needs 1 < p(x) < q(x) < N and a nonnegative bounded
    weight (the endpoint exponent -p/N then stays above -1).  The ratio bound
    on q/p belongs to the embedding theory, not to this computation, and is
    deliberately not enforced here.  The arguments broadcast together, and
    the error names the exponents of the first entry that fails.
    """
    ok = (1.0 < p) & (p < q) & (q < N) & (0.0 <= mu) & (mu < np.inf)
    if not np.all(ok):
        N, p, q, mu, ok = np.broadcast_arrays(N, p, q, mu, ok)
        i = np.argmin(ok)
        raise DomainError(
            "conjugate needs 1 < p(x) < q(x) < N and 0 <= mu bounded, got "
            f"N = {N.flat[i]:g}, p = {p.flat[i]:g}, q = {q.flat[i]:g}, mu = {mu.flat[i]:g}")


# ---------------------------------------------------------------------------
# Vectorized primitives
# ---------------------------------------------------------------------------

def _log_w(p, q, log_mu, y):
    """log W and its slope theta = (p T^p + q mu T^q) / W in [p, q] at log T = y."""
    log_w = np.logaddexp(p * y, log_mu + q * y)
    return log_w, p + (q - p) * np.exp(log_mu + q * y - log_w)


def _invert_w(p, q, log_mu, s):
    """Solve t^p + mu t^q = s elementwise by monotone Newton in log t.

    The arguments are 1-D arrays of one length.  Each row takes one step past
    ``|log s - log W| <= 1e-14 max(1, |log s|)`` and stops, so its value does
    not depend on the other rows.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s = np.log(s)
        y = np.fmin(log_s / p, (log_s - log_mu) / q)  # above the root; -inf where s = 0
    target = 1e-14 * np.maximum(1.0, np.abs(log_s))
    a = np.nonzero(s > 0)[0]  # the rows still iterating
    for _ in range(_MAX_ITER):
        if a.size == 0:
            return np.exp(y)
        log_w, theta = _log_w(p[a], q[a], log_mu[a], y[a])
        resid = log_s[a] - log_w
        y[a] += resid / theta
        a = a[~(np.abs(resid) <= target[a])]  # a NaN residual keeps its row
    raise ConvergenceError("double-phase inversion did not converge")


def _inverse_closed_form(N, p, q, mu, T, w):
    """``N integral_0^T W^{-1/N} dt - N T w^{-1/N}`` with ``w = W(T)``; 0 where T = 0."""
    from scipy.special import hyp2f1  # lazy: `import musielak.cli` does not need it

    e = 1.0 / N
    a = 1.0 - p * e
    b = a / (q - p)
    with np.errstate(divide="ignore", over="ignore"):
        Z = np.exp(np.log(mu) + (q - p) * np.log(T))
    pfaff = b > _PFAFF_B
    F = hyp2f1(e, np.where(pfaff, 1.0, b), b + 1.0, np.where(pfaff, Z / (1.0 + Z), -Z))
    F = np.where(pfaff, F * (1.0 + Z) ** -e, F)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = N * (T**a / a * F - T * w**-e)
    return np.where(T > 0, out, 0.0)


def _broadcast_inputs(*args):
    arrs = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    return tuple(np.ascontiguousarray(a.ravel(), dtype=float) for a in arrs)


def conjugate_inverse_batch(N, p, q, mu, s, normalized=False):
    """Inverse Sobolev conjugate at the values ``s``, batched.

    Arguments broadcast to a common shape and are flattened; every entry
    needs 1 < p < q < N and a finite mu >= 0.  Returns (values, a priori
    accuracy bounds, see the module docstring).
    """
    N, p, q, mu, s = _broadcast_inputs(N, p, q, mu, s)
    _require_admissible(N, p, q, mu)
    if not np.all(np.isfinite(s) & (s >= 0)):
        raise DomainError("conjugate inverse is defined for finite s >= 0")
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
    if normalized:
        c = 1.0 + mu
        vals = (N / (N - 1.0)) * np.minimum(s, c) ** ((N - 1.0) / N) / c
        scale = np.zeros_like(s)
        up = np.nonzero(s > c)[0]
        args = (N[up], p[up], q[up], mu[up])
        g_s = _inverse_closed_form(*args, _invert_w(p[up], q[up], log_mu[up], s[up]), s[up])
        g_c = _inverse_closed_form(*args, np.ones(up.size), c[up])
        vals[up] += g_s - g_c
        scale[up] = np.abs(g_s) + np.abs(g_c)
    else:
        vals = _inverse_closed_form(N, p, q, mu, _invert_w(p, q, log_mu, s), s)
        scale = np.abs(vals)
    delta = (N - q) / (N * (q - p))
    return vals, np.maximum(_REL_ERR * np.abs(vals), _DELTA_LOSS * np.finfo(float).eps / delta * scale)


def conjugate_batch(N, p, q, mu, t, normalized=False):
    """Sobolev conjugate values at arguments ``t``, batched.

    Solves ``inverse(W(T)) = t`` by Newton in log T and returns ``s = W(T)``:
    the inverse is convex and increasing in log s, and log W is convex in
    log T, so the inverse is convex and increasing in log T and Newton
    converges.  Each row takes one step past
    ``|resid| <= _SOLVE_TOL max(1, t)`` and stops, so a value does not
    depend on its batch.  One ``conjugate_inverse_batch`` call then
    certifies the values (a conjugate that overflows, or underflows to zero,
    fails with ConvergenceError).
    Normalized rows with t up to the value at s = 1 + mu are closed form.
    """
    N, p, q, mu, t = _broadcast_inputs(N, p, q, mu, t)
    _require_admissible(N, p, q, mu)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise DomainError("the conjugate is defined for finite t >= 0")
    target = _SOLVE_TOL * np.maximum(1.0, t)
    out = np.zeros_like(t)
    rhs = t.copy()
    rows = np.nonzero(t > 0)[0]
    if normalized:
        c = 1.0 + mu
        t1 = N / (N - 1.0) * c ** (-1.0 / N)
        out = ((N - 1.0) / N * c * np.minimum(t, t1)) ** (N / (N - 1.0))
        rows = rows[t[rows] > t1[rows]]
        rhs[rows] += _inverse_closed_form(N[rows], p[rows], q[rows], mu[rows], 1.0, c[rows]) - t1[rows]
    # Seed: the larger of the phase solutions of G(T) = rhs, p* T^{1-p/N} = rhs
    # and q* mu^{-1/N} T^{1-q/N} = rhs (the second lies below the root);
    # normalized Newton rows have T > 1.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_mu, log_rhs = np.log(mu), np.log(rhs)
        y = np.maximum(N / (N - p) * (log_rhs - np.log(sobolev_critical(N, p))),
                       N / (N - q) * (log_rhs + log_mu / N - np.log(sobolev_critical(N, q))))
        if normalized:
            y = np.maximum(y, 0.0)
        a = rows  # the rows still iterating
        for _ in range(_MAX_ITER):
            if a.size == 0:
                break
            log_w, theta = _log_w(p[a], q[a], log_mu[a], y[a])
            resid = rhs[a] - _inverse_closed_form(N[a], p[a], q[a], mu[a], np.exp(y[a]), np.exp(log_w))
            y[a] += resid * np.exp(log_w / N[a] - y[a]) / theta  # d G / d log T = T W^{-1/N} theta
            a = a[~(np.abs(resid) <= target[a])]  # a NaN residual keeps its row
        out[rows] = np.exp(_log_w(p[rows], q[rows], log_mu[rows], y[rows])[0])
    if np.all(np.isfinite(out)):
        vals, _ = conjugate_inverse_batch(N, p, q, mu, out, normalized=normalized)
        if np.all(np.abs(t - vals) <= target):
            return out
    raise ConvergenceError("conjugate inversion did not converge")


# ---------------------------------------------------------------------------
# Inequality verification
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Slack of each verified inequality at each (node, t) of a table, in
    node-major order; slack >= -_PASS_TOL means pass."""

    slacks: dict  # name -> normalized slack array
    conjugate: np.ndarray  # conjugate values the slacks were computed from

    @property
    def all_pass(self) -> bool:
        return all(bool(np.all(v >= -_PASS_TOL)) for v in self.slacks.values())


def _slacks(N, p, q, mu, t, h_star, const):
    """The four slacks given the conjugate values ``h_star`` at the samples;
    ``const`` is max over the nodes of q*(x)^q*(x).  p*, q*, the weight
    mu^(q*/q) and the critical and trace critical functions are those of
    ``PhiSpec.critical`` and ``PhiSpec.critical_trace`` over the samples."""
    samples = ExponentField(N, p, q, mu)
    critical, trace = PhiSpec.critical(samples), PhiSpec.critical_trace(samples)
    p_star, q_star = critical.lo, critical.hi
    scale = np.maximum(1.0, h_star)

    bound_p = p_star**-p_star * t**p_star
    bound_q = q_star**-q_star * critical.weight * t**q_star
    g_star = critical.evaluate_nodes(t)
    t_star = trace.evaluate_nodes(t)
    rhs = 2.0 * const ** ((N - 1.0) / N) * h_star ** ((N - 1.0) / N)
    return {
        "power_p": (h_star - bound_p) / scale,
        "power_q": (h_star - bound_q) / scale,
        "critical_domination": (2.0 * const * h_star - g_star) / np.maximum(1.0, g_star),
        "trace_domination": (rhs - t_star) / np.maximum(1.0, np.maximum(rhs, t_star)),
    }


def verify_conjugate_bounds(field: ExponentField, nodes, ts, normalized: bool = False) -> BoundReport:
    """Slacks of the conjugate's four inequalities at every (node, t) of
    ``nodes`` x ``ts``, in node-major order.

    ``power_p`` and ``power_q`` are the two power lower bounds on the
    conjugate, ``critical_domination`` the domination of the critical
    function and ``trace_domination`` that of the trace-critical function by
    the (N-1)/N power of the conjugate.  The field is read once per node and
    the conjugate is solved in one ``conjugate_batch`` call over the table.
    Slacks are normalized by max(1, dominant side); the bound holds when the
    slack is >= -``_PASS_TOL``.  Raises DomainError when the domination
    constant max q*(x)^q*(x) or the critical weight mu^(q*/q) overflows.
    """
    _require_admissible(field.N, field.p, field.q, field.mu)
    qq = field.critical("q")
    with np.errstate(over="ignore"):
        const = float(np.max(qq**qq))
    if not np.isfinite(const):
        raise DomainError(f"domination constant max q*(x)^q*(x) overflows (q* up to {np.max(qq):.6g})")
    ts = np.asarray(ts, dtype=float)
    pqm = np.array([field.at(x) for x in nodes], dtype=float).reshape(-1, 3)
    p, q, mu = np.repeat(pqm, ts.size, axis=0).T
    t = np.tile(ts, len(pqm))
    N = float(field.N)
    h_star = conjugate_batch(N, p, q, mu, t, normalized=normalized)
    return BoundReport(_slacks(N, p, q, mu, t, h_star, const), h_star)
