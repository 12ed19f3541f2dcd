"""Weighted power means M_{lam,p}, exponent maps, and two inequality checks.

The p-mean of nonnegative numbers is the kernel everything else is built on:
it is zero as soon as one argument vanishes, the geometric mean at p = 0,
and (lam*x^p + (1-lam)*y^p)^(1/p) otherwise.  The two ``check_*`` functions
evaluate both sides of an inequality and return the margin LHS - RHS, which
callers assert to be >= -tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "MeanParams",
    "p_mean",
    "p_mean_arr",
    "exponent_map",
    "check_holder_derivative",
    "check_pq_switch",
]

# below this |p| the direct power formula loses about eps/|p| to
# cancellation (5e-11 relative at |p| = 1e-6); use the log1p/expm1 form so
# the family is numerically continuous and monotone through p = 0
_SMALL_P = 1e-3
# below this |p log(y/x)| use the first-order expansion of that form in p,
# which stays exact when the product underflows (subnormal p)
_SMALL_U = 1e-8


@dataclass(frozen=True)
class MeanParams:
    """Parameter triple (lam, p, n) of a weighted p-mean in dimension n.

    lam may be a Fraction (required by the grid sup-convolution, which needs
    lam exactly rational); float(lam) is used for scalar mean evaluation.
    """

    lam: float | Fraction
    p: float
    n: int = 1

    def __post_init__(self):
        lam = float(self.lam)
        if not 0.0 < lam <= 0.5:
            raise ValueError(f"lam must be in (0, 1/2], got {self.lam}")
        if self.n < 1:
            raise ValueError(f"dimension n must be >= 1, got {self.n}")
        if not self.p > -1.0 / self.n:
            raise ValueError(f"p must exceed -1/n = {-1.0/self.n}, got {self.p}")
        if not math.isfinite(self.p):
            raise ValueError("p must be finite")

    @property
    def lam_float(self) -> float:
        return float(self.lam)

    @property
    def lam_fraction(self) -> Fraction:
        """lam as an exact rational; rejects lam that is not (close to) a
        small-denominator rational, since grid combinations need exactness."""
        if isinstance(self.lam, Fraction):
            return self.lam
        frac = Fraction(self.lam).limit_denominator(64)
        if abs(float(frac) - self.lam) > 1e-12:
            raise ValueError(
                f"lam={self.lam} is not commensurate (need a rational with "
                "denominator <= 64 for grid combinations)"
            )
        return frac


def _mean(lam: float, p: float, x: float, y: float) -> float:
    """Scalar M_{lam,p}(x, y) without parameter validation."""
    if x < 0 or y < 0:
        raise ValueError("p-mean arguments must be nonnegative")
    if x == 0.0 or y == 0.0:
        return 0.0
    if x == y:
        return x
    if p == 0.0:
        return x ** lam * y ** (1.0 - lam)
    if abs(p) < _SMALL_P:
        L = math.log(y) - math.log(x)
        u = p * L
        c = 1.0 - lam
        if abs(u) < _SMALL_U:
            return x * math.exp(c * L + 0.5 * c * lam * u * L)
        return x * math.exp(math.log1p(c * math.expm1(u)) / p)
    # factored form x * (lam + (1-lam) r^p)^(1/p) keeps intermediates scaled
    r = y / x
    return x * (lam + (1.0 - lam) * r ** p) ** (1.0 / p)


def p_mean(params, x: float, y: float) -> float:
    """M_{lam,p}(x, y): 0 if x*y = 0, exact x for x = y.

    params is a MeanParams, or a raw (lam, p) pair for means outside the
    BBL parameter regime (the mean itself is defined for every real p).
    """
    if isinstance(params, MeanParams):
        lam, p = params.lam_float, params.p
    else:
        lam, p = float(params[0]), float(params[1])
        if not 0.0 < lam < 1.0:
            raise ValueError("lam must be in (0, 1)")
    return _mean(lam, p, x, y)


def p_mean_arr(lam: float, p: float, x, y):
    """Vectorized M_{lam,p} over broadcastable nonnegative arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    pos = (x > 0) & (y > 0)
    if not pos.any():
        return out
    xv = np.broadcast_to(x, out.shape)[pos]
    yv = np.broadcast_to(y, out.shape)[pos]
    if p == 0.0:
        vals = np.exp(lam * np.log(xv) + (1.0 - lam) * np.log(yv))
    elif abs(p) < _SMALL_P:
        L = np.log(yv) - np.log(xv)
        u = p * L
        c = 1.0 - lam
        series = c * L + 0.5 * c * lam * u * L
        vals = xv * np.exp(np.where(np.abs(u) < _SMALL_U, series, np.log1p(c * np.expm1(u)) / p))
    else:
        r = yv / xv
        vals = xv * (lam + (1.0 - lam) * r ** p) ** (1.0 / p)
    eq = xv == yv
    if eq.any():
        vals = np.where(eq, xv, vals)
    out[pos] = vals
    return out


def _lift(x, p: float) -> np.ndarray:
    """Increasing lift L with M_{lam,p}(x, y) = L^-1(lam L(x) + (1-lam) L(y)).

    Zeros map to -inf, so a max-plus sum over pairs ignores them and
    concavity checks see the support boundary.  Three regimes, split at
    _SMALL_P as in p_mean_arr, because no single form is accurate for every
    p:
    - p = 0: log x;
    - 0 < |p| < _SMALL_P: expm1(p log x)/p (Box-Cox), which tends to log x;
      the signed power would lose about eps/|p| to cancellation there;
    - otherwise sign(p) x^p, which keeps full relative precision on values
      far below the largest, where Box-Cox at p = 1 (x - 1) loses it all.
    Any increasing affine image of x^p (or of log x) is such a lift, since
    the weights sum to 1.
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    pos = x > 0
    v = x[pos]
    if p == 0.0:
        out[pos] = np.log(v)
    elif abs(p) < _SMALL_P:
        out[pos] = np.expm1(p * np.log(v)) / p
    elif p > 0:
        out[pos] = v ** p
    else:
        out[pos] = -(v ** p)
    return out


def _unlift(s, p: float) -> np.ndarray:
    """Inverse of _lift: -inf and values below the lift's range map to 0,
    values above it (only possible for p < 0) to inf."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        if p == 0.0:
            return np.exp(s)
        if abs(p) < _SMALL_P:
            return np.exp(np.log1p(np.maximum(p * s, -1.0)) / p)
        return np.maximum(math.copysign(1.0, p) * s, 0.0) ** (1.0 / p)


def exponent_map(p: float, n: int) -> float:
    """q = p / (1 + n p), the exponent a p-mean degrades to after projecting
    out an n-dimensional fiber; fixes 0 and rejects p <= -1/n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if p == 0.0:
        return 0.0
    if 1.0 + n * p <= 0.0:
        raise ValueError(f"p={p} must exceed -1/n = {-1.0/n}")
    return p / (1.0 + n * p)


def check_holder_derivative(params: MeanParams, t: float, Tt: float, dTdt: float) -> float:
    """Margin of d/dt M_{lam,p}(t, T(t)) >= M_{lam,p}(1, T'(t)).

    Evaluates the analytic derivative on the left and the mean of the slopes
    on the right (the right side equals 1/M_{lam,-p}(1, 1/T')); the margin is
    nonnegative for every p in (-1, 0), lam in (0, 1) and positive t, T, T'.
    """
    lam, p = params.lam_float, params.p
    if not -1.0 < p < 0.0:
        raise ValueError(f"check_holder_derivative needs p in (-1, 0), got {p}")
    if t <= 0 or Tt <= 0 or dTdt <= 0:
        raise ValueError("t, Tt, dTdt must be positive")
    lhs = (lam * t ** (p - 1.0) + (1.0 - lam) * Tt ** (p - 1.0) * dTdt) * (
        lam * t ** p + (1.0 - lam) * Tt ** p
    ) ** (1.0 / p - 1.0)
    rhs = _mean(lam, p, 1.0, dTdt)
    return lhs - rhs


def check_pq_switch(
    lam: float,
    p: float,
    n: int,
    a: float,
    b: float,
    c: float,
    u: float,
    v: float,
    tol: float = 1e-12,
) -> float:
    """Margin of b * M_{lam,p}(u, v) >= M_{lam,q}(a u, c v) with q = p/(1+np).

    Requires p in (-1/n, 0) (the Hoelder pairing -pn + p/q = 1 with both
    exponents positive) and the size constraint
    b^(1/n) >= lam a^(1/n) + (1-lam) c^(1/n); all of a..v positive.
    """
    if not 0.0 < lam <= 0.5:
        raise ValueError("lam must be in (0, 1/2]")
    if not -1.0 / n < p < 0.0:
        raise ValueError(f"p must be in (-1/n, 0) = ({-1.0/n}, 0), got {p}")
    if min(a, b, c, u, v) <= 0:
        raise ValueError("a, b, c, u, v must be positive")
    lhs_size = b ** (1.0 / n)
    rhs_size = lam * a ** (1.0 / n) + (1.0 - lam) * c ** (1.0 / n)
    if lhs_size < rhs_size - tol * max(lhs_size, rhs_size):
        raise ValueError(
            f"size precondition violated: b^(1/n)={lhs_size} < {rhs_size}"
        )
    q = exponent_map(p, n)
    return b * _mean(lam, p, u, v) - _mean(lam, q, a * u, c * v)
