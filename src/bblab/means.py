"""Weighted power means M_{lam,p}, exponent maps, and two inequality checks.

The p-mean of nonnegative numbers is the kernel everything else is built on:
it is zero as soon as one argument vanishes, the geometric mean at p = 0,
and (lam*x^p + (1-lam)*y^p)^(1/p) otherwise; p_mean_arr is its one
implementation, and p_mean and _mean wrap it.  The two ``check_*``
functions evaluate both sides of an inequality and return the margin
LHS - RHS, which callers assert to be >= -tol.
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

# bounds of the Box-Cox and the first-order regimes of _lift and _unlift
_SMALL_P = 1e-3
_SMALL_U = 1e-8
_SPAN = 1000  # scaled values stay within [2^-_SPAN, 2^_SPAN] (see _scale_exp)
_BLOCK = 1 << 14  # pairs per block of p_mean_arr; bounds its temporaries


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
        _check_p(self.p)

    @property
    def lam_float(self) -> float:
        return float(self.lam)

    @property
    def lam_fraction(self) -> Fraction:
        return _rational(self.lam)


def _check_p(p: float) -> None:
    """Reject a p that is not finite or has |p| > _SPAN: past that, z^p of
    a scaled z in (1/2, 1] can underflow, and the lift loses the values."""
    if not abs(p) <= _SPAN:
        raise ValueError(f"p must be finite with |p| <= {_SPAN}, got {p}")


def _rational(lam) -> Fraction:
    """lam as an exact rational with denominator <= 64: a Fraction as it
    is, else the nearest such, which must lie within 1e-12 of lam, since
    grid combinations need exactness and cost b^dim lattice sums a cell
    at lam = a/b."""
    frac = lam if isinstance(lam, Fraction) else Fraction(lam).limit_denominator(64)
    if frac.denominator > 64 or abs(float(frac) - float(lam)) > 1e-12:
        raise ValueError(f"lam={lam} is not commensurate (need a rational with "
                         "denominator <= 64 for grid combinations)")
    return frac


def _mean(lam: float, p: float, x: float, y: float) -> float:
    """Scalar M_{lam,p}(x, y) without parameter validation."""
    if not (x >= 0 and y >= 0):
        raise ValueError("p-mean arguments must be nonnegative")
    return float(p_mean_arr(lam, p, x, y))


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
    """Vectorized M_{lam,p} over broadcastable nonnegative arrays: 0 where an
    argument is 0, x where x = y, else sigma U(w L(x/sigma) + c L(y/sigma))
    with the lift pair L, U, the kernel's weights c = 1 - lam and w = 1 - c,
    and sigma from _scale_exp for each pair."""
    _check_p(p)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.zeros(x.shape)
    pos = (x > 0) & (y > 0)
    x, y = x[pos], y[pos]
    c = 1.0 - lam
    w = 1.0 - c
    vals = np.empty(len(x))
    for k in range(0, len(x), _BLOCK):
        xb, yb = x[k : k + _BLOCK], y[k : k + _BLOCK]
        e = _scale_exp(xb, yb, p)
        t = w * _lift(xb, p, e)
        t += c * _lift(yb, p, e)
        vals[k : k + _BLOCK] = _unlift(t, p, e)
    np.copyto(vals, x, where=x == y)
    out[pos] = vals
    return out


def _scale_exp(x, y, p: float):
    """Exponent e of the scale sigma = 2^e at which x and y (scalars or
    arrays, >= 0) are lifted: the smallest power of two >= the larger for
    p >= 0, >= the smaller for p < 0, so that no lift overflows and an
    indicator scales to 1.  Past a span of 2^_SPAN, sigma moves toward the
    other end until that end scales into [2^-_SPAN, 2^_SPAN], or as far as
    the first end's z and |z^p| stay in that range."""
    (mx, ex), (my, ey) = np.frexp(x), np.frexp(y)
    s = 1 if p >= 0 else -1  # p < 0 is the p >= 0 rule on negated exponents
    ex, ey = s * (ex - (mx == 0.5)), s * (ey - (my == 0.5))
    top, bot = np.maximum(ex, ey), np.minimum(ex, ey)
    k = int(_SPAN // max(abs(p), 1.0))
    return s * np.minimum(np.maximum(bot + _SPAN, top - k), top)


def _lift(x, p: float, e=0) -> np.ndarray:
    """Increasing lift L of z = x / 2^e (e an integer or an array of x's
    shape), with M_{lam,p}(x, y) = L^-1(lam L(x) + (1-lam) L(y)).

    Zeros of x map to -inf, so a max-plus sum over pairs ignores them and
    concavity checks see the support boundary; a positive x whose z
    underflows takes the lift's limit at 0, and one whose z overflows takes
    the limit at +inf, -0.0 (only at p < -1, past the BBL regime, where
    _scale_exp may scale to a far smaller value).  Four forms, because no
    single one is accurate for every p:
    - p = 0: log z;
    - 0 < |p| < _SMALL_P: expm1(p log z)/p (Box-Cox), which tends to log z,
      so the means are continuous and monotone through p = 0; the signed
      power would lose about eps/|p| to cancellation (5e-11 at 1e-6);
    - and there, where |p log z| < _SMALL_U: log z (1 + p log z / 2), its
      first-order form, which stays accurate when p log z underflows;
    - otherwise sign(p) z^p, which keeps full relative precision on values
      far below the largest, where Box-Cox at p = 1 (z - 1) loses it all.
    Any increasing affine image of z^p (or of log z) is such a lift, since
    the weights sum to 1.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        z = np.ldexp(x, -e)
    pos = x > 0
    every = pos.all()  # else lift the positive values alone
    out, z = (None, z) if every else (np.full(x.shape, -np.inf), z[pos])
    with np.errstate(divide="ignore", invalid="ignore"):
        if p == 0.0:
            lifted = np.log(z)
        elif abs(p) < _SMALL_P:
            lz = np.log(z)
            u = p * lz
            lifted = np.where(np.abs(u) < _SMALL_U, lz + 0.5 * u * lz, np.expm1(u) / p)
        else:
            lifted = math.copysign(1.0, p) * z ** p
    if every:
        return lifted
    out[pos] = lifted
    return out


def _unlift(s, p: float, e=0) -> np.ndarray:
    """2^e times the inverse of _lift: -inf and values below the lift's
    range map to 0, values above it (only possible for p < 0) to inf."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if p == 0.0:
            z = np.exp(s)
        elif abs(p) < _SMALL_P:
            v = p * s
            z = np.exp(np.where(np.abs(v) < _SMALL_U, s - 0.5 * v * s,
                                np.log1p(np.maximum(v, -1.0)) / p))
        else:
            z = np.maximum(math.copysign(1.0, p) * s, 0.0) ** (1.0 / p)
        return np.ldexp(z, e)


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
    # (lam t^p + (1-lam) T^p)^(1/p - 1) = M(t, T)^(1 - p)
    lhs = (lam * t ** (p - 1.0) + (1.0 - lam) * Tt ** (p - 1.0) * dTdt) * _mean(
        lam, p, t, Tt) ** (1.0 - p)
    return lhs - _mean(lam, p, 1.0, dTdt)


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
    exponents positive) with q >= -_SPAN, and the size constraint
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
    if q < -_SPAN:
        raise ValueError(f"q = p/(1+np) = {q} from p={p}, n={n} is below -{_SPAN}; "
                         f"p must be at least {-_SPAN / (1 + n * _SPAN)}")
    return b * _mean(lam, p, u, v) - _mean(lam, q, a * u, c * v)
