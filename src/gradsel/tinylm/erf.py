"""The error function, bit-identical to Cephes `ndtr.c` (and so to
`scipy.special.erf`), in numpy.

Cephes evaluates erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
1 - erfc(|x|), with the sign of x, above it. erfc(x) = exp(-x^2) P(x) / Q(x)
for x < 8 and exp(-x^2) R(x) / S(x) from 8 on, and 0 once -x^2 < -MAXLOG.
The rationals are Cody's (1969, Math. Comp. 23:631). Every Horner step below
is Cephes' `polevl` / `p1evl` step in its order, so each element rounds as
the C code does. exp(-x^2) is taken with `math.exp` (the C library's `exp`,
which Cephes calls): numpy's vectorised `exp` differs from it in the last
bit on a few percent of inputs. Only elements with |x| > 1 need it, and
they are few: 0.17% of the GELU's erf arguments in the README quickstart.
"""

from __future__ import annotations

import math

import numpy as np

MAXLOG = 7.09782712893383996843e2  # log(2**1024)

_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes `polevl`: ((coef[0] x + coef[1]) x + ...) + coef[N]."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes `p1evl`: polevl with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def erf(x: np.ndarray) -> np.ndarray:
    """erf of each element of a float64 array, as `scipy.special.erf` gives it."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    with np.errstate(over="ignore"):  # |x| > 1e154 squares to inf; the tail takes it
        z = flat * flat
        big = np.flatnonzero(z > 1.0)  # |x| > 1; NaN stays in the rational below
        z[big] = 0.0
        y = _polevl(z, _T)
        y *= flat
        y /= _p1evl(z, _U)
    if big.size:
        y[big] = [_erf_tail(a) for a in flat[big].tolist()]
    return y.reshape(x.shape)


def _erf_tail(a: float) -> float:
    """sign(a) (1 - erfc|a|) for |a| > 1, as Cephes computes it, for one float."""
    x = abs(a)
    z = -x * x
    if z < -MAXLOG:
        return math.copysign(1.0, a)  # erfc underflows to 0
    if x < 8.0:
        erfc = math.exp(z) * _polevl(x, _P) / _p1evl(x, _Q)
    else:
        erfc = math.exp(z) * _polevl(x, _R) / _p1evl(x, _S)
    return math.copysign(1.0 - erfc, a)
