"""The GELU's erf: bit-identical to scipy.special.erf, with scipy only as the oracle."""

import math
import os
import subprocess
import sys

import numpy as np

import gradsel
from gradsel.tinylm.erf import MAXLOG, erf


def _ulps_around(c: float, n: int = 50) -> list[float]:
    """c and the n floats on either side of it."""
    out, lo, hi = [c], c, c
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def test_erf_matches_scipy_bit_for_bit():
    from scipy.special import erf as scipy_erf

    branch_points = [s * c for c in (1.0, 8.0, math.sqrt(MAXLOG)) for s in (1.0, -1.0)]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308,
               5e-324, -5e-324, 2.2250738585072009e-308, -1e-310]
    cases = {
        # 10**6 samples, as a 2-D view that is not contiguous
        "uniform [-40, 40]": np.random.default_rng(20).uniform(-40.0, 40.0, (500, 4000))[:, ::2],
        "branch points": np.array([v for c in branch_points for v in _ulps_around(c)]),
        "special values": np.array(special),
    }
    for name, x in cases.items():
        got, want = erf(x), scipy_erf(x)
        same = np.array_equal(got, want, equal_nan=True)
        same_sign = np.array_equal(np.signbit(got), np.signbit(want))
        bad = (got != want) & ~(np.isnan(got) & np.isnan(want))
        assert same and same_sign, f"{name}: erf differs at {x[bad][:5].tolist()}"


def test_importing_gradsel_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(gradsel.__file__))
    code = ("import sys, gradsel.pipeline, gradsel.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
