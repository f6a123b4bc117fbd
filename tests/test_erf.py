"""The GELU's erf: bit-identical to scipy.special.erf, with scipy only as the oracle."""

import json
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


_RUN = """
import json, os, sys
import gradsel.pipeline
from gradsel.cli import main
root = sys.argv[1]
assert main(["synth", "--out", os.path.join(root, "corpus"), "--seed", "7",
             "--domain", "20", "--noise", "5", "--trivial", "5"]) == 0
config = os.path.join(root, "config.json")
with open(config, "w") as fh:
    json.dump({"dataset": os.path.join(root, "corpus", "dataset.jsonl"),
               "out_dir": os.path.join(root, "run"), "seed": 7, "d_model": 16,
               "warmup_steps": 5, "epochs": 1}, fh)
assert main(["extract", "--config", config]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "_hashlib"))))
"""


def test_importing_gradsel_loads_no_scipy(tmp_path):
    """Importing the CLI, then running synth and a frozen extract, loads neither
    scipy nor OpenSSL's `_hashlib`, so no lazy import brings either back. The
    `_hashlib` half is skipped where site hooks load it into a bare interpreter."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gradsel.__file__))}

    def loaded(code, *args):
        out = subprocess.run([sys.executable, "-c", code, *args], check=True,
                             capture_output=True, text=True, env=env)
        return set(json.loads(out.stdout.splitlines()[-1]))

    bare = loaded("import json, sys; print(json.dumps(sorted(sys.modules)))")
    assert loaded(_RUN, str(tmp_path)) <= {"_hashlib"} & bare
