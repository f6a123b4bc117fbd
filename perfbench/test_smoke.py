"""Smoke test of the benchmark on a tiny corpus (60/15/15 instances).

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once in traced mode (one untraced and two traced
repeats), which exercises the workload code, the output checks, the
tracer and both metric lists of BENCHMARK.json in about ten seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = (60, 15, 15)
# 90 instances: 9 test, 16 query, a training pool of 65, halves of 33.
APPLY_BATCH = {
    "quickstart": 200 + 3 * 17 + 2 * 3 * 9,  # warmup, all (65/4), grads and random (33/4)
    "stages_4k": 200,                        # frozen extraction: warmup only
    "online_bs8": 200 + 12 + 3 * 9,          # warmup, online epoch (90/8), training (65/8)
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_workload_emits_every_metric(workload):
    res = run.benchmark(HERE.parent, workload, seed=3, seconds=1.0, trace=True, sizes=TINY)
    assert res["problems"] == []
    assert res["failed"] == 0 and res["attempted"] > 0
    assert res["per_layer"]["tinylm.Trainer.apply_batch.calls"] == APPLY_BATCH[workload]
    for kind in ("end_to_end", "per_layer"):
        metrics, missing = run.select_metrics(SPEC[kind], res[kind], kind == "per_layer")
        assert missing == []
        assert {name: m["unit"] for name, m in metrics.items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]}
    for name in ("setup_s", "wall_s", "peak_rss_mb", "bleu"):
        assert res["end_to_end"][name] > 0


UNWRAPPED = """
import sys
sys.path.insert(0, {here!r})
from tracer import Tracer, UnwrappedBinding
from gradsel import baselines, evalmetrics, pipeline, tinylm
tracer = Tracer("check")
names = tracer.install()
assert {{"tinylm.forward", "tinylm.Trainer.apply_batch", "tinylm.AdamState.step",
         "pipeline.prepare"}} <= set(names), names
for binding in (tinylm.forward, tinylm.training.forward, evalmetrics.forward,
                baselines.forward, pipeline.init_model, tinylm.Trainer.apply_batch):
    assert hasattr(binding, "__traced_original__"), binding
evalmetrics.forward = evalmetrics.forward.__traced_original__
try:
    tracer.check()
except UnwrappedBinding as exc:
    assert "gradsel.evalmetrics.forward" in str(exc), exc
else:
    raise SystemExit("an unwrapped binding went unnoticed")
"""


def test_tracer_wraps_every_binding_and_notices_a_missed_one():
    env = {"PYTHONPATH": str(HERE.parent / "src"), "PATH": ""}
    proc = subprocess.run([sys.executable, "-c", UNWRAPPED.format(here=str(HERE))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
