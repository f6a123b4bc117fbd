"""One repeat of one benchmark workload, run as a fresh child process.

    python3 perfbench/workloads.py '<job json>'

The job names the workload, the config file, the output directory, the
result file, the parent's `time.monotonic()` at spawn, and (for a traced
repeat) the span file and run id. The child imports gradsel, prepares the
dataset, then drives the public API of `gradsel.pipeline` exactly as a user
would. It writes one JSON result: set-up time (spawn through import and
`prepare`), wall time of the workload's calls, the time of each stage the
user waits on, its own peak RSS, the stage calls attempted and failed, and
the deterministic outputs the parent checks.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict

# The strategies and baselines stages_4k runs, fixed here so that the
# workload does not change when the program's own lists do.
DENSITY_STRATEGIES = (
    "grads", "emb_only", "lm_only", "top_grad", "tail_grad", "mid_grad", "weight", "weightr",
)
STAGE_BASELINES = ("random", "bm25", "dsir")
FRACTION = 50.0


class Stages:
    """Times the stage calls a user waits on and counts the ones that raise."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.errors: list[str] = []

    def call(self, stage: str, fn, *args):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a failed stage is counted, and the run goes on
            traceback.print_exc()
            self.errors.append(f"{stage}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds[stage] += time.perf_counter() - t0

    def time_inner(self, module, attr: str, stage: str) -> None:
        """Time the calls another call makes to `module.attr` as `stage`."""
        fn = getattr(module, attr)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[stage] += time.perf_counter() - t0

        setattr(module, attr, timed)


def _domain_share(stratum_counts: dict | None) -> float | None:
    if not stratum_counts:
        return None
    return stratum_counts.get("domain", 0) / sum(stratum_counts.values())


def quickstart(pipeline, cfg, prep, stages: Stages) -> dict:
    """The README experiment: compare grads and random at 50% in one call."""
    stages.time_inner(pipeline, "run_extract", "extract")
    stages.time_inner(pipeline, "evaluate_model", "eval")
    report = stages.call("compare", pipeline.run_compare, cfg, ["grads", "random"], [FRACTION])
    if report is None:
        return {"rows": []}
    rows = [{k: r.get(k) for k in ("row", "n_train", "bleu", "error", "stratum_counts")}
            for r in report.rows]
    stages.attempted += len(rows)
    stages.errors += [f"row {r['row']}: {r['error']}" for r in rows if r["error"]]
    by_name = {r["row"]: r for r in rows}
    grads = by_name.get("grads@50", {})
    return {
        "rows": rows,
        "bleu": grads.get("bleu"),
        "bleu_all": by_name.get("all", {}).get("bleu"),
        "bleu_random50": by_name.get("random@50", {}).get("bleu"),
        "domain_share_grads50": _domain_share(grads.get("stratum_counts")),
        "split_sizes": report.split_sizes,
    }


def stages_4k(pipeline, cfg, prep, stages: Stages) -> dict:
    """The stage-by-stage CLI flow: extract, 8 selections, 3 baselines, eval."""
    extract = stages.call("extract", pipeline.run_extract, cfg, prep)
    records = os.path.join(cfg.out_dir, pipeline.RECORDS_FILE)
    selected = {}
    grads = None
    for name in DENSITY_STRATEGIES:
        result = stages.call("select", pipeline.run_select, cfg, records, name, FRACTION)
        if result is not None:
            selected[name] = len(result.selected_ids)
            grads = result if name == "grads" else grads
    for name in STAGE_BASELINES:
        result = stages.call("baseline", pipeline.run_baseline, cfg, name, records, FRACTION)
        if result is not None:
            selected[name] = len(result.selected_ids)
    model = os.path.join(cfg.out_dir, pipeline.EXTRACT_MODEL_FILE)
    out = stages.call("eval", pipeline.run_eval, cfg, model)
    return {
        "n_records": extract and extract["n_records"],
        "n_selected": selected,
        "bleu": out and out["metrics"]["bleu"],
        "n_test": out and out["n_test"],
        "domain_share_grads50": grads and _domain_share(grads.stratum_counts),
    }


def online_bs8(pipeline, cfg, prep, stages: Stages) -> dict:
    """Online extraction at batch size 8, full-pool training, then eval."""
    extract = stages.call("extract", pipeline.run_extract, cfg, prep)
    meta = stages.call("train", pipeline.run_train, cfg)
    model = os.path.join(cfg.out_dir, "model.json")
    out = stages.call("eval", pipeline.run_eval, cfg, model)
    return {
        "n_records": extract and extract["n_records"],
        "n_train": meta and meta["n_train"],
        "epoch_losses": meta and meta["epoch_losses"],
        "bleu": out and out["metrics"]["bleu"],
        "n_test": out and out["n_test"],
    }


RUNNERS = {"quickstart": quickstart, "stages_4k": stages_4k, "online_bs8": online_bs8}


def main() -> int:
    job = json.loads(sys.argv[1])
    t_import = time.monotonic()
    from gradsel import pipeline

    import_s = time.monotonic() - t_import
    tracer = None
    if job.get("spans"):
        from tracer import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install()
    cfg = pipeline.load_config(job["config"], out_dir=job["out_dir"])
    prep = pipeline.prepare(cfg)
    setup_s = time.monotonic() - job["spawn"]

    stages = Stages()
    t0 = time.perf_counter()
    outputs = RUNNERS[job["workload"]](pipeline, cfg, prep, stages)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    manifest_path = os.path.join(cfg.out_dir, pipeline.MANIFEST_FILE)
    manifest = {}
    if os.path.isfile(manifest_path):
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)["files"]
    if tracer is not None:
        tracer.check()
        tracer.dump(job["spans"])
    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "stage_s": dict(stages.seconds),
        "peak_rss_mb": peak_rss_mb,
        "attempted": stages.attempted,
        "errors": stages.errors,
        "manifest": manifest,
        "outputs": outputs,
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
