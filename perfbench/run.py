"""gradsel benchmark: one workload per run, each repeat in a fresh child.

    python3 perfbench/run.py --workload quickstart --seed 42 --seconds 40 --trace 0

Run it from the root of a source checkout; it needs `src/gradsel` there and
installs nothing. It writes a corpus with `gradsel synth` from the workload
seed and a config into a temporary directory under `.bench_tmp/`, runs the
workload's repeats one at a time (workloads.py) until `--seconds` is spent,
checks the outputs, deletes the directory and prints one JSON object as its
last line. The metric names and units are those of BENCHMARK.json:
`--trace 0` reports its `end_to_end` metrics (medians over the repeats),
`--trace 1` its `per_layer` metrics from two traced repeats (tracer.py),
next to one untraced repeat that gives the tracing overhead.

The output is correct when every stage call succeeds, every repeat writes
the same manifest hashes and outputs, the selections have the sizes the
workload implies, the stages_4k `grads` selection matches an independent
Gaussian-KDE reference, and in a traced run every binding of a traced
function is wrapped and the exact counts repeat and match the workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
# One BLAS thread (at most nproc): the matrices are small, and a second
# thread would only add scheduling noise on a shared 2-core machine.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPEATS = 3       # untraced repeats: a median of three drops one outlier
TRACED_REPEATS = 2    # traced repeats, so that exact counts can be compared
RUN_LIMIT_S = 170.0   # no repeat starts that could end after this
FRACTION = 50.0
# RunConfig defaults the workloads keep: warmup steps, epochs, query split.
WARMUP_STEPS, EPOCHS, QUERY_SIZE, TEST_FRACTION = 200, 3, 16, 0.1


@dataclass(frozen=True)
class Workload:
    seed: int
    sizes: tuple[int, int, int]     # domain, noise, trivial instances
    config: dict

    @property
    def n(self) -> int:
        return sum(self.sizes)


WORKLOADS = {
    "quickstart": Workload(42, (700, 150, 150), {"batch_size": 4}),
    "stages_4k": Workload(42, (2800, 600, 600), {"batch_size": 4}),
    "online_bs8": Workload(7, (700, 150, 150), {"mode": "online"}),
}


def subset_size(k: int, percent: float) -> int:
    return max(1, math.floor(Fraction(str(percent)) * k / 100 + Fraction(1, 2)))


def split_sizes(n: int) -> tuple[int, int]:
    """(test, pool) sizes of the program's deterministic split."""
    n_test = int(round(TEST_FRACTION * n))
    return n_test, n - n_test - QUERY_SIZE


def expected_counts(name: str, wl: Workload) -> dict[str, int]:
    """Calls the workload implies: one apply_batch per Adam update, one
    init_model per fresh model."""
    bs = wl.config.get("batch_size", 8)
    _, pool = split_sizes(wl.n)
    steps = lambda k: -(-k // bs)  # noqa: E731  (batches per epoch)
    if name == "quickstart":   # warmup, then rows all, grads@50 and random@50
        half = subset_size(pool, FRACTION)
        updates = WARMUP_STEPS + EPOCHS * steps(pool) + 2 * EPOCHS * steps(half)
        models = 5             # reference, base, and one per trained row
    elif name == "stages_4k":  # frozen extraction: warmup only
        updates, models = WARMUP_STEPS, 1
    else:                      # warmup, one online epoch, full-pool training
        updates = WARMUP_STEPS + steps(wl.n) + EPOCHS * steps(pool)
        models = 2
    return {"tinylm.Trainer.apply_batch.calls": updates, "tinylm.init_model.calls": models}


def reference_selection(values: list[float], percent: float):
    """Silverman bandwidth, Gaussian KDE at every sample, densest first.

    Returns (indices in rank order, densities). Rows are summed in chunks so
    memory stays O(n * chunk).
    """
    import numpy as np

    x = np.asarray(values, dtype=float)
    n = x.size
    q1, q3 = np.percentile(x, [25, 75])
    std = float(np.std(x, ddof=1))
    spread = min(std, float(q3 - q1) / 1.34) if q3 > q1 else std
    h = 0.9 * spread * n ** (-0.2)
    dens = np.empty(n)
    for i in range(0, n, 256):
        z = (x[i:i + 256, None] - x[None, :]) / h
        dens[i:i + 256] = np.exp(-0.5 * z * z).sum(axis=1)
    dens /= n * h * math.sqrt(2.0 * math.pi)
    order = np.lexsort((np.arange(n), -dens))
    return order[: subset_size(n, percent)], dens


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@dataclass
class Run:
    root: Path
    tmp: Path
    workload: str
    wl: Workload
    seed: int
    env: dict
    config: Path | None = None
    corpus: Path | None = None
    started: float = field(default_factory=time.monotonic)
    results: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def synth(self) -> None:
        out = self.tmp / "corpus"
        domain, noise, trivial = self.wl.sizes
        subprocess.run(
            [sys.executable, "-m", "gradsel.cli", "synth", "--out", str(out),
             "--seed", str(self.seed), "--domain", str(domain), "--noise", str(noise),
             "--trivial", str(trivial)],
            cwd=self.root, env=self.env, check=True, stdout=subprocess.DEVNULL,
            timeout=RUN_LIMIT_S)
        self.corpus = out / "dataset.jsonl"
        self.config = self.tmp / "config.json"
        cfg = {"dataset": str(self.corpus), "out_dir": str(self.tmp / "unused"),
               "seed": self.seed, **self.wl.config}
        self.config.write_text(json.dumps(cfg, indent=2) + "\n")

    def repeat(self, traced: bool) -> dict:
        """One child process, start to end; returns its result."""
        idx = len(self.results)
        rdir = self.tmp / f"rep{idx}"
        rdir.mkdir()
        job = {
            "workload": self.workload, "config": str(self.config),
            "out_dir": str(rdir / "out"), "result": str(rdir / "result.json"),
            "spans": str(rdir / "spans.jsonl") if traced else None,
            "run_id": f"{self.workload}-{self.seed}-{idx}",
        }
        t0 = time.monotonic()
        with open(rdir / "child.log", "wb") as log:
            job["spawn"] = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "workloads.py"), json.dumps(job)],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        code = proc.returncode
        result = {"traced": traced, "dir": rdir, "seconds": time.monotonic() - t0}
        if code == 0 and (rdir / "result.json").is_file():
            result.update(json.loads((rdir / "result.json").read_text()))
        else:
            tail = (rdir / "child.log").read_text(errors="replace")[-2000:]
            sys.stderr.write(f"repeat {idx} exited with {code}:\n{tail}\n")
            result.update(attempted=1, errors=[f"repeat {idx}: child exited with {code}"])
        self.results.append(result)
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def untraced(self) -> list[dict]:
        return [r for r in self.results if not r["traced"] and "wall_s" in r]

    def traced(self) -> list[dict]:
        return [r for r in self.results if r["traced"] and "wall_s" in r]

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def schedule(run: Run, seconds: float, trace: bool) -> None:
    """Untraced repeats while a typical one still fits in `seconds` (at
    least MIN_REPEATS), or one untraced and TRACED_REPEATS traced repeats."""
    if trace:
        for traced in [False] + [True] * TRACED_REPEATS:
            run.repeat(traced)
        return
    durations = []
    while True:
        durations.append(run.repeat(False)["seconds"])
        typical = statistics.median(durations)
        if len(durations) >= MIN_REPEATS and run.elapsed() + typical > seconds:
            break
        if run.elapsed() + max(durations) > RUN_LIMIT_S:
            break


def check_repeats(run: Run) -> None:
    ok = [r for r in run.results if "wall_s" in r]
    run.check(len(ok) == len(run.results), "a repeat did not finish")
    for r in ok[1:]:
        run.check(r["manifest"] == ok[0]["manifest"],
                  f"manifest hashes differ between repeats 0 and {run.results.index(r)}")
        run.check(r["outputs"] == ok[0]["outputs"],
                  f"outputs differ between repeats 0 and {run.results.index(r)}")
    if ok:
        run.check(bool(ok[0]["manifest"]), "no manifest written")


def check_outputs(run: Run, out: dict, out_dir: Path) -> dict:
    """Workload-specific correctness; returns the quality guards."""
    n = run.wl.n
    n_test, pool = split_sizes(n)
    bleu = out.get("bleu")
    run.check(isinstance(bleu, float) and 0.0 < bleu <= 1.0, f"bleu out of range: {bleu}")
    guards = {"bleu": bleu, "domain_share_grads50": out.get("domain_share_grads50")}
    if run.workload == "quickstart":
        rows = {r["row"]: r for r in out["rows"]}
        half = subset_size(pool, FRACTION)
        run.check(sorted(rows) == ["all", "base", "grads@50", "random@50"],
                  f"unexpected compare rows {sorted(rows)}")
        run.check(out["split_sizes"] == {"train": pool, "test": n_test, "query": QUERY_SIZE},
                  f"unexpected split {out['split_sizes']}")
        for name, size in (("all", pool), ("grads@50", half), ("random@50", half)):
            run.check(rows.get(name, {}).get("n_train") == size, f"{name} trained on != {size}")
        guards["bleu_all"] = rows.get("all", {}).get("bleu")
        guards["bleu_random50"] = rows.get("random@50", {}).get("bleu")
        return guards
    run.check(out["n_records"] == n, f"{out['n_records']} records for {n} instances")
    run.check(out["n_test"] == n_test, f"evaluated {out['n_test']} != {n_test} test instances")
    records = _jsonl(out_dir / "records.jsonl")
    ranked, dens = reference_selection([r["g_grads"] for r in records], FRACTION)
    if run.workload == "stages_4k":
        k = subset_size(n, FRACTION)
        for name, size in out["n_selected"].items():
            run.check(size == k, f"{name} selected {size} != {k}")
        run.check(len(out["n_selected"]) == 11, "a selection is missing")
        check_grads_selection(run, records, ranked, dens, _jsonl(out_dir / "selection_grads.jsonl"))
    else:
        run.check(out["n_train"] == pool, f"trained on {out['n_train']} != {pool}")
        losses = out["epoch_losses"] or []
        run.check(len(losses) == EPOCHS and all(math.isfinite(x) for x in losses),
                  f"bad epoch losses {losses}")
        strata = {d["id"]: d.get("stratum") for d in _jsonl(run.corpus)}
        picked = [strata[records[i]["instance_id"]] for i in ranked]
        guards["domain_share_grads50"] = picked.count("domain") / len(picked)
    return guards


def check_grads_selection(run: Run, records, ranked, dens, selection) -> None:
    """The program's grads selection against the reference KDE.

    Densities must agree to 1e-9 relative; membership must agree for every
    instance whose density is not within 1e-9 of the cut-off.
    """
    index = {r["instance_id"]: i for i, r in enumerate(records)}
    chosen = {index[s["id"]] for s in selection}
    run.check(len(chosen) == len(selection) == len(ranked), "grads selection size")
    worst = max(abs(s["f_value"] - dens[index[s["id"]]]) / dens[index[s["id"]]]
                for s in selection)
    run.check(worst <= 1e-9, f"grads densities differ from the reference by {worst:.3g}")
    cut = dens[ranked[-1]]
    sure_in = {i for i in range(len(dens)) if dens[i] > cut * (1 + 1e-9)}
    sure_out = {i for i in range(len(dens)) if dens[i] < cut * (1 - 1e-9)}
    run.check(sure_in <= chosen and not chosen & sure_out,
              "grads selection differs from the reference top half")


def end_to_end(run: Run, guards: dict) -> dict[str, float]:
    reps = run.untraced()
    med = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    attempted = sum(r["attempted"] for r in run.results)
    failed = sum(len(r["errors"]) for r in run.results)
    return {
        "setup_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "ops_ok_share": 1.0 - failed / attempted,
        "bleu": guards["bleu"],
        "domain_share_grads50": guards["domain_share_grads50"],
    }


def per_layer(run: Run) -> dict[str, float]:
    from tracer import summarize

    reps = run.traced()
    stats = [summarize(str(r["dir"] / "spans.jsonl")) for r in reps]
    exact = [{k: v for k, v in s.items() if isinstance(v, int)} for s in stats]
    for other in exact[1:]:
        diff = sorted(k for k in set(exact[0]) | set(other) if exact[0].get(k) != other.get(k))
        run.check(not diff, f"exact counts differ between traced repeats: {diff[:8]}")
    for key, want in expected_counts(run.workload, run.wl).items():
        run.check(exact[0].get(key) == want, f"{key} = {exact[0].get(key)}, workload implies {want}")
    out = {k: statistics.median(s.get(k, 0) for s in stats) for k in stats[0]}
    out.update(exact[0])
    out["pipeline.import.self_s"] = statistics.median(r["import_s"] for r in run.results
                                                      if "import_s" in r)
    untraced = statistics.median(r["wall_s"] for r in run.untraced())
    out["trace.wall_s"] = statistics.median(r["wall_s"] for r in reps)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced
    return out


def benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool,
              sizes: tuple[int, int, int] | None = None) -> dict:
    """Run one workload and return {metrics, end_to_end, per_layer, ...}."""
    wl = WORKLOADS[workload]
    if sizes is not None:
        wl = Workload(wl.seed, sizes, wl.config)
    base = root / ".bench_tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    run = Run(root, tmp, workload, wl, seed, env)
    try:
        run.synth()
        schedule(run, seconds, trace)
        check_repeats(run)
        e2e, layers, guards = {}, {}, {}
        if run.untraced():
            first = run.untraced()[0]
            try:
                guards = check_outputs(run, first["outputs"], first["dir"] / "out")
            except (KeyError, TypeError, OSError) as exc:  # a stage left no output
                run.check(False, f"outputs incomplete: {exc!r}")
            else:
                e2e = end_to_end(run, guards)
        if trace and len(run.traced()) == TRACED_REPEATS:
            layers = per_layer(run)
            for r in run.traced():
                run.check(r["manifest"] == run.results[0].get("manifest"),
                          "a traced repeat wrote other artifacts than the untraced one")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    return {
        "end_to_end": e2e, "per_layer": layers, "guards": guards,
        "problems": run.problems, "results": run.results,
        "attempted": sum(r["attempted"] for r in run.results),
        "failed": sum(len(r["errors"]) for r in run.results),
    }


def select_metrics(listed: list[dict], values: dict, zero_if_absent: bool):
    """({name: {value, unit}} for the listed metrics, names not measured).

    A per-layer stat of a function the workload never calls, or calls too
    few times for a percentile, reads 0.
    """
    metrics, missing = {}, []
    for m in listed:
        value = values.get(m["name"])
        if value is None and zero_if_absent and values:
            value = 0
        if value is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, missing


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 42, or 7 for online_bs8)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help=f"time to spend on repeats (at least {MIN_REPEATS} are run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = HERE.parent
    if not (root / "src" / "gradsel" / "pipeline.py").is_file():
        print(f"error: no gradsel sources under {root / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seed = WORKLOADS[args.workload].seed if args.seed is None else args.seed

    res = benchmark(root, args.workload, seed, args.seconds, bool(args.trace))

    kind = "per_layer" if args.trace else "end_to_end"
    metrics, missing = select_metrics(spec[kind], res[kind], zero_if_absent=bool(args.trace))
    problems = res["problems"] + [f"metric not measured: {name}" for name in missing]
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": seed}))
    reps = [r for r in res["results"] if "wall_s" in r and r["traced"] == bool(args.trace)]
    timings = {"setup_s": [r["setup_s"] for r in reps], "wall_s": [r["wall_s"] for r in reps]}
    for r in reps:  # the stage waits inside wall_s, shown but not gated
        for stage, sec in r["stage_s"].items():
            timings.setdefault(f"{stage}_s", []).append(sec)
    for key, samples in timings.items():
        if samples:
            print(json.dumps({"timing": key, "median": statistics.median(samples),
                              "n": len(samples), "samples": [round(x, 4) for x in samples]}))
    if res["guards"]:
        print(json.dumps({"quality": res["guards"]}))
    if args.trace and res["per_layer"]:
        top = sorted((k for k in res["per_layer"] if k.endswith(".self_s")),
                     key=res["per_layer"].get, reverse=True)[:12]
        print(json.dumps({"largest_self_s": {k: round(res["per_layer"][k], 4) for k in top}}))
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    correct = not problems and res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": max(1, res["attempted"]),
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
