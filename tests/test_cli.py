"""Command-line interface tests: exit codes, wiring, and output files."""

import ast
import builtins
import importlib
import inspect
import json
import pkgutil
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gradsel
from gradsel import pipeline
from gradsel.cli import build_parser, main
from gradsel.corpus import Tokenizer
from gradsel.gradstats import read_records, write_records
from gradsel.tinylm import init_model, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny corpus plus a config file; commands share one output directory."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["synth", "--out", str(corpus), "--seed", "7",
                 "--domain", "60", "--noise", "15", "--trivial", "15"]) == 0
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(corpus / "dataset.jsonl"),
        "out_dir": str(root / "run"),
        "seed": 7,
        "d_model": 16,
        "warmup_steps": 30,
        "epochs": 1,
    }))
    return root, str(cfg_path)


@pytest.fixture(scope="module")
def records(workspace):
    """Records with their meta and checkpoint, extracted for the tests that read them."""
    root, cfg = workspace
    assert main(["extract", "--config", cfg, "--out", str(root / "extracted")]) == 0
    return str(root / "extracted" / "records.jsonl")


def _beside_meta(records, where) -> Path:
    """The records path in a new directory that holds a copy of the extracted
    records' meta and no checkpoint; the caller writes the records."""
    where.mkdir()
    (where / "extract_meta.json").write_bytes(
        (Path(records).parent / "extract_meta.json").read_bytes())
    return where / "records.jsonl"


def _beside_checkpoint(records, where, edit) -> str:
    """The records path in a new directory that holds a copy of the extracted
    records and their meta, beside their checkpoint after edit(params)."""
    path = _beside_meta(records, where)
    path.write_bytes(Path(records).read_bytes())
    model = load_checkpoint(str(Path(records).parent / "extract_model.json"))
    edit(model.params)
    save_checkpoint(model, str(where / "extract_model.json"))
    return str(path)


def _logits_are_lm_head_row_0(params) -> None:
    """Make every final hidden row the unit vector e_0, so that every
    position's logits are lm_head[0]."""
    params["lnf.g"][:] = 0.0
    params["lnf.b"][:] = 0.0
    params["lnf.b"][0] = 1.0


def test_synth_writes_dataset_and_manifest(workspace, capsys):
    root, _ = workspace
    out = capsys.readouterr().out
    dataset = root / "corpus" / "dataset.jsonl"
    assert dataset.is_file()
    assert len(dataset.read_text().splitlines()) == 90
    assert (root / "corpus" / "manifest.json").is_file()


def test_extract_select_train_eval_chain(workspace, capsys):
    root, cfg = workspace
    assert main(["extract", "--config", cfg]) == 0
    assert "90 records" in capsys.readouterr().out
    records = str(root / "run" / "records.jsonl")

    assert main(["select", "--config", cfg, "--records", records,
                 "--strategy", "grads", "--fraction", "50"]) == 0
    assert "45 selected" in capsys.readouterr().out

    selection = str(root / "run" / "selection_grads.jsonl")
    assert main(["train", "--config", cfg, "--selection", selection,
                 "--out", str(root / "trained")]) == 0
    assert main(["eval", "--config", cfg,
                 "--model", str(root / "trained" / "model.json")]) == 0
    assert "bleu=" in capsys.readouterr().out


def test_select_and_baseline_flag_defaults(workspace, records, capsys):
    root, cfg = workspace

    def files(out, command, *flags):
        out = root / "defaults" / out
        assert main([command, "--config", cfg, "--records", records,
                     "--out", str(out), *flags]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    grads = files("select", "select")
    assert "grads@50: 45 selected" in capsys.readouterr().out
    assert grads == files("select_flags", "select", "--strategy", "grads", "--fraction", "50")
    random = files("baseline", "select", "--strategy", "random")
    assert "random@50: 45 selected" in capsys.readouterr().out
    assert random == files("baseline_flags", "select", "--strategy", "random",
                           "--fraction", "50")
    assert sorted(random) == ["manifest.json", "selection_random.jsonl",
                              "selection_random_meta.json"]


def test_pilot_subcommand(workspace, records, capsys):
    root, cfg = workspace
    assert main(["pilot", "--config", cfg, "--records", records,
                 "--out", str(root / "pilot")]) == 0
    assert "spearman" in capsys.readouterr().out
    assert (root / "pilot" / "deciles.csv").is_file()


def test_unknown_select_strategy_is_usage_error(workspace):
    root, cfg = workspace
    records = str(root / "run" / "records.jsonl")
    with pytest.raises(SystemExit) as exc:
        main(["select", "--config", cfg, "--records", records,
              "--strategy", "nonsense"])
    assert exc.value.code == 2


def test_unknown_compare_strategy_is_usage_error(workspace):
    _, cfg = workspace
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", cfg, "--strategy", "grads,nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", cfg, "--fraction", "fifty"])
    assert exc.value.code == 2


def test_missing_config_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["extract"])
    assert exc.value.code == 2


def test_runtime_failure_exits_one(workspace, records, capsys):
    root, cfg = workspace
    assert main(["eval", "--config", cfg,
                 "--model", str(root / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    # malformed artifacts end in one error line, not a traceback
    (root / "list.json").write_text("[1, 2]")
    assert main(["eval", "--config", cfg, "--model", str(root / "list.json")]) == 1
    assert "error: not a model checkpoint" in capsys.readouterr().err
    bad_records = _beside_meta(records, root / "bad_records")
    bad_records.write_text("[1]\n")
    assert main(["select", "--config", cfg, "--records", str(bad_records)]) == 1
    assert "error: line 1: not a JSON object" in capsys.readouterr().err
    (root / "bad_selection.jsonl").write_text("[1]\n")
    assert main(["train", "--config", cfg, "--selection", str(root / "bad_selection.jsonl"),
                 "--out", str(root / "bad_train")]) == 1
    assert capsys.readouterr().err == "error: line 1: not a JSON object\n"
    bad_cfg = root / "bad_config.json"
    bad_cfg.write_text(json.dumps({**json.loads(Path(cfg).read_text()),
                                   "learning_rate": "3e-3"}))
    assert main(["extract", "--config", str(bad_cfg)]) == 1
    assert capsys.readouterr().err == f"error: {bad_cfg}: field learning_rate is not a number\n"
    bad_cfg.write_text(json.dumps({**json.loads(Path(cfg).read_text()), "epochs": 0}))
    assert main(["extract", "--config", str(bad_cfg)]) == 1
    assert capsys.readouterr().err == "error: epochs must be >= 1\n"
    for name, value in [("tie_lm_head", False), ("lm_grad_space", "logits"),
                        ("norm_mode", "mean_of_norms"), ("compare_epochs", 1),
                        ("bm25_aggregate", "mean"), ("projection_dim", None),
                        ("strategy", "bm25"), ("fraction", 10)]:  # removed fields
        bad_cfg.write_text(json.dumps({**json.loads(Path(cfg).read_text()), name: value}))
        assert main(["extract", "--config", str(bad_cfg)]) == 1
        assert capsys.readouterr().err == f"error: {bad_cfg}: unknown field {name!r}\n"
    (root / "bad_out").mkdir()
    (root / "bad_out" / "manifest.json").write_text("[1]")
    assert main(["select", "--config", cfg, "--records", records,
                 "--out", str(root / "bad_out")]) == 1
    manifest = root / "bad_out" / "manifest.json"
    assert capsys.readouterr().err == f"error: {manifest}: not a JSON object\n"
    # degenerate checkpoints: an infinite loss for the shortest instance
    # alone, a loss whose perplexity overflows, a NaN weight
    prep = pipeline.prepare(pipeline.load_config(cfg))
    bad, *rest = sorted(prep.seqs, key=len)
    assert len(bad) < len(rest[0]) and bad.instance_id in prep.split.train
    token = next(t for t in bad.response if all(t not in seq.response for seq in rest))

    def infinite(params):  # token, which only bad predicts, gets probability 0
        _logits_are_lm_head_row_0(params)
        params["lm_head"][0, token] = -1e4

    def overflowing(params):  # each response token's loss is about 730
        _logits_are_lm_head_row_0(params)
        params["lm_head"][0] = -730.0
        params["lm_head"][0, Tokenizer.pad] = 0.0  # no response predicts pad

    def nan_weight(params):
        params["l0.w1"][0, 0] = float("nan")

    loss_error = f"non-finite loss: instance {bad.instance_id} has loss inf"
    inf_records = _beside_checkpoint(records, root / "inf_loss", infinite)
    for command in (["select", "--strategy", "ppl"], ["pilot"]):
        assert main([*command, "--config", cfg, "--records", inf_records,
                     "--out", str(root / "inf_out")]) == 1
        assert capsys.readouterr().err == f"error: {loss_error}\n"
    assert main(["compare", "--config", cfg, "--strategy", "ppl", "--fraction", "50",
                 "--records", inf_records, "--out", str(root / "inf_cmp")]) == 1
    assert f"ppl@50: ERROR {loss_error}\n" in capsys.readouterr().out
    assert (root / "inf_cmp" / "report.json").is_file()
    overflow_records = _beside_checkpoint(records, root / "overflow", overflowing)
    assert main(["select", "--config", cfg, "--records", overflow_records,
                 "--strategy", "ppl", "--out", str(root / "overflow_out")]) == 1
    assert re.fullmatch(rf"error: instance {bad.instance_id}: loss \S+ overflows its "
                        r"perplexity\n", capsys.readouterr().err)
    _beside_checkpoint(records, root / "nan", nan_weight)
    assert main(["eval", "--config", cfg,
                 "--model", str(root / "nan" / "extract_model.json")]) == 1
    assert capsys.readouterr().err == "error: checkpoint parameter l0.w1 has a non-finite value\n"


def test_compare_smoke_and_error_cells(workspace, capsys, monkeypatch):
    root, cfg = workspace
    out = str(root / "cmp")
    assert main(["compare", "--config", cfg, "--strategy", "grads",
                 "--fraction", "50", "--out", out]) == 0
    assert (root / "cmp" / "report.json").is_file()
    capsys.readouterr()

    real = pipeline.run_selection_by_name

    def boom(name, *args, **kwargs):
        if name == "random":
            raise ValueError("forced failure")
        return real(name, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_selection_by_name", boom)
    code = main(["compare", "--config", cfg, "--strategy", "grads,random",
                 "--fraction", "50", "--out", str(root / "cmp2")])
    assert code == 1
    assert "ERROR forced failure" in capsys.readouterr().out


@pytest.fixture(scope="module")
def bare_records(workspace):
    """Records extracted with their meta, the checkpoint next to them removed."""
    root, cfg = workspace
    assert main(["extract", "--config", cfg, "--out", str(root / "bare")]) == 0
    (root / "bare" / "extract_model.json").unlink()
    return str(root / "bare" / "records.jsonl")


@pytest.mark.parametrize("name", ["rds", "less", "ppl"])
def test_a_model_baseline_with_no_checkpoint_exits_one(workspace, bare_records, capsys,
                                                       name):
    root, cfg = workspace
    assert main(["select", "--config", cfg, "--records", bare_records,
                 "--strategy", name, "--out", str(root / "bare_sel")]) == 1
    err = capsys.readouterr().err.splitlines()
    checkpoint = Path(bare_records).parent / "extract_model.json"
    assert err == [f"error: checkpoint not found: {checkpoint}"]


def test_compare_over_records_with_no_checkpoint_has_an_error_row(workspace, bare_records,
                                                                 capsys):
    root, cfg = workspace
    assert main(["compare", "--config", cfg, "--strategy", "rds", "--fraction", "50",
                 "--records", bare_records, "--out", str(root / "bare_cmp")]) == 1
    checkpoint = Path(bare_records).parent / "extract_model.json"
    assert f"rds@50: ERROR checkpoint not found: {checkpoint}\n" in capsys.readouterr().out


def test_pilot_over_records_with_no_checkpoint_exits_one(workspace, bare_records, capsys):
    root, cfg = workspace
    out = root / "bare_pilot"
    assert main(["pilot", "--config", cfg, "--records", bare_records,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    checkpoint = Path(bare_records).parent / "extract_model.json"
    assert err == [f"error: checkpoint not found: {checkpoint}"]
    assert not out.exists()


def test_pilot_over_constant_gradients_writes_null_spearman(workspace, records, capsys):
    root, cfg = workspace
    flat_records = [replace(r, g_emb=0.5, g_lm=0.25, g_grads=0.75)
                    for r in read_records(records)]
    flat = _beside_meta(records, root / "flat")
    write_records(flat_records, str(flat))
    checkpoint = Path(records).parent / "extract_model.json"
    (flat.parent / "extract_model.json").write_bytes(checkpoint.read_bytes())
    out = root / "flat_pilot"
    assert main(["pilot", "--config", cfg, "--records", str(flat), "--out", str(out)]) == 0

    def no_constants(name):
        raise AssertionError(f"{name} is not JSON")

    meta = json.loads((out / "pilot_meta.json").read_text(), parse_constant=no_constants)
    assert meta["loss_gradient_spearman"] is None
    assert "loss/gradient spearman = n/a" in capsys.readouterr().out


def test_every_records_reader_refuses_records_whose_ids_are_not_the_datasets(
        workspace, records, capsys):
    """One foreign id, or one missing dataset id: every select name, pilot and
    compare give the same error before reading the checkpoint (there is none
    beside these records)."""
    root, cfg = workspace
    extracted = read_records(records)
    ghost = [replace(extracted[0], instance_id="ghost-1"), *extracted[1:]]
    dropped = extracted[1:]
    first = extracted[0].instance_id
    for where, kept, foreign in (("ghost", ghost, "1 ids not in the dataset [ghost-1]"),
                                 ("dropped", dropped, "0 ids not in the dataset []")):
        path = str(_beside_meta(records, root / where))
        write_records(kept, path)
        out = root / f"{where}_out"
        commands = [["select", "--strategy", name] for name in pipeline.SELECTION_NAMES]
        commands += [["pilot"], ["compare", "--strategy", "grads"]]
        for command in commands:
            assert main([*command, "--config", cfg, "--records", path, "--out", str(out)]) == 1
            assert capsys.readouterr().err == (f"error: records name {foreign} and miss 1 "
                                               f"of its ids [{first}]\n"), command
        assert not out.exists()


@pytest.mark.parametrize("command", ["select", "train", "pilot", "compare"])
def test_force_is_a_usage_error(workspace, records, command):
    _, cfg = workspace
    args = [command, "--config", cfg]
    if command in ("select", "pilot"):
        args += ["--records", records]
    build_parser().parse_args(args)
    with pytest.raises(SystemExit) as exc:
        main([*args, "--force"])
    assert exc.value.code == 2


def test_the_non_synth_subcommands_take_21_flags():
    subparsers = next(a for a in build_parser()._actions if a.choices)
    flags = [flag for name, sub in subparsers.choices.items() if name != "synth"
             for action in sub._actions if action.dest != "help"
             for flag in action.option_strings]
    assert len(flags) == 21 and "--force" not in flags


def test_pilot_and_model_baselines_refuse_a_checkpoint_of_another_vocabulary(
        workspace, records, capsys):
    root, cfg = workspace
    copied = _beside_meta(records, root / "vocab_plus_one")
    copied.write_bytes(Path(records).read_bytes())
    run_cfg = pipeline.load_config(cfg)
    vocab_size = pipeline.prepare(run_cfg).tok.vocab_size
    save_checkpoint(init_model(run_cfg.model_config(vocab_size + 1)),
                    str(copied.parent / "extract_model.json"))
    out = root / "vocab_plus_one_out"
    for command in (["pilot"], *(["select", "--strategy", n] for n in ("rds", "less", "ppl"))):
        assert main([*command, "--config", cfg, "--records", str(copied),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: checkpoint vocabulary does not match "
                                           "the dataset tokenizer\n")
    assert not out.exists()


def test_readme_commands_parse():
    """Every `gradsel` line in README's code blocks is a valid command line, and
    every name in a `compare --strategy` list is a selection name (argparse
    checks `select`'s choices, but compare's list is a free string)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```$", readme, flags=re.S | re.M)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("gradsel "):
                commands.append(line.replace("$s", "42"))
    assert len(commands) >= 8
    parser = build_parser()
    for command in commands:
        try:
            args = parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
        if args.command == "compare":
            unknown = [n for n in args.strategy.split(",") if n not in pipeline.SELECTION_NAMES]
            assert not unknown, f"README compare names unknown strategies {unknown}: {command}"


def _unresolved_references(readme: str) -> tuple[list[str], list[str]]:
    """The code references in a README text, and those that do not resolve.

    A reference is a backticked dotted name whose root is a gradsel module
    (`tinylm.Trainer.run`, `gradsel.pipeline.RunConfig`) or a gradsel class
    (`Batch.of`), or a backticked CamelCase word, which must name a gradsel
    class or a builtin. File names and other roots (`scipy.`, `hashlib.`) are
    not references."""
    roots = {"gradsel": gradsel}
    classes = {}
    for info in pkgutil.walk_packages(gradsel.__path__, "gradsel."):
        module = importlib.import_module(info.name)
        roots[info.name.rsplit(".", 1)[1]] = module
        classes.update((name, obj) for name, obj in vars(module).items()
                       if inspect.isclass(obj) and obj.__module__.startswith("gradsel."))
    roots = {**classes, **roots}
    checked, unresolved, missing = [], [], object()
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", readme):
        root, *parts = name.split(".")
        if parts and root in roots and parts[-1] not in ("json", "jsonl", "toml", "py", "md"):
            obj = roots[root]
        elif not parts and re.fullmatch(r"[A-Z]\w*[a-z]\w*", root):
            obj = roots.get(root, getattr(builtins, root, missing))
        else:
            continue
        checked.append(name)
        for part in parts:
            obj = getattr(obj, part, missing)
        if obj is missing:
            unresolved.append(name)
    return checked, unresolved


def test_readme_code_references_resolve():
    """README names only code that exists, so a rename or a deletion updates it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    checked, unresolved = _unresolved_references(readme)
    assert not unresolved, f"README names code that does not exist: {unresolved}"
    for name in ("pipeline._select_step", "tinylm.Trainer.run", "gradstats.token_vectors",
                 "selector.KDE_BLOCK_CELLS", "SplitMix64.NORMALS_CHUNK", "Batch.of",
                 "gradsel.pipeline.RunConfig"):
        assert name in checked
    assert not {"scipy.special.erf", "hashlib.sha256", "manifest.json"} & set(checked)
    stale = "`GradientBundle`, `gradstats.combine`, `tinylm.training.GradientBundle`, `Batch.off`"
    assert _unresolved_references(stale)[1] == [
        "GradientBundle", "gradstats.combine", "tinylm.training.GradientBundle", "Batch.off"]


def _assert_lines(source: str) -> list[int]:
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_src_has_no_assert_statements():
    """python -O strips assert statements, so an invariant check in src/ raises
    explicitly instead."""
    modules = sorted(Path(gradsel.__file__).parent.rglob("*.py"))
    assert len(modules) >= 12
    found = {str(m): _assert_lines(m.read_text(encoding="utf-8")) for m in modules}
    assert not {m: lines for m, lines in found.items() if lines}
    assert _assert_lines("x = 1\nif x:\n    assert x > 0\n") == [3]


_SYNTH_AND_EXTRACT = """
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
    assert loaded(_SYNTH_AND_EXTRACT, str(tmp_path)) <= {"_hashlib"} & bare
