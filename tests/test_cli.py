"""Command-line interface tests: exit codes, wiring, and output files."""

import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from gradsel import pipeline
from gradsel.cli import build_parser, main
from gradsel.gradstats import read_records, write_records


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


def test_baseline_subcommand(workspace, records, capsys):
    root, cfg = workspace
    assert main(["select", "--config", cfg, "--records", records,
                 "--strategy", "random", "--fraction", "50"]) == 0
    assert "random@50: 45 selected" in capsys.readouterr().out


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
    (root / "bad_records.jsonl").write_text("[1]\n")
    assert main(["select", "--config", cfg, "--records", str(root / "bad_records.jsonl"),
                 "--force"]) == 1
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
    flat = root / "flat"
    flat.mkdir()
    write_records(flat_records, str(flat / "records.jsonl"))
    checkpoint = Path(records).parent / "extract_model.json"
    (flat / "extract_model.json").write_bytes(checkpoint.read_bytes())
    out = root / "flat_pilot"
    assert main(["pilot", "--config", cfg, "--records", str(flat / "records.jsonl"),
                 "--force", "--out", str(out)]) == 0

    def no_constants(name):
        raise AssertionError(f"{name} is not JSON")

    meta = json.loads((out / "pilot_meta.json").read_text(), parse_constant=no_constants)
    assert meta["loss_gradient_spearman"] is None
    assert "loss/gradient spearman = n/a" in capsys.readouterr().out


def test_selections_that_read_the_dataset_refuse_records_naming_ids_outside_it(
        workspace, records, capsys):
    root, cfg = workspace
    ghost = read_records(records)
    ghost[0] = replace(ghost[0], instance_id="ghost-1")
    where = root / "ghost"
    where.mkdir()
    write_records(ghost, str(where / "records.jsonl"))
    checkpoint = Path(records).parent / "extract_model.json"
    (where / "extract_model.json").write_bytes(checkpoint.read_bytes())
    select = ["select", "--config", cfg, "--records", str(where / "records.jsonl"),
              "--force", "--out", str(root / "ghost_sel")]
    for name in ("bm25", "dsir", "rds", "less", "ppl"):
        assert main([*select, "--strategy", name]) == 1
        assert capsys.readouterr().err == ("error: records name 1 ids not in the dataset: "
                                           "ghost-1\n")
    # random reads only the records' ids, and counts the foreign one unlabeled
    assert main([*select, "--strategy", "random", "--fraction", "100"]) == 0
    meta = json.loads((root / "ghost_sel" / "selection_random_meta.json").read_text())
    assert meta["stratum_counts"]["unlabeled"] == 1


def test_pilot_and_model_baselines_refuse_a_checkpoint_of_another_vocabulary(
        workspace, records, capsys):
    root, cfg = workspace
    small = root / "vocab40.json"
    small.write_text(json.dumps({**json.loads(Path(cfg).read_text()), "max_vocab": 40}))
    out = root / "vocab40"
    for command in (["pilot"], *(["select", "--strategy", n] for n in ("rds", "less", "ppl"))):
        assert main([*command, "--config", str(small), "--records", records, "--force",
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
