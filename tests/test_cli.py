"""Command-line interface tests: exit codes, wiring, and output files."""

import json
from pathlib import Path

import pytest

from gradsel import pipeline
from gradsel.cli import main


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
        "compare_epochs": 1,
    }))
    return root, str(cfg_path)


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


def test_baseline_subcommand(workspace, capsys):
    root, cfg = workspace
    records = str(root / "run" / "records.jsonl")
    assert main(["baseline", "--config", cfg, "--records", records,
                 "--strategy", "random", "--fraction", "50"]) == 0
    assert "random@50: 45 selected" in capsys.readouterr().out


def test_pilot_subcommand(workspace, capsys):
    root, cfg = workspace
    records = str(root / "run" / "records.jsonl")
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


def test_runtime_failure_exits_one(workspace, capsys):
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
    bad_cfg.write_text(json.dumps({**json.loads(Path(cfg).read_text()), "fraction": "50"}))
    assert main(["extract", "--config", str(bad_cfg)]) == 1
    assert capsys.readouterr().err == f"error: {bad_cfg}: field fraction is not a number\n"
    bad_cfg.write_text(json.dumps({**json.loads(Path(cfg).read_text()), "projection_dim": 0}))
    assert main(["extract", "--config", str(bad_cfg)]) == 1
    assert capsys.readouterr().err == "error: projection_dim must be >= 1\n"
    (root / "bad_out").mkdir()
    (root / "bad_out" / "manifest.json").write_text("[1]")
    assert main(["select", "--config", cfg, "--records", str(root / "run" / "records.jsonl"),
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
    assert main(["baseline", "--config", cfg, "--records", bare_records,
                 "--strategy", name, "--out", str(root / "bare_sel")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name} needs a reference model")


def test_compare_over_records_with_no_checkpoint_has_an_error_row(workspace, bare_records,
                                                                 capsys):
    root, cfg = workspace
    assert main(["compare", "--config", cfg, "--strategy", "rds", "--fraction", "50",
                 "--records", bare_records, "--out", str(root / "bare_cmp")]) == 1
    assert "rds@50: ERROR rds needs a reference model\n" in capsys.readouterr().out
