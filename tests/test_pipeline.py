"""Orchestration tests: extract/select/train/eval plumbing on a tiny corpus."""

import dataclasses
import json
import os
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from gradsel import baselines, evalmetrics, pipeline
from gradsel.corpus import sha256
from gradsel.gradstats import GradientRecord, aggregate_instance, read_records, write_records
from gradsel.pipeline import (
    RunConfig,
    check_provenance,
    check_selection_provenance,
    load_config,
    prepare,
    run_baseline,
    run_compare,
    run_eval,
    run_extract,
    run_pilot,
    run_select,
    run_synth,
    run_train,
    sha256_file,
)
from gradsel.selector import silverman_bandwidth
from gradsel.tinylm import (Batch, Trainer, frozen_gradients, init_model, load_checkpoint,
                            model_fingerprint, save_checkpoint, total_update_steps, training)
from gradsel.tinylm.model import SCORE_BATCH, BackwardResult


def _cfg(corpus_dir, out_dir, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("d_model", 16)
    kw.setdefault("warmup_steps", 30)
    kw.setdefault("epochs", 1)
    return RunConfig(
        dataset=os.path.join(corpus_dir, "dataset.jsonl"), out_dir=out_dir, **kw
    )


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    run_synth(d, 60, 15, 15, seed=7)
    return d


@pytest.fixture(scope="module")
def extract_run(corpus_dir, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("extract"))
    cfg = _cfg(corpus_dir, out)
    return cfg, run_extract(cfg)


def test_digest_equals_hashlib(tmp_path):
    import hashlib

    data = np.random.default_rng(3).bytes((1 << 20) + 1)
    for n in (0, 55, 56, 63, 64, 65):  # padding edges of one and two blocks
        assert sha256(data[:n]).hexdigest() == hashlib.sha256(data[:n]).hexdigest()
    path = tmp_path / "blob"
    path.write_bytes(data)  # two reads of sha256_file's 1 MiB chunks
    assert sha256_file(str(path)) == hashlib.sha256(data).hexdigest()
    flat = np.random.default_rng(5).standard_normal(1000)  # model_fingerprint's buffer
    ours, theirs = sha256(b"cfg"), hashlib.sha256(b"cfg")
    ours.update(flat)
    theirs.update(flat)
    assert ours.hexdigest() == theirs.hexdigest()


def test_config_file_roundtrip_and_unknown_field(corpus_dir, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "dataset": os.path.join(corpus_dir, "dataset.jsonl"),
                "out_dir": str(tmp_path / "run"),
                "seed": 5,
            }
        )
    )
    cfg = load_config(str(path), out_dir=str(tmp_path / "elsewhere"))
    assert cfg.out_dir == str(tmp_path / "elsewhere")  # --out wins over the file value
    assert cfg.seed == 5
    path.write_text(json.dumps({"dataset": "x", "out_dir": "y", "bogus": 1}))
    with pytest.raises(ValueError, match="bogus"):
        load_config(str(path))


def test_readme_config_section_names_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`([a-z_0-9]+)`", section)) == set(RunConfig.__dataclass_fields__)


def test_split_disjoint_and_deterministic(corpus_dir, tmp_path):
    cfg = _cfg(corpus_dir, str(tmp_path))
    prep = prepare(cfg)
    train, test, query = map(set, (prep.split.train, prep.split.test, prep.split.query))
    assert not (train & test) and not (train & query) and not (test & query)
    assert len(train | test | query) == 90
    assert len(test) == round(0.1 * 90)
    assert len(query) == 16
    again = prepare(cfg)
    assert again.split == prep.split
    other = prepare(replace(cfg, seed=8))
    assert other.split != prep.split


def test_extract_covers_dataset(extract_run):
    _, out = extract_run
    assert out["n_records"] == 90
    records = read_records(out["records"])
    assert len({r.instance_id for r in records}) == 90


def test_frozen_records_name_the_checkpoint_next_to_them(extract_run, tmp_path):
    """And online records too: their checkpoint is the warmup model, not the
    model after the online epoch."""
    cfg, frozen = extract_run
    online = run_extract(replace(cfg, mode="online", out_dir=str(tmp_path)))
    for out in (frozen, online):
        fingerprint = model_fingerprint(load_checkpoint(out["model"]))
        assert {r.model_fingerprint for r in read_records(out["records"])} == {fingerprint}
        assert json.loads(Path(out["meta"]).read_text())["model_fingerprint"] == fingerprint


def _pair(kept: list):
    """A step hook that appends each instance, as a batch of one holding its
    own raw gradient rows, with the step that measured it to kept."""
    def hook(seqs, batch, res, step):
        for b, seq in enumerate(seqs):
            rows = slice(batch.row_starts[b], batch.row_starts[b + 1])
            one = BackwardResult(res.losses[b : b + 1], res.g_emb[b : b + 1, : len(seq)],
                                 res.g_lm[rows], None)
            kept.append((seq, Batch.of([seq]), one, step))
    return hook


def test_extract_records_match_aggregating_all_bundles(corpus_dir, tmp_path):
    # reference: keep every instance's raw rows of the pass, aggregate each
    # as a batch of one, sort by id; frozen mode measures each instance as a
    # batch of its own, repeats included
    for mode in ("frozen", "online"):
        cfg = _cfg(corpus_dir, str(tmp_path / mode), mode=mode)
        records = read_records(run_extract(cfg)["records"])
        prep = prepare(cfg)
        model = pipeline.build_reference_model(cfg, prep)
        fingerprint = model_fingerprint(model)
        pairs = []
        if mode == "frozen":
            for seq in prep.seqs:
                frozen_gradients(model, [seq], _pair(pairs))
        else:
            trainer = Trainer(model, cfg.train_hyper(),
                              total_update_steps(len(prep.seqs), cfg.batch_size, 1))
            trainer.run(prep.seqs, on_step=_pair(pairs))
        expected = [aggregate_instance(seq, batch, res, 0, step, fingerprint)
                    for seq, batch, res, step in pairs]
        ids = [r.instance_id for r in records]
        assert ids == sorted(ids)
        assert records == sorted(expected, key=lambda r: r.instance_id)


def test_frozen_extract_measures_each_distinct_sequence_once(corpus_dir, tmp_path, monkeypatch):
    measured = []
    real = training.loss_and_grads

    def counted(model, batch, *args, want_param_grads=True, **kwargs):
        if not want_param_grads:  # the frozen pass, not warmup
            measured.extend(batch.ids)
        return real(model, batch, *args, want_param_grads=want_param_grads, **kwargs)

    monkeypatch.setattr(training, "loss_and_grads", counted)
    cfg = _cfg(corpus_dir, str(tmp_path))
    records = read_records(run_extract(cfg)["records"])
    prep = prepare(cfg)
    firsts = {}
    for seq in prep.seqs:
        firsts.setdefault((seq.tokens, seq.sep_pos), seq)
    assert len(firsts) < len(prep.seqs)  # the corpus repeats sequences
    # shortest first, in dataset order within a length (a stable sort)
    assert measured == [seq.instance_id for seq in sorted(firsts.values(), key=len)]
    assert measured != [seq.instance_id for seq in firsts.values()]
    ids = [r.instance_id for r in records]
    assert ids == sorted(prep.by_id)
    by_id = {r.instance_id: r for r in records}
    for seq in prep.seqs:
        first = by_id[firsts[seq.tokens, seq.sep_pos].instance_id]
        assert by_id[seq.instance_id] == replace(first, instance_id=seq.instance_id)


def test_frozen_extract_names_the_first_non_finite_instance(corpus_dir, tmp_path, monkeypatch):
    real = pipeline.build_reference_model

    def non_finite(cfg, prep):
        model = real(cfg, prep)
        model.params["lnf.g"][0] = float("nan")
        return model

    monkeypatch.setattr(pipeline, "build_reference_model", non_finite)
    cfg = _cfg(corpus_dir, str(tmp_path))
    # the first sequence measured: the first of the shortest
    first = min(prepare(cfg).seqs, key=len).instance_id
    with pytest.raises(RuntimeError, match=rf"^NaN loss at frozen extraction: "
                                           rf"instance {re.escape(first)} has loss nan"):
        run_extract(cfg)
    assert os.listdir(tmp_path) == []  # no records, meta, checkpoint or manifest


def test_passes_that_train_nothing_forward_only_unpadded_chunks(corpus_dir, tmp_path,
                                                               monkeypatch):
    """Frozen extraction, the rds, less and ppl features, the pilot and eval's
    decoding forward chunks of one length and at most SCORE_BATCH sequences,
    so each row is bit-identical to a batch of one. Only training pads: the
    warmup inside run_extract is left out."""
    chunks, warming_up = [], []
    real_build = pipeline.build_reference_model

    def build(cfg, prep):
        warming_up.append(True)
        try:
            return real_build(cfg, prep)
        finally:
            warming_up.pop()

    monkeypatch.setattr(pipeline, "build_reference_model", build)
    for module in (training, baselines, evalmetrics):
        def spy(model, batch, *args, real=module.forward, **kwargs):
            if not warming_up:
                chunks.append((len(batch.ids), set(batch.lengths.tolist()),
                               batch.tokens.shape[1]))
            return real(model, batch, *args, **kwargs)

        monkeypatch.setattr(module, "forward", spy)
    cfg = _cfg(corpus_dir, str(tmp_path))
    paths = run_extract(cfg)
    seen = {"extract": chunks[:]}
    for name, run, *args in [("rds", run_select, paths["records"], "rds", 50.0),
                             ("less", run_select, paths["records"], "less", 50.0),
                             ("ppl", run_select, paths["records"], "ppl", 50.0),
                             ("pilot", run_pilot, paths["records"]),
                             ("eval", run_eval, paths["model"])]:
        del chunks[:]
        run(replace(cfg, out_dir=str(tmp_path / name)), *args)
        seen[name] = chunks[:]
    for name, shapes in seen.items():
        assert shapes, name
        for rows, lengths, width in shapes:
            assert rows <= SCORE_BATCH and lengths == {width}, (name, rows, lengths, width)


def test_prepared_index_built_once(corpus_dir, tmp_path):
    prep = prepare(_cfg(corpus_dir, str(tmp_path)))
    assert prep.by_id is prep.by_id
    ids = list(prep.split.test)
    assert [s.instance_id for s in prep.seqs_for(ids)] == ids
    assert [i.id for i in prep.instances_for(ids)] == ids


def _counting_loads(monkeypatch) -> list[str]:
    calls: list[str] = []
    real = pipeline.load_dataset

    def counted(path, *args, **kwargs):
        calls.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(pipeline, "load_dataset", counted)
    return calls


def test_prepare_shares_one_corpus_per_content_and_config(tmp_path, monkeypatch):
    run_synth(str(tmp_path), 30, 8, 8, seed=21)  # content no other test prepares
    cfg = _cfg(str(tmp_path), str(tmp_path / "out"))
    loads = _counting_loads(monkeypatch)
    first = prepare(cfg)
    assert prepare(cfg) is first
    assert prepare(replace(cfg, out_dir=str(tmp_path / "other"), d_model=8)) is first
    assert len(loads) == 1
    assert first.by_id is prepare(cfg).by_id
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.seqs = ()
    for changed in (replace(cfg, max_vocab=64), replace(cfg, seed=8)):
        other = prepare(changed)
        assert other is not first
    assert len(loads) == 3
    assert prepare(replace(cfg, seed=8)).split != first.split


def test_prepare_sees_a_rewritten_dataset(tmp_path):
    run_synth(str(tmp_path), 30, 8, 8, seed=22)
    cfg = _cfg(str(tmp_path), str(tmp_path / "out"))
    before = prepare(cfg)
    run_synth(str(tmp_path), 30, 8, 8, seed=23)  # same path, new bytes
    after = prepare(cfg)
    assert after.dataset_hash == sha256_file(cfg.dataset) != before.dataset_hash
    assert [i.prompt for i in after.instances] != [i.prompt for i in before.instances]


def test_select_sees_a_rewritten_record_file(extract_run, tmp_path):
    cfg, out = extract_run
    src = os.path.dirname(out["records"])
    records = tmp_path / "records.jsonl"
    (tmp_path / "extract_meta.json").write_bytes(
        Path(src, "extract_meta.json").read_bytes())
    original = Path(out["records"]).read_bytes()
    records.write_bytes(original)
    sel_cfg = replace(cfg, out_dir=str(tmp_path / "sel"))
    meta_path = tmp_path / "sel" / "selection_top_grad_meta.json"
    first = run_select(sel_cfg, str(records), "top_grad", 50.0)
    assert json.loads(meta_path.read_text())["records_hash"] == sha256_file(str(records))

    # same values, ids shifted by one line: the top half names other ids
    lines = [json.loads(l) for l in original.decode().splitlines()]
    ids = [l["instance_id"] for l in lines]
    for line, new_id in zip(lines, ids[1:] + ids[:1]):
        line["instance_id"] = new_id
    records.write_text("".join(json.dumps(l) + "\n" for l in lines))
    second = run_select(sel_cfg, str(records), "top_grad", 50.0)
    assert second.selected_ids != first.selected_ids
    meta = json.loads(meta_path.read_text())
    assert meta["records_hash"] == sha256_file(str(records)) != sha256_file(out["records"])

    # a new file is validated in full, even right after a valid one was read
    records.write_text("".join(json.dumps(l) + "\n" for l in lines + lines[:1]))
    with pytest.raises(ValueError, match="duplicate instance_id"):
        run_select(sel_cfg, str(records), "top_grad", 50.0)


@pytest.mark.parametrize("field, value", [("max_vocab", 256), ("max_seq_len", 64)])
def test_select_refuses_records_of_another_extraction_config(extract_run, tmp_path,
                                                             field, value):
    cfg, out = extract_run
    other = replace(cfg, out_dir=str(tmp_path), **{field: value})
    with pytest.raises(RuntimeError, match=f"provenance mismatch: .*{field}="):
        run_select(other, out["records"], "grads", 50.0)


def test_extract_rerun_byte_identical(corpus_dir, extract_run, tmp_path):
    cfg, first = extract_run
    second = run_extract(replace(cfg, out_dir=str(tmp_path)))
    assert Path(first["records"]).read_bytes() == Path(second["records"]).read_bytes()


def test_online_vs_frozen_same_ids_different_values(corpus_dir, extract_run, tmp_path):
    cfg, frozen_out = extract_run
    online = run_extract(replace(cfg, out_dir=str(tmp_path), mode="online"))
    a = read_records(frozen_out["records"])
    b = read_records(online["records"])
    assert [r.instance_id for r in a] == [r.instance_id for r in b]
    assert any(x.g_grads != y.g_grads for x, y in zip(a, b))


def test_select_metadata_and_file_shape(corpus_dir, extract_run, tmp_path):
    cfg, out = extract_run
    result = run_select(
        replace(cfg, out_dir=str(tmp_path)), out["records"], "grads", 50.0
    )
    assert len(result.selected_ids) == 45
    meta = json.loads((tmp_path / "selection_grads_meta.json").read_text())
    records = read_records(out["records"])
    assert meta["bandwidth"] == silverman_bandwidth([r.g_grads for r in records])
    assert meta["n_selected"] == 45
    text = (tmp_path / "selection_grads.jsonl").read_text()
    lines = [json.loads(l) for l in text.splitlines()]
    assert [l["rank"] for l in lines] == list(range(1, 46))
    f_vals = [l["f_value"] for l in lines]
    assert all(a >= b for a, b in zip(f_vals, f_vals[1:]))  # density rank order


def test_select_refuses_foreign_records(corpus_dir, extract_run, tmp_path_factory):
    cfg, out = extract_run
    other_corpus = str(tmp_path_factory.mktemp("other"))
    run_synth(other_corpus, 20, 5, 5, seed=8)
    foreign = _cfg(other_corpus, str(tmp_path_factory.mktemp("sel")))
    with pytest.raises(RuntimeError, match="provenance"):
        run_select(foreign, out["records"], "grads", 50.0)


def test_provenance_checks_sidecar(corpus_dir, extract_run, tmp_path):
    cfg, out = extract_run
    prep = prepare(cfg)
    check_provenance(out["records"], prep, cfg)
    bare = tmp_path / "records.jsonl"
    bare.write_bytes(Path(out["records"]).read_bytes())
    with pytest.raises(RuntimeError, match="metadata"):
        check_provenance(str(bare), prep, cfg)


def test_train_checks_the_selection_provenance(extract_run, tmp_path):
    cfg, _ = extract_run
    prep = prepare(cfg)
    sel = tmp_path / "selection_hand.jsonl"
    sel.write_text('{"id": "x"}\n')
    check_selection_provenance(str(sel), prep)  # no meta: passes
    meta = tmp_path / "selection_hand_meta.json"
    meta.write_text('{"strategy": "hand"}')
    check_selection_provenance(str(sel), prep)  # no hash: passes
    meta.write_text(json.dumps({"dataset_hash": "0" * 64}))
    with pytest.raises(RuntimeError, match="selection belongs to a different dataset"):
        run_train(replace(cfg, out_dir=str(tmp_path / "train")), str(sel))


@pytest.mark.parametrize("artifact", [
    "manifest.json", "extract_meta.json", "selection_hand_meta.json",
])
def test_a_non_object_manifest_or_meta_is_a_named_value_error(extract_run, tmp_path,
                                                               artifact):
    cfg, _ = extract_run
    prep = prepare(cfg)
    (tmp_path / artifact).write_text("[1]\n")
    read = {
        "manifest.json": lambda: pipeline.write_manifest(str(tmp_path), []),
        "extract_meta.json": lambda: check_provenance(
            str(tmp_path / "records.jsonl"), prep, cfg),
        "selection_hand_meta.json": lambda: check_selection_provenance(
            str(tmp_path / "selection_hand.jsonl"), prep),
    }[artifact]
    with pytest.raises(ValueError, match=f"{artifact}: not a JSON object$"):
        read()


def test_constant_gradients_select_the_first_instances_with_null_bandwidth(
        extract_run, tmp_path):
    cfg, out = extract_run
    ids = [r.instance_id for r in read_records(out["records"])]
    records = _records_without_checkpoint(out, tmp_path)
    write_records([replace(r, g_emb=0.5, g_lm=0.25, g_grads=0.75)
                   for r in read_records(out["records"])], records)
    result = run_select(replace(cfg, out_dir=str(tmp_path / "sel")), records, "grads", 50.0)
    assert result.ordered_ids == tuple(ids[:45])
    meta = json.loads((tmp_path / "sel" / "selection_grads_meta.json").read_text())
    assert meta["bandwidth"] is None
    text = (tmp_path / "sel" / "selection_grads.jsonl").read_text()
    lines = [json.loads(l) for l in text.splitlines()]
    assert [l["id"] for l in lines] == ids[:45]
    assert {l["f_value"] for l in lines} == {None}


def test_write_json_failing_mid_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "meta.json"
    pipeline.write_json(str(path), {"a": 1})
    old = path.read_bytes()
    with pytest.raises(TypeError):
        pipeline.write_json(str(path), {"a": 2, "b": object()})
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["meta.json"]


@pytest.mark.parametrize("artifact", [
    "meta.json", "records.jsonl", "model.json", "selection_grads.jsonl", "deciles.csv",
])
def test_a_failed_artifact_write_leaves_the_old_file(extract_run, tmp_path, monkeypatch,
                                                     artifact):
    cfg, out = extract_run
    here = replace(cfg, out_dir=str(tmp_path))
    writers = {
        "meta.json": lambda: pipeline.write_json(str(tmp_path / artifact), {"a": 1}),
        "records.jsonl": lambda: write_records(read_records(out["records"]),
                                               str(tmp_path / artifact)),
        "model.json": lambda: save_checkpoint(load_checkpoint(out["model"]),
                                              str(tmp_path / artifact)),
        "selection_grads.jsonl": lambda: run_select(here, out["records"], "grads", 50.0),
        "deciles.csv": lambda: run_pilot(here, records_path=out["records"]),
    }
    (tmp_path / artifact).write_text("old\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        writers[artifact]()
    assert (tmp_path / artifact).read_text() == "old\n"
    assert os.listdir(tmp_path) == [artifact]


def test_train_then_eval_roundtrip(corpus_dir, extract_run, tmp_path):
    cfg, out = extract_run
    sel_cfg = replace(cfg, out_dir=str(tmp_path / "sel"))
    run_select(sel_cfg, out["records"], "grads", 50.0)
    train_cfg = replace(cfg, out_dir=str(tmp_path / "train"))
    trained = run_train(
        train_cfg, selection_path=str(tmp_path / "sel" / "selection_grads.jsonl")
    )
    assert trained["n_train"] > 0
    result = run_eval(
        replace(cfg, out_dir=str(tmp_path / "eval")),
        os.path.join(train_cfg.out_dir, "model.json"),
    )
    assert set(result["metrics"]) >= {"bleu", "rouge_l", "meteor"}
    assert os.path.isfile(tmp_path / "eval" / "eval.json")


def _row(report, name: str) -> dict:
    return next(r for r in report.rows if r["row"] == name)


def test_compare_layout_identity_and_traceability(corpus_dir, tmp_path):
    cfg = _cfg(corpus_dir, str(tmp_path / "cmp"))
    report = run_compare(cfg, ["grads", "random"], [50.0, 100.0])
    assert len(report.rows) == 2 * 2 + 2
    assert report.rows[0]["row"] == "base" and report.rows[1]["row"] == "all"
    # N=100 selection is the identity, so the row must equal the all row
    full = _row(report, "all")
    for name in ("grads@100", "random@100"):
        row = _row(report, name)
        assert row["error"] is None
        for key in ("bleu", "rouge_l", "meteor"):
            assert row[key] == full[key]
    for row in report.rows[2:]:
        assert row["error"] is None
        path = os.path.join(cfg.out_dir, row["selection_file"])
        assert sha256_file(path) == row["selection_hash"]
        assert sum(row["stratum_counts"].values()) == row["n_train"]


def test_compare_rerun_byte_identical(corpus_dir, tmp_path):
    paths = []
    for sub in ("one", "two"):
        cfg = _cfg(corpus_dir, str(tmp_path / sub))
        run_compare(cfg, ["grads"], [50.0])
        paths.append(tmp_path / sub)
    for name in ("report.json", "records.jsonl", "manifest.json"):
        assert (paths[0] / name).read_bytes() == (paths[1] / name).read_bytes()


def test_compare_rejects_a_repeated_row_before_extracting(corpus_dir, tmp_path):
    cfg = _cfg(corpus_dir, str(tmp_path))
    for strategies, fractions, row in ((["grads", "grads"], [50.0], "grads@50"),
                                       (["random"], [50, 50.0], "random@50")):
        with pytest.raises(ValueError, match=f"^compare row {row} is repeated$"):
            run_compare(cfg, strategies, fractions)
    assert not (tmp_path / "records.jsonl").exists()


def test_compare_records_error_cells(corpus_dir, tmp_path, monkeypatch):
    real = pipeline.run_selection_by_name

    def boom(name, *args, **kwargs):
        if name == "random":
            raise ValueError("forced failure")
        return real(name, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_selection_by_name", boom)
    cfg = _cfg(corpus_dir, str(tmp_path))
    report = run_compare(cfg, ["grads", "random"], [50.0])
    assert _row(report, "random@50")["error"] == "forced failure"
    assert _row(report, "grads@50")["error"] is None
    saved = json.loads((tmp_path / "report.json").read_text())
    assert len(saved["rows"]) == 4


def test_pilot_csv_shape_and_determinism(corpus_dir, extract_run, tmp_path):
    cfg, out = extract_run
    meta = run_pilot(
        replace(cfg, out_dir=str(tmp_path)), records_path=out["records"]
    )
    lines = (tmp_path / "deciles.csv").read_text().splitlines()
    assert lines[0] == "decile,mean_loss,token_acc,count"
    assert len(lines) == 11
    assert -1.0 <= meta["loss_gradient_spearman"] <= 1.0
    first = (tmp_path / "deciles.csv").read_bytes()
    run_pilot(replace(cfg, out_dir=str(tmp_path)), records_path=out["records"])
    assert (tmp_path / "deciles.csv").read_bytes() == first


def test_manifest_merges_across_commands(corpus_dir, tmp_path):
    cfg = _cfg(corpus_dir, str(tmp_path))
    out = run_extract(cfg)
    run_select(cfg, out["records"], "grads", 50.0)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    expected = {
        "records.jsonl",
        "extract_meta.json",
        "extract_model.json",
        "selection_grads.jsonl",
        "selection_grads_meta.json",
    }
    assert expected <= set(manifest["files"])
    for name in expected:
        assert manifest["files"][name] == sha256_file(str(tmp_path / name))


def _records_without_checkpoint(out, where) -> str:
    """A copy of the extracted records and their meta, with no checkpoint."""
    for name in ("records.jsonl", "extract_meta.json"):
        (where / name).write_bytes(Path(os.path.dirname(out["records"]), name).read_bytes())
    return str(where / "records.jsonl")


@pytest.mark.parametrize("name", ["rds", "less", "ppl"])
def test_a_model_baseline_with_no_checkpoint_needs_a_reference_model(extract_run, tmp_path,
                                                                    name):
    cfg, out = extract_run
    records = _records_without_checkpoint(out, tmp_path)
    checkpoint = re.escape(str(tmp_path / "extract_model.json"))
    with pytest.raises(ValueError, match=f"^checkpoint not found: {checkpoint}$"):
        run_select(replace(cfg, out_dir=str(tmp_path / "sel")), records, name, 50.0)
    assert not (tmp_path / "sel").exists()


def test_select_refuses_a_fraction_out_of_range_before_reading_records(extract_run, tmp_path):
    cfg, out = extract_run
    records = _records_without_checkpoint(out, tmp_path)
    for fraction in (0.0, 100.5):
        with pytest.raises(ValueError, match=r"^fraction must lie in \(0, 100\]$"):
            run_select(replace(cfg, out_dir=str(tmp_path / "sel")), records, "rds", fraction)
        with pytest.raises(ValueError, match=r"^fraction must lie in \(0, 100\]$"):
            run_select(cfg, str(tmp_path / "no-such-records.jsonl"), "grads", fraction)
    assert not (tmp_path / "sel").exists()


def test_bm25_with_no_query_split_is_refused(extract_run, tmp_path):
    cfg, out = extract_run
    with pytest.raises(ValueError, match="^bm25 needs a nonempty query split$"):
        run_select(replace(cfg, out_dir=str(tmp_path), query_size=0), out["records"],
                   "bm25", 50.0)


def test_selection_counts_the_strata_it_keeps():
    recs = [GradientRecord(f"r{i}", g, 0.0, g, 4, 2, "00" * 8, -1)
            for i, g in enumerate([1.0, 1.01, 5.0, 1.02])]
    prep = SimpleNamespace(split=SimpleNamespace(query=[]),
                           strata={"r0": "domain", "r1": "noise", "r2": None, "r3": "domain"})
    kept = pipeline.run_selection_by_name("grads", 75.0, recs, prep, None, None)
    assert kept.selected_ids == ("r0", "r1", "r3")  # the outlier r2 is dropped
    assert kept.stratum_counts == {"domain": 2, "noise": 1}
    every = pipeline.run_selection_by_name("grads", 100.0, recs, prep, None, None)
    assert every.stratum_counts == {"domain": 2, "noise": 1, "unlabeled": 1}


@pytest.mark.parametrize("name", ["rds", "less"])
def test_feature_baselines_score_each_distinct_row_once(extract_run, monkeypatch, name):
    """The candidate features hold one row per distinct sequence, and the
    scores are bit-equal to scoring every candidate's own batch-of-one row."""
    cfg, out = extract_run
    prep = prepare(cfg)
    records = read_records(out["records"])
    model = load_checkpoint(os.path.join(os.path.dirname(out["records"]), "extract_model.json"))
    feats = {"rds": baselines.representation_features, "less": baselines.gradient_features}[name]
    score = getattr(baselines, f"{name}_scores")
    scored = []

    def spy(cands, queries):
        scored.append(len(cands))
        return score(cands, queries)

    monkeypatch.setattr(baselines, f"{name}_scores", spy)
    result = pipeline.run_selection_by_name(name, 50.0, records, prep, cfg, model)
    ids = [r.instance_id for r in records]
    seqs = prep.seqs_for(ids)
    assert scored == [len({(s.tokens, s.sep_pos) for s in seqs})]
    assert scored[0] < len(seqs)  # the corpus repeats sequences

    def every_row(seqs):
        return np.vstack([feats(model, [seq])[0] for seq in seqs])

    want = score(every_row(seqs), every_row(prep.seqs_for(prep.split.query)))
    assert [result.f_values[i] for i in ids] == want.tolist()


def test_ppl_refuses_a_perplexity_that_is_not_positive(extract_run, tmp_path, monkeypatch):
    cfg, out = extract_run
    monkeypatch.setattr(baselines, "sequence_perplexities",
                        lambda model, seqs: [1.0] * (len(seqs) - 1) + [-2.0])
    with pytest.raises(ValueError, match="^perplexities must be positive$"):
        run_select(replace(cfg, out_dir=str(tmp_path / "sel")), out["records"], "ppl", 50.0)
    assert not (tmp_path / "sel").exists()


def test_run_baseline_writes_what_run_select_writes(extract_run, tmp_path):
    cfg, out = extract_run
    alias, select = tmp_path / "alias", tmp_path / "select"
    run_baseline(replace(cfg, out_dir=str(alias)), "bm25", out["records"], 50.0)
    run_select(replace(cfg, out_dir=str(select)), out["records"], "bm25", 50.0)
    for name in ("selection_bm25.jsonl", "selection_bm25_meta.json"):
        assert (alias / name).read_bytes() == (select / name).read_bytes()


def test_compare_refuses_records_that_miss_a_pool_instance(extract_run, tmp_path):
    cfg, out = extract_run
    records = _records_without_checkpoint(out, tmp_path)
    dropped = min(prepare(cfg).split.train)
    write_records([r for r in read_records(records) if r.instance_id != dropped], records)
    with pytest.raises(ValueError, match=r"^records name 0 ids not in the dataset \[\] and "
                                         rf"miss 1 of its ids \[{dropped}\]$"):
        run_compare(replace(cfg, out_dir=str(tmp_path / "cmp")), ["grads"], [50.0],
                    records_path=records)


def test_eval_refuses_a_checkpoint_of_another_vocabulary(extract_run, tmp_path):
    cfg, _ = extract_run
    path = str(tmp_path / "model.json")
    save_checkpoint(init_model(cfg.model_config(prepare(cfg).tok.vocab_size + 1)), path)
    with pytest.raises(RuntimeError,
                       match="^checkpoint vocabulary does not match the dataset tokenizer$"):
        run_eval(replace(cfg, out_dir=str(tmp_path / "eval")), path)


def test_a_checkpoint_of_another_dataset_is_refused_though_its_vocabulary_fits(
        extract_run, tmp_path):
    cfg, out = extract_run
    other = tmp_path / "dataset.jsonl"  # one word renamed: same vocabulary size
    other.write_text(Path(cfg.dataset).read_text().replace("maps", "points"))
    other_cfg = replace(cfg, dataset=str(other), out_dir=str(tmp_path / "out"))
    assert prepare(other_cfg).tok.vocab_size == prepare(cfg).tok.vocab_size
    trained = replace(cfg, out_dir=str(tmp_path / "train"))
    run_train(trained)
    refused = "^provenance mismatch: checkpoint belongs to a different dataset$"
    for model in (out["model"], os.path.join(trained.out_dir, "model.json")):
        with pytest.raises(RuntimeError, match=refused):
            run_eval(other_cfg, model)
    with pytest.raises(RuntimeError, match="^provenance mismatch: records were extracted "
                                           "from a different dataset$"):
        run_pilot(other_cfg, out["records"])
    # with no meta beside it, a checkpoint has the vocabulary check alone
    bare = tmp_path / "bare" / "model.json"
    bare.parent.mkdir()
    bare.write_bytes(Path(trained.out_dir, "model.json").read_bytes())
    assert "bleu" in run_eval(other_cfg, str(bare))["metrics"]


def test_train_refuses_a_selection_with_no_pool_instance(extract_run, tmp_path):
    cfg, _ = extract_run
    sel = tmp_path / "selection_test.jsonl"
    sel.write_text("".join(json.dumps({"id": i}) + "\n" for i in prepare(cfg).split.test))
    with pytest.raises(ValueError, match="^selection contains no training-pool instances$"):
        run_train(replace(cfg, out_dir=str(tmp_path / "train")), str(sel))


def test_compare_and_eval_refuse_an_empty_test_split(extract_run, tmp_path):
    cfg, _ = extract_run
    empty = replace(cfg, out_dir=str(tmp_path), test_fraction=0.0)
    message = r"^the test split is empty \(test_fraction=0\); raise test_fraction to evaluate$"
    with pytest.raises(ValueError, match=message):
        run_compare(empty, ["grads"], [50.0])
    assert not (tmp_path / "records.jsonl").exists()
    with pytest.raises(ValueError, match=message):  # before the checkpoint is read
        run_eval(empty, str(tmp_path / "no-such-model.json"))


def test_train_refuses_a_selection_naming_ids_not_in_the_dataset(extract_run, tmp_path):
    cfg, _ = extract_run
    ids = list(prepare(cfg).split.train[:10]) + ["no-such-id", "domain-9999"]
    sel = tmp_path / "selection_hand.jsonl"
    sel.write_text("".join(json.dumps({"id": i}) + "\n" for i in ids))
    with pytest.raises(ValueError, match="^selection names 2 ids not in the dataset: "
                                         "no-such-id, domain-9999$"):
        run_train(replace(cfg, out_dir=str(tmp_path / "train")), str(sel))
    assert not (tmp_path / "train").exists()
