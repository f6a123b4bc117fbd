"""Experiment orchestration: run configuration, deterministic splits, and the
extract -> select -> fine-tune -> evaluate flow behind the CLI.

Every artifact is written with stable key order and stable float formatting,
so a rerun of the same config produces byte-identical files. Wall-clock
timings are the one exception; they live in a separate volatile file that the
manifest does not hash.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import baselines
from .corpus import (
    Instance,
    SynthSpec,
    TokenSequence,
    Tokenizer,
    build_vocab,
    encode_instance,
    load_dataset,
    open_atomic,
    save_dataset,
    sha256,
    split_words,
    synth_corpus,
    _from_json,
    _json_lines,
)
from .evalmetrics import bleu, greedy_decode, meteor_report, pilot_deciles, rouge_report
from .gradstats import GradientRecord, _fmt, aggregate_instance, read_records, write_records
from .rng import ROLE_SPLIT, substream
from .selector import (STRATEGIES, TIE_BREAK, SelectionResult, density_order, descending_order,
                       select_strategy, selection_from_order)
from .tinylm import (
    Model,
    ModelConfig,
    TrainHyper,
    Trainer,
    frozen_gradients,
    init_model,
    load_checkpoint,
    model_fingerprint,
    save_checkpoint,
    total_update_steps,
)

# Every name select and compare take: the density strategies, then the
# baselines. bm25/dsir/rds/less score against the query split; rds/less/ppl
# read features from the checkpoint next to the records.
SELECTION_NAMES = STRATEGIES + ("random", "bm25", "dsir", "rds", "less", "ppl")
QUERY_NAMES = ("bm25", "dsir", "rds", "less")
MODEL_NAMES = ("rds", "less", "ppl")

EXTRACTION_MODES = ("frozen", "online")

RECORDS_FILE = "records.jsonl"
EXTRACT_META_FILE = "extract_meta.json"
EXTRACT_MODEL_FILE = "extract_model.json"
MANIFEST_FILE = "manifest.json"
TIMINGS_FILE = "timings.json"


@dataclass(frozen=True)
class RunConfig:
    """Flat experiment configuration mirrored by the JSON config file."""

    dataset: str
    out_dir: str
    seed: int = 42

    # tokenizer
    max_vocab: int = 512
    max_seq_len: int = 48

    # model
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 64

    # optimization
    learning_rate: float = 3e-3
    warmup_ratio: float = 0.1
    batch_size: int = 8
    epochs: int = 3

    # extraction
    mode: str = "frozen"
    warmup_steps: int = 200

    # splits and baseline inputs
    test_fraction: float = 0.1
    query_size: int = 16

    def validate(self) -> None:
        if not os.path.isfile(self.dataset):
            raise ValueError(f"dataset not found: {self.dataset}")
        if self.mode not in EXTRACTION_MODES:
            raise ValueError(f"unknown extraction mode {self.mode!r}")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in [0, 1)")
        if self.query_size < 0 or self.warmup_steps < 0:
            raise ValueError("query_size and warmup_steps must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        self.train_hyper().validate()

    def model_config(self, vocab_size: int) -> ModelConfig:
        """Validated by init_model, which every caller hands it to."""
        return ModelConfig(
            d_model=self.d_model,
            n_layers=self.n_layers,
            n_heads=self.n_heads,
            d_ff=self.d_ff,
            vocab_size=vocab_size,
            max_seq_len=self.max_seq_len,
            init_seed=self.seed,
        )

    def train_hyper(self) -> TrainHyper:
        return TrainHyper(
            learning_rate=self.learning_rate,
            warmup_ratio=self.warmup_ratio,
            batch_size=self.batch_size,
            shuffle_seed=self.seed,
        )

    def public_dict(self) -> dict:
        """Config echo for metadata files; excludes output location."""
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d.pop("out_dir")
        return d


def load_config(path: str, out_dir: str | None = None) -> RunConfig:
    """The file's RunConfig, by exact JSON types; out_dir, when given,
    replaces the file's output directory."""
    (_, raw), = _json_lines(path, whole=True)
    if type(raw) is dict and out_dir is not None:
        raw["out_dir"] = out_dir
    cfg = _from_json(RunConfig, raw, path)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# artifact helpers


def sha256_file(path: str) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_hashed(path: str) -> tuple[bytes, str]:
    """A file's bytes and their sha256, so a parse of those bytes is exactly
    what the hash names."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, sha256(data).hexdigest()


class _LastValue:
    """One-entry memo: the value built for the most recent key.

    Stage calls in one process (a library caller, a notebook, a test run)
    prepare the same corpus and read the same record file again and again.
    Keys are content hashes, so a changed file is always a miss, and at most
    one value per memo stays alive.
    """

    def __init__(self):
        self._key = None
        self._value = None

    def get(self, key, build):
        if self._key != key:
            self._key, self._value = None, None  # drop the old value before building
            self._value = build()
            self._key = key
        return self._value


def write_json(path: str, obj) -> None:
    with open_atomic(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


@dataclass(frozen=True)
class _Sidecar:  # the fields read back from a manifest or a meta
    files: dict = field(default_factory=dict)
    dataset_hash: str | None = None
    config: dict = field(default_factory=dict)


def _read_sidecar(path: str) -> _Sidecar:
    (_, obj), = _json_lines(path, whole=True)
    return _from_json(_Sidecar, obj, path, ignore_unknown=True)


def write_manifest(out_dir: str, filenames: list[str]) -> dict[str, str]:
    """Hash every deterministic artifact of a command run; returns the
    manifest's entries, file name to sha256.

    Entries accumulate across commands sharing one output directory; a
    rehashed file simply replaces its previous entry.
    """
    path = os.path.join(out_dir, MANIFEST_FILE)
    entries = _read_sidecar(path).files if os.path.isfile(path) else {}
    for name in filenames:
        entries[name] = sha256_file(os.path.join(out_dir, name))
    write_json(path, {"files": entries})
    return entries


# ---------------------------------------------------------------------------
# dataset preparation and splits


@dataclass(frozen=True)
class SplitIds:
    train: tuple[str, ...]
    test: tuple[str, ...]
    query: tuple[str, ...]


def split_dataset(instances: list[Instance], seed: int, test_fraction: float,
                  query_size: int) -> SplitIds:
    """Deterministic id-level split; held-out slots are filled domain-first.

    The query split feeds similarity baselines; the test split is the eval
    set. Both prefer labeled domain instances so evaluation probes the shared
    fact table; unlabeled corpora fall back to the plain shuffled order.
    """
    n = len(instances)
    if n == 0:
        raise ValueError("empty dataset")
    n_test = int(round(test_fraction * n))
    if query_size + n_test >= n:
        raise ValueError("dataset too small for the requested splits")
    rng = substream(seed, ROLE_SPLIT)
    order = list(range(n))
    rng.shuffle(order)
    preferred = [i for i in order if instances[i].stratum == "domain"]
    rest = [i for i in order if instances[i].stratum != "domain"]
    held = preferred + rest
    query = held[:query_size]
    test = held[query_size : query_size + n_test]
    chosen = set(query) | set(test)
    train = [i for i in range(n) if i not in chosen]
    return SplitIds(
        train=tuple(instances[i].id for i in train),
        test=tuple(instances[i].id for i in test),
        query=tuple(instances[i].id for i in query),
    )


@dataclass(frozen=True)
class Prepared:
    """Loaded corpus plus everything derived deterministically from it.

    Immutable, because prepare hands one instance to every call that prepares
    the same corpus the same way.
    """

    instances: tuple[Instance, ...]
    tok: Tokenizer
    seqs: tuple[TokenSequence, ...]
    split: SplitIds
    dataset_hash: str

    @functools.cached_property
    def by_id(self) -> dict[str, int]:
        return {inst.id: i for i, inst in enumerate(self.instances)}

    def seqs_for(self, ids) -> list[TokenSequence]:
        return [self.seqs[self.by_id[i]] for i in ids]

    def instances_for(self, ids) -> list[Instance]:
        return [self.instances[self.by_id[i]] for i in ids]

    @functools.cached_property
    def strata(self) -> dict[str, str | None]:
        return {inst.id: inst.stratum for inst in self.instances}


_PREPARED = _LastValue()


def prepare(cfg: RunConfig) -> Prepared:
    """Load, tokenize, encode and split the dataset.

    Calls with the same dataset bytes and the same prepare fields (max_vocab,
    max_seq_len, seed, test_fraction, query_size) return the same Prepared.
    """
    cfg.validate()
    data, dataset_hash = _read_hashed(cfg.dataset)

    def build() -> Prepared:
        instances = tuple(load_dataset(cfg.dataset, data))
        tok = build_vocab(instances, cfg.max_vocab)
        return Prepared(
            instances=instances,
            tok=tok,
            seqs=tuple(encode_instance(tok, inst, cfg.max_seq_len) for inst in instances),
            split=split_dataset(instances, cfg.seed, cfg.test_fraction, cfg.query_size),
            dataset_hash=dataset_hash,
        )

    key = (dataset_hash, cfg.max_vocab, cfg.max_seq_len, cfg.seed, cfg.test_fraction,
           cfg.query_size)
    return _PREPARED.get(key, build)


_RECORDS = _LastValue()


def _read_records_hashed(records_path: str) -> tuple[list[GradientRecord], str]:
    """The records of a file (a fresh list) and the sha256 of its bytes; the
    parse is shared by every call over the same bytes."""
    data, records_hash = _read_hashed(records_path)
    records = _RECORDS.get(records_hash,
                           lambda: tuple(read_records(records_path, data=data)))
    return list(records), records_hash


# ---------------------------------------------------------------------------
# extraction


def build_reference_model(cfg: RunConfig, prep: Prepared) -> Model:
    """Fresh init plus the configured warmup; the model gradients are
    measured against (and the feature source for rds/less/ppl). The warmup
    steps are the trainer's whole horizon, so its ramp settles within them."""
    model = init_model(cfg.model_config(prep.tok.vocab_size))
    Trainer(model, cfg.train_hyper(), cfg.warmup_steps).run(prep.seqs)
    return model


def run_extract(cfg: RunConfig, prep: Prepared | None = None) -> dict:
    """Gradient records for every instance in the dataset file, sorted by id.

    Frozen mode gives every instance that repeats an earlier token sequence
    the record of that sequence's first instance, under its own id, since
    frozen_gradients measures each distinct sequence once. Online mode
    measures every instance in the training step that consumes it."""
    t0 = time.perf_counter()
    prep = prep or prepare(cfg)
    model = build_reference_model(cfg, prep)
    fingerprint = model_fingerprint(model)
    records: list[GradientRecord] = []

    def measure(seqs, batch, res, step) -> None:
        records.extend(aggregate_instance(seq, batch, res, b, step, fingerprint)
                       for b, seq in enumerate(seqs))

    # frozen: pure measurement against the warmup parameters; online: one
    # training epoch of a copy, each instance measured at the step that
    # consumes it. Either way the checkpoint is the warmup model the records'
    # fingerprint names, written only once the records are.
    if cfg.mode == "frozen":
        at = frozen_gradients(model, prep.seqs, measure)
        # records[i] is the i-th sequence measured; copy it to each repeat
        records.extend([replace(records[i], instance_id=seq.instance_id)
                        for seq, i in zip(prep.seqs, at)
                        if records[i].instance_id != seq.instance_id])
    else:
        trainer = Trainer(copy.deepcopy(model), cfg.train_hyper(),
                          total_update_steps(len(prep.seqs), cfg.batch_size, 1))
        trainer.run(prep.seqs, on_step=measure)
    records.sort(key=lambda r: r.instance_id)

    records_path = os.path.join(cfg.out_dir, RECORDS_FILE)
    write_records(records, records_path)
    model_path = os.path.join(cfg.out_dir, EXTRACT_MODEL_FILE)
    save_checkpoint(model, model_path)
    meta = {
        "config": cfg.public_dict(),
        "dataset_hash": prep.dataset_hash,
        "model_fingerprint": fingerprint,
        "n_records": len(records),
        "vocab_size": prep.tok.vocab_size,
    }
    meta_path = os.path.join(cfg.out_dir, EXTRACT_META_FILE)
    write_json(meta_path, meta)
    write_manifest(cfg.out_dir, [RECORDS_FILE, EXTRACT_META_FILE, EXTRACT_MODEL_FILE])
    write_json(
        os.path.join(cfg.out_dir, TIMINGS_FILE),
        {"extract_seconds": time.perf_counter() - t0},
    )
    return {
        "records": records_path,
        "model": model_path,
        "meta": meta_path,
        "n_records": len(records),
    }


def _resolve_records(cfg: RunConfig, prep: Prepared,
                     records_path: str | None) -> tuple[str, list[GradientRecord], str]:
    """Extract into cfg.out_dir when records_path is None, else check the
    records' provenance and that their ids are exactly the dataset's: every
    command that reads records ranks, scores or looks up each of them against
    prep. Returns the records path, its records and their hash."""
    if records_path is None:
        records_path = run_extract(cfg, prep)["records"]
    else:
        check_provenance(records_path, prep, cfg)
    records, records_hash = _read_records_hashed(records_path)
    # read_records refuses a repeated id, so equal counts and no foreign id
    # mean equal id sets
    by_id = prep.by_id
    if len(records) != len(by_id) or not all(r.instance_id in by_id for r in records):
        ids = {r.instance_id for r in records}
        foreign, missing = sorted(ids - by_id.keys()), sorted(by_id.keys() - ids)
        raise ValueError(f"records name {len(foreign)} ids not in the dataset "
                         f"[{', '.join(foreign[:3])}] and miss {len(missing)} of its ids "
                         f"[{', '.join(missing[:3])}]")
    return records_path, records, records_hash


def extract_sibling(records_path: str, name: str) -> str:
    """The path of the extraction artifact `name` (EXTRACT_META_FILE or
    EXTRACT_MODEL_FILE) in the directory of records_path, where run_extract
    writes it."""
    return os.path.join(os.path.dirname(records_path) or ".", name)


def _names_another_dataset(meta_path: str, prep: Prepared) -> bool:
    """Whether there is a meta at meta_path and its dataset_hash is not
    prep's. A meta with no dataset_hash (a hand-made id list) names none."""
    return os.path.isfile(meta_path) and (
        _read_sidecar(meta_path).dataset_hash not in (None, prep.dataset_hash))


def load_model(prep: Prepared, path: str) -> Model:
    """The checkpoint at path, for prep's dataset. Refused when the file is
    missing, when the meta its command wrote beside it names another
    dataset, or when its vocabulary size is not the dataset tokenizer's:
    token ids name other words under another corpus."""
    if not os.path.isfile(path):
        raise ValueError(f"checkpoint not found: {path}")
    meta = {EXTRACT_MODEL_FILE: EXTRACT_META_FILE,
            "model.json": "train_meta.json"}.get(os.path.basename(path))
    if meta and _names_another_dataset(os.path.join(os.path.dirname(path), meta), prep):
        raise RuntimeError("provenance mismatch: checkpoint belongs to a different dataset")
    model = load_checkpoint(path)
    if model.cfg.vocab_size != prep.tok.vocab_size:
        raise RuntimeError("checkpoint vocabulary does not match the dataset tokenizer")
    return model


# Config fields that change what a record measures: the token ids and the
# truncation behind each gradient.
PROVENANCE_FIELDS = ("max_vocab", "max_seq_len")


def check_provenance(records_path: str, prep: Prepared, cfg: RunConfig) -> None:
    """Refuse records whose sidecar metadata is missing, or points at a
    different dataset or a different value of one of PROVENANCE_FIELDS."""
    meta_path = extract_sibling(records_path, EXTRACT_META_FILE)
    if not os.path.isfile(meta_path):
        raise RuntimeError(
            f"no provenance metadata next to {records_path} (rerun extract)"
        )
    meta = _read_sidecar(meta_path)
    if meta.dataset_hash != prep.dataset_hash:
        raise RuntimeError(
            "provenance mismatch: records were extracted from a different dataset"
        )
    for name in PROVENANCE_FIELDS:
        if meta.config.get(name) != getattr(cfg, name):
            raise RuntimeError(
                f"provenance mismatch: records were extracted with {name}="
                f"{meta.config.get(name)!r}, this config has {getattr(cfg, name)!r}"
            )


def check_selection_provenance(selection_path: str, prep: Prepared) -> None:
    """Refuse a selection whose meta names a different dataset."""
    if _names_another_dataset(os.path.splitext(selection_path)[0] + "_meta.json", prep):
        raise RuntimeError("provenance mismatch: selection belongs to a different dataset")


# ---------------------------------------------------------------------------
# selection


def _select_step(cfg: RunConfig, prep: Prepared, name: str, fraction: float,
                 candidates: list[GradientRecord], records_path: str, records_hash: str,
                 stem: str) -> tuple[SelectionResult, str, str]:
    """The selection step of select and of every compare row: rank
    candidates by one of SELECTION_NAMES, then write selection_<stem>.jsonl
    (rank order, one line per selected instance) and selection_<stem>_meta.json
    into cfg.out_dir and record both in its manifest. rds/less/ppl read the
    checkpoint next to the records. Returns the result, the selection file
    name and its sha256."""
    ref_model = (load_model(prep, extract_sibling(records_path, EXTRACT_MODEL_FILE))
                 if name in MODEL_NAMES else None)
    result = run_selection_by_name(name, fraction, candidates, prep, cfg, ref_model)
    g_grads = {r.instance_id: r.g_grads for r in candidates}
    sel_file = f"selection_{stem}.jsonl"
    with open_atomic(os.path.join(cfg.out_dir, sel_file)) as fh:
        for rank, inst_id in enumerate(result.ordered_ids, start=1):
            f_val = result.f_values.get(inst_id)
            fh.write(f'{{"id": {json.dumps(inst_id)}, "rank": {rank}, '
                     f'"f_value": {"null" if f_val is None else _fmt(f_val)}, '
                     f'"g_grads": {_fmt(g_grads[inst_id])}}}\n')
    meta = {
        "strategy": result.strategy,
        "fraction_percent": result.fraction_percent,
        "n_selected": len(result.selected_ids),
        "bandwidth": result.bandwidth,
        "tie_break": TIE_BREAK,
        "seed": result.seed,
        "stratum_counts": result.stratum_counts,
        "records_file": os.path.basename(records_path),
        "records_hash": records_hash,
        "dataset_hash": prep.dataset_hash,
    }
    meta_file = f"selection_{stem}_meta.json"
    write_json(os.path.join(cfg.out_dir, meta_file), meta)
    return result, sel_file, write_manifest(cfg.out_dir, [sel_file, meta_file])[sel_file]


def _check_selections(names, fractions) -> None:
    """Refuse a name outside SELECTION_NAMES or a percentage outside
    (0, 100], before any records are read."""
    for name in names:
        if name not in SELECTION_NAMES:
            raise ValueError(f"unknown strategy {name!r}")
    for frac in fractions:
        if not 0.0 < frac <= 100.0:
            raise ValueError("fraction must lie in (0, 100]")


def run_select(cfg: RunConfig, records_path: str, name: str, fraction: float) -> SelectionResult:
    """Selection of fraction percent of a gradient-record file, every record
    a candidate, by one of SELECTION_NAMES."""
    _check_selections([name], [fraction])
    prep = prepare(cfg)
    records_path, records, records_hash = _resolve_records(cfg, prep, records_path)
    return _select_step(cfg, prep, name, fraction, records, records_path, records_hash,
                        name)[0]


def run_baseline(cfg: RunConfig, name: str, records_path: str, fraction: float) -> SelectionResult:
    """run_select with the name first. It stays because the benchmark's
    stages_4k workload (perfbench/workloads.py) calls
    run_baseline(cfg, name, records, 50.0) positionally; ROADMAP item 2's
    follow-on deletes it."""
    return run_select(cfg, records_path, name, fraction)


def run_selection_by_name(
    name: str,
    fraction: float,
    candidates: list[GradientRecord],
    prep: Prepared,
    cfg: RunConfig,
    ref_model: Model | None,
) -> SelectionResult:
    """Rank the candidate records by a density strategy or a baseline, then
    keep the first subset_size of that order: the one place a ranking becomes
    a selection. The result carries the stratum mix of what it selected.
    ref_model is the checkpoint rds/less/ppl read."""
    cand_ids = [r.instance_id for r in candidates]
    query_ids = prep.split.query
    if name in QUERY_NAMES and not query_ids:
        raise ValueError(f"{name} needs a nonempty query split")
    seed = bandwidth = None
    if name in STRATEGIES:
        order, scores, bandwidth = select_strategy(candidates, name, fraction)
    elif name == "random":
        seed = cfg.seed
        order, scores = baselines.select_random(len(cand_ids), seed), np.ones(len(cand_ids))
    elif name in ("bm25", "dsir"):
        cands, queries = ((split_words(i.prompt + " " + i.response)
                           for i in prep.instances_for(ids)) for ids in (cand_ids, query_ids))
        if name == "bm25":
            scores = baselines.bm25_scores(cands, queries)
            order = descending_order(scores)
        else:
            seed = cfg.seed
            scores = baselines.dsir_log_weights(cands, queries)
            order = baselines.dsir_order(scores, seed)
    elif name == "ppl":
        order, scores, bandwidth = density_order(
            baselines.sequence_perplexities(ref_model, prep.seqs_for(cand_ids)))
    else:
        feats, score = ((baselines.representation_features, baselines.rds_scores)
                        if name == "rds" else (baselines.gradient_features, baselines.less_scores))
        (cands, at), (queries, q_at) = (feats(ref_model, prep.seqs_for(ids))
                                        for ids in (cand_ids, query_ids))
        # each distinct candidate row is scored once and its repeats take that
        # score; the queries keep their repeats, which weight rds's mean
        scores = score(cands, queries[q_at])[at]
        order = descending_order(scores)
    result = selection_from_order(name, fraction, cand_ids, order, scores, seed, bandwidth)
    strata = Counter(prep.strata.get(i) or "unlabeled" for i in result.selected_ids)
    return replace(result, stratum_counts=dict(strata))


@dataclass(frozen=True)
class _SelectionLine:
    id: str


def read_selection_ids(path: str) -> list[str]:
    """The string `id` of each line of a selection file, in file order."""
    ids = [_from_json(_SelectionLine, obj, f"line {lineno}", ignore_unknown=True).id
           for lineno, obj in _json_lines(path)]
    if not ids:
        raise ValueError(f"empty selection file: {path}")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate ids in selection file: {path}")
    return ids


# ---------------------------------------------------------------------------
# fine-tuning and evaluation


def fine_tune(
    cfg: RunConfig,
    prep: Prepared,
    train_ids: list[str],
    on_epoch=None,
) -> tuple[Model, list[float]]:
    """Fresh model from the configured init seed, trained on the given ids
    for cfg.epochs epochs; returns it with its per-epoch mean losses.
    on_epoch(model) runs after each epoch.

    Subsets are always presented in sorted-id order so that an identity
    selection reproduces full-data training exactly.
    """
    seqs = prep.seqs_for(sorted(train_ids))
    model = init_model(cfg.model_config(prep.tok.vocab_size))
    trainer = Trainer(model, cfg.train_hyper(),
                      total_update_steps(len(seqs), cfg.batch_size, cfg.epochs))
    trainer.run(seqs, on_epoch=on_epoch)
    return model, trainer.epoch_losses


def evaluate_model(model: Model, prep: Prepared, ids) -> dict:
    """Greedy-decode the prompts of ids and score against their responses.

    Response-only training never teaches the stop token, so decoding uses a
    budget equal to the reference length; clipped precision then measures
    content fidelity uniformly across strategies.
    """
    tok = prep.tok
    seqs = prep.seqs_for(ids)
    refs = [[tok.id_to_token[t] for t in seq.response] for seq in seqs]
    outs = greedy_decode(model, [list(seq.decode_prompt) for seq in seqs], list(map(len, refs)))
    cands = [[tok.id_to_token[t] for t in out] for out in outs]
    return {
        "bleu": bleu(cands, refs),
        "rouge_l": rouge_report(cands, refs),
        "meteor": meteor_report(cands, refs),
    }


METRIC_KEYS = ("bleu", "rouge_l", "meteor")


def run_train(cfg: RunConfig, selection_path: str | None = None) -> dict:
    """Fine-tune a fresh model on a selection (or the full training pool)."""
    prep = prepare(cfg)
    pool = set(prep.split.train)
    if selection_path is None:
        train_ids = sorted(pool)
        selection_hash = None
    else:
        check_selection_provenance(selection_path, prep)
        ids = read_selection_ids(selection_path)
        unknown = [i for i in ids if i not in prep.by_id]
        if unknown:
            raise ValueError(f"selection names {len(unknown)} ids not in the dataset: "
                             + ", ".join(unknown[:3]))
        train_ids = sorted(i for i in ids if i in pool)
        if not train_ids:
            raise ValueError("selection contains no training-pool instances")
        selection_hash = sha256_file(selection_path)
    t0 = time.perf_counter()
    model, epoch_losses = fine_tune(cfg, prep, train_ids)
    ckpt_file = "model.json"
    save_checkpoint(model, os.path.join(cfg.out_dir, ckpt_file))
    meta = {
        "config": cfg.public_dict(),
        "dataset_hash": prep.dataset_hash,
        "selection_hash": selection_hash,
        "n_train": len(train_ids),
        "epoch_losses": epoch_losses,
    }
    meta_file = "train_meta.json"
    write_json(os.path.join(cfg.out_dir, meta_file), meta)
    write_manifest(cfg.out_dir, [ckpt_file, meta_file])
    write_json(
        os.path.join(cfg.out_dir, TIMINGS_FILE),
        {"train_seconds": time.perf_counter() - t0},
    )
    return meta


def _require_test_split(cfg: RunConfig, prep: Prepared) -> None:
    if not prep.split.test:
        raise ValueError(f"the test split is empty (test_fraction={cfg.test_fraction:g}); "
                         "raise test_fraction to evaluate")


def run_eval(cfg: RunConfig, model_path: str) -> dict:
    """Score a checkpoint on the held-out test split."""
    prep = prepare(cfg)
    _require_test_split(cfg, prep)
    metrics = evaluate_model(load_model(prep, model_path), prep, prep.split.test)
    out = {
        "metrics": metrics,
        "n_test": len(prep.split.test),
        "dataset_hash": prep.dataset_hash,
        "model_file": os.path.basename(model_path),
        "model_hash": sha256_file(model_path),
    }
    write_json(os.path.join(cfg.out_dir, "eval.json"), out)
    write_manifest(cfg.out_dir, ["eval.json"])
    return out


# ---------------------------------------------------------------------------
# pilot deciles


def run_pilot(cfg: RunConfig, records_path: str) -> dict:
    """Decile report over gradient records, CSV for plotting; losses are
    measured under the checkpoint the records were extracted with."""
    prep = prepare(cfg)
    records_path, records, records_hash = _resolve_records(cfg, prep, records_path)
    model = load_model(prep, extract_sibling(records_path, EXTRACT_MODEL_FILE))
    report = pilot_deciles(records, prep.seqs, model)
    with open_atomic(os.path.join(cfg.out_dir, "deciles.csv")) as fh:
        fh.write(report.to_csv())
    meta = {
        "loss_gradient_spearman": report.loss_gradient_spearman,
        "mean_gradient": list(report.mean_gradient),
        "records_hash": records_hash,
        "dataset_hash": prep.dataset_hash,
    }
    write_json(os.path.join(cfg.out_dir, "pilot_meta.json"), meta)
    write_manifest(cfg.out_dir, ["deciles.csv", "pilot_meta.json"])
    return meta


# ---------------------------------------------------------------------------
# comparison experiment


@dataclass
class ExperimentReport:
    """Strategy-vs-metric table plus provenance, as report.json holds it."""

    rows: list[dict]
    dataset_hash: str
    records_hash: str
    split_sizes: dict[str, int]


def gradient_percentile_summary(
    selected_ids, pool_records: list[GradientRecord]
) -> dict[str, float]:
    """Where the selected g_grads sit inside the pool distribution (0-100)."""
    values = np.array([r.g_grads for r in pool_records])
    order = np.sort(values)
    chosen = set(selected_ids)
    picked = np.array([r.g_grads for r in pool_records if r.instance_id in chosen])
    lo = np.searchsorted(order, picked, side="left")
    hi = np.searchsorted(order, picked, side="right")
    pct = 100.0 * (lo + hi) / (2.0 * values.size)
    return {
        "min": float(pct.min()),
        "p25": float(np.percentile(pct, 25)),
        "p50": float(np.percentile(pct, 50)),
        "p75": float(np.percentile(pct, 75)),
        "max": float(pct.max()),
    }


def _train_and_eval_row(name: str, cfg: RunConfig, prep: Prepared, train_ids) -> dict:
    """Fine-tune on train_ids, scoring the test split after every epoch; the
    row's metrics are the means over epochs."""
    per_epoch: list[dict] = []
    fine_tune(cfg, prep, train_ids,
              on_epoch=lambda model: per_epoch.append(
                  evaluate_model(model, prep, prep.split.test)))
    row = {"row": name, "n_train": len(train_ids), "per_epoch": per_epoch, "error": None}
    for key in METRIC_KEYS:
        row[key] = float(np.mean([m[key] for m in per_epoch]))
    return row


def run_compare(
    cfg: RunConfig,
    strategies: list[str],
    fractions: list[float],
    records_path: str | None = None,
) -> ExperimentReport:
    """Strategy sweep: base row, full-data row, one row per (strategy, N).

    Fine-tuning always starts from a fresh model at the configured init seed;
    every trained row runs cfg.epochs epochs, and its metrics are the means
    over them.
    """
    t_start = time.perf_counter()
    _check_selections(strategies, fractions)
    row_names = [f"{name}@{frac:g}" for name in strategies for frac in fractions]
    for i, row_name in enumerate(row_names):
        if row_name in row_names[:i]:
            raise ValueError(f"compare row {row_name} is repeated")
    prep = prepare(cfg)
    _require_test_split(cfg, prep)

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    records_path, records, records_hash = _resolve_records(cfg, prep, records_path)
    timings["extract"] = time.perf_counter() - t0

    pool = set(prep.split.train)
    pool_records = [r for r in records if r.instance_id in pool]
    rows: list[dict] = []

    t0 = time.perf_counter()
    base_model = init_model(cfg.model_config(prep.tok.vocab_size))
    rows.append({"row": "base", "n_train": 0, "per_epoch": [], "error": None,
                 **evaluate_model(base_model, prep, prep.split.test)})
    timings["base"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rows.append(_train_and_eval_row("all", cfg, prep, sorted(pool)))
    timings["all"] = time.perf_counter() - t0

    for name in strategies:
        for frac in fractions:
            row_name = f"{name}@{frac:g}"
            t0 = time.perf_counter()
            try:
                result, sel_file, sel_hash = _select_step(
                    cfg, prep, name, frac, pool_records, records_path, records_hash,
                    f"{name}_{frac:g}")
                row = _train_and_eval_row(row_name, cfg, prep, list(result.selected_ids))
                row["strategy"] = name
                row["fraction_percent"] = frac
                row["stratum_counts"] = result.stratum_counts
                row["gradient_percentiles"] = gradient_percentile_summary(
                    result.selected_ids, pool_records
                )
                row["selection_file"] = sel_file
                row["selection_hash"] = sel_hash
            except (ValueError, RuntimeError) as exc:
                row = {"row": row_name, "strategy": name, "fraction_percent": frac,
                       "error": str(exc)}
            rows.append(row)
            timings[row_name] = time.perf_counter() - t0

    timings["total"] = time.perf_counter() - t_start
    report = ExperimentReport(
        rows=rows,
        dataset_hash=prep.dataset_hash,
        records_hash=records_hash,
        split_sizes={name: len(ids) for name, ids in asdict(prep.split).items()},
    )
    write_json(os.path.join(cfg.out_dir, "report.json"), asdict(report))
    write_json(os.path.join(cfg.out_dir, TIMINGS_FILE), timings)
    write_manifest(cfg.out_dir, ["report.json"])
    return report


# ---------------------------------------------------------------------------
# synthetic corpus generation


def run_synth(out_dir: str, n_domain: int, n_noise: int, n_trivial: int, seed: int) -> str:
    """Write a labeled synthetic corpus and its manifest; returns the path."""
    instances = synth_corpus(SynthSpec(n_domain, n_noise, n_trivial, seed))
    path = os.path.join(out_dir, "dataset.jsonl")
    save_dataset(instances, path)
    write_manifest(out_dir, ["dataset.jsonl"])
    return path
