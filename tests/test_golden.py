"""Byte-identity of a small end-to-end run: every hashed artifact is pinned.

The run covers frozen and online extraction, all 8 density strategies, the
random, bm25 and dsir baselines, train (full pool and from a selection),
eval, pilot and `compare grads,random @50`, at the `test_pipeline._cfg`
scale (90 instances, 30 warmup steps). Each command's `manifest.json` hashes
are checked against GOLDEN. The run uses relative paths from a temporary
working directory, because metas echo the dataset path.

A change that moves one bit of training, extraction, selection or
evaluation fails here and names the file. A deliberate bit change re-pins
GOLDEN in the same change and says why in CHANGES.md.

The pinned bits depend on the OpenBLAS kernel and the CPU (matrix products
round by shape). GOLDEN was pinned on Linux x86_64 (Intel Xeon with AVX-512),
Python 3.11.7, numpy 2.4.6 with scipy-openblas 0.3.31 (DYNAMIC_ARCH),
glibc 2.36. The GELU's erf is gradsel's own (`tinylm/erf.py`), so the bits
do not depend on scipy; its tail takes exp from the C library. On other
hardware or libraries the test may fail; it does not skip, because a silent
pass would hide a real change.
"""

import json
import os
from dataclasses import replace

from gradsel.pipeline import (
    MANIFEST_FILE,
    RunConfig,
    run_baseline,
    run_compare,
    run_eval,
    run_extract,
    run_pilot,
    run_select,
    run_synth,
    run_train,
)
from gradsel.selector import STRATEGIES

GOLDEN = {
    'compare/extract_meta.json': '7bf1ccca6b6d1d49d0fecdc741a229359b07969f14e9b696187978b243481cdf',
    'compare/extract_model.json': '5672b2f96af925be4786af5ded23e993b4db3a85bdff6bea1dfc212757c4db77',
    'compare/records.jsonl': '0abaaf5afe2a7f70840041762bc5bb85c4dda6b9727bbd15a6b9fd846c6fb146',
    'compare/report.json': '52e7004ab5488791547ed7615317e362745efb2c4545eb825550dc26616f4c78',
    'compare/selection_grads_50.jsonl': '1af8c0f48fcf271e49f2cf08a4c5dbed2cc50eb6a7f58d67c574a23aacaecfdd',
    'compare/selection_grads_50_meta.json': '8b6e038124bad945ffecd2e24900430d335c610bd3447a91d0fff1ca11a56b49',
    'compare/selection_random_50.jsonl': 'c6d994d0820e1468435baf4920cb6936d54e7190e4957de2b7c41d2f1bf2721b',
    'compare/selection_random_50_meta.json': '804325d4e46772d13fd33aa397e267a2cca0b99616dce5595a894365482cd574',
    'corpus/dataset.jsonl': '8c389d4384396df64b9b81569ae60323edab6a4d34e0519dff217f65ace41e5f',
    'frozen/extract_meta.json': '7bf1ccca6b6d1d49d0fecdc741a229359b07969f14e9b696187978b243481cdf',
    'frozen/extract_model.json': '5672b2f96af925be4786af5ded23e993b4db3a85bdff6bea1dfc212757c4db77',
    'frozen/records.jsonl': '0abaaf5afe2a7f70840041762bc5bb85c4dda6b9727bbd15a6b9fd846c6fb146',
    'frozen/selection_bm25.jsonl': '77578debbd06c61fbee0beee65062f41d5738c67b252a775b8b14aa694f48021',
    'frozen/selection_bm25_meta.json': 'a898dc2af7d3e200f39500d2cf403f782e76e9a42acee4685513c179626ad8f8',
    'frozen/selection_dsir.jsonl': '9c8fa3cb521fc0ed88e3b81727c9ee2263c36dc90868b7a38f99b2ed7bb39a4f',
    'frozen/selection_dsir_meta.json': 'b91bec60db01a7be8f4b0fe158fee53f0edebe7f831f4b3ce8a72d841f7e70a0',
    'frozen/selection_emb_only.jsonl': '3c4926e9191028f6cf19ae02e04420c746d1684dcce4ab908e0311a1fd8102e5',
    'frozen/selection_emb_only_meta.json': '7b046bc356cef8cb7f02d5f3aecc8793ef6135607ed41df6876b536f7b772b14',
    'frozen/selection_grads.jsonl': 'dd8ea87dfa5cec9098bc4dba56d796956a48aaacebfb7bbf7b07285797fd0f1f',
    'frozen/selection_grads_meta.json': '19c76972fb73115ee205c626ee9a35994f115933b18c1da34873de0116d99063',
    'frozen/selection_lm_only.jsonl': 'edbf0c524c45b98e4a795849debbb9e609d4d0897b4ac1a9fbeffac7c49925ee',
    'frozen/selection_lm_only_meta.json': 'cc85256012d60b4abbc58a49564be90a0901e1cf1ba77750ad7a6cfa8beef22a',
    'frozen/selection_mid_grad.jsonl': 'b20a1740eb8a34f412bce6a15e8f509ca189c726d0c785043ba795678d8a9ab5',
    'frozen/selection_mid_grad_meta.json': 'c3d6e1c136365324ff3866ed5aed593b40bd980e3f0899ea601c44f188327fcb',
    'frozen/selection_random.jsonl': 'e0a379ca57531bb821b3e1fa4764d9c404c5d1af16610d8c2ea79fbaca19101a',
    'frozen/selection_random_meta.json': '58098ef95201fcad74f087a967c384986099e28e3c5965665529dd6fb78dfbdd',
    'frozen/selection_tail_grad.jsonl': '91c4071e46e1a28d0c6dd22d2b72c4b2de7cc38a213e64b7db270bbe46c36a70',
    'frozen/selection_tail_grad_meta.json': '6424dcf765bb46a4aee1fd31b93b2f2422d498fe7c785c74b9a886307c9c3914',
    'frozen/selection_top_grad.jsonl': '948bc7704e7a2313dc702ad590401d0dcba0c9e50dd394a78bc5695e47a526db',
    'frozen/selection_top_grad_meta.json': '79e2688a0749c85ede87449124f6710857eb2c603d15bb8644068d15609ff49d',
    'frozen/selection_weight.jsonl': '81246b6180fc18e02665289c219aab0a8c68f3a67651fa38604d3929ae387935',
    'frozen/selection_weight_meta.json': 'e9a10195956434ea45f7466eafb121075634003cf8d5d33c3ef51600cd43b046',
    'frozen/selection_weightr.jsonl': 'df0dc8464be1a7bfb060bfb054a2fb9f94cba504bae43f83f5483672b1ff3ec4',
    'frozen/selection_weightr_meta.json': 'f1fae962b127db90d238bafd10ce3a5993542a9195afb9c3ac5c909c9e77e20d',
    'online/eval.json': 'dbfa56ffec3fbbb4682f689f2fc2d1c89c2f4fe0e7bdf13a3e111a5cce0a23a6',
    'online/extract_meta.json': '0b3663407b78ced78d246a96e52d926937e39b853e4ae825433590a349736172',
    'online/extract_model.json': '823ec00de7ea60c302e570bcf3b047d900f9937dd9a5e0c7f828ce72c8655bb5',
    'online/model.json': 'dc50fd242a257a721b6619f57fa6e5e42338f3edc625a25a1de94574b37631ab',
    'online/records.jsonl': 'c097a9ef0f39bbf2b850052f35b0ca39a36c24f0cd06d35b94290babde964abd',
    'online/train_meta.json': 'cf452d0bf566ac751db88b379e6f1ac647892d09ddf2d1ced88756939ad6de2e',
    'pilot/deciles.csv': '96e3c9b1a50735037db5e8be7ee747381fb824711bec4375016fd286c6c0646b',
    'pilot/pilot_meta.json': '9ea867aec5d2475931134a722f1545ae978eba5f6674edd264f7603c9ac90421',
    'train/model.json': '649a136b8c56f53af91abb97f5636e1b3649f4efea4c50c913dd44d5ddf288ac',
    'train/train_meta.json': '940bad4ae747c8b0cd033ef79bf71d0edc7f987ab07cb06c2d43147472f19985',
}


def _manifest_hashes(out_dirs) -> dict[str, str]:
    hashes = {}
    for d in out_dirs:
        with open(os.path.join(d, MANIFEST_FILE), encoding="utf-8") as fh:
            for name, digest in json.load(fh)["files"].items():
                hashes[f"{d}/{name}"] = digest
    return hashes


def _run_all() -> dict[str, str]:
    """Every command of the pinned run, from the current directory."""
    run_synth("corpus", 60, 15, 15, seed=7)
    frozen = RunConfig(dataset="corpus/dataset.jsonl", out_dir="frozen", seed=7,
                       d_model=16, warmup_steps=30, epochs=1, compare_epochs=2)
    records = "frozen/records.jsonl"
    run_extract(frozen)
    for name in STRATEGIES:
        run_select(frozen, records, name, 50.0)
    for name in ("random", "bm25", "dsir"):
        run_baseline(frozen, name, records, 50.0)
    run_train(replace(frozen, out_dir="train"), "frozen/selection_grads.jsonl")
    run_pilot(replace(frozen, out_dir="pilot"), records)

    online = replace(frozen, mode="online", out_dir="online")
    run_extract(online)
    run_train(online)
    run_eval(online, "online/model.json")

    run_compare(replace(frozen, out_dir="compare"), ["grads", "random"], [50.0])

    return _manifest_hashes(["corpus", "frozen", "train", "pilot", "online", "compare"])


def test_artifacts_match_pinned_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _run_all()
    changed = sorted(name for name in GOLDEN.keys() | got.keys()
                     if GOLDEN.get(name) != got.get(name))
    assert not changed, (
        f"artifact bytes changed: {changed}. A deliberate bit change re-pins "
        "GOLDEN and says why in CHANGES.md."
    )
