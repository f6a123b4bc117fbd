"""Byte-identity of a small end-to-end run: every hashed artifact is pinned.

The run covers frozen and online extraction, all 8 density strategies, all
6 baselines, train (full pool and from a selection), eval, pilot and
`compare grads,random @50` at 2 epochs, at the `test_pipeline._cfg` scale
(90 instances, 30 warmup steps). Each command's `manifest.json` hashes are
checked against GOLDEN. The run uses relative paths from a temporary working
directory, because metas echo the dataset path.

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
    BASELINE_NAMES,
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
    'compare/extract_meta.json': 'cbc96df55f76c1192d931aba1f83220834e3cc7465f7831b84c9a1a9ef72ffa3',
    'compare/extract_model.json': '95114faa0eadc127acb6a03500c16e3dadde335ff7049fbeb5649fe2f311a370',
    'compare/records.jsonl': '40148dca72ee21589bddb134c8fd2f3f3108a1aa4414386d82dcacd148fc7d32',
    'compare/report.json': 'a2e7241f554f99b4501c56775423532750b603e0d6125c76f78287fd0934974d',
    'compare/selection_grads_50.jsonl': '1af8c0f48fcf271e49f2cf08a4c5dbed2cc50eb6a7f58d67c574a23aacaecfdd',
    'compare/selection_grads_50_meta.json': '90ebdd05e4e1fb5f933ed967a2fa6af9fe3a42810ef66ba01531c9cb65258af0',
    'compare/selection_random_50.jsonl': 'c6d994d0820e1468435baf4920cb6936d54e7190e4957de2b7c41d2f1bf2721b',
    'compare/selection_random_50_meta.json': '6b3689f6f1f942ac5ce33a4acc07df21c9565eca53343f4683f18819eb816dc6',
    'corpus/dataset.jsonl': '8c389d4384396df64b9b81569ae60323edab6a4d34e0519dff217f65ace41e5f',
    'frozen/extract_meta.json': '88f935ed2ce6db3a6df28891b6847c9e68ee577dd4caf2fe160d19dcd17c76a5',
    'frozen/extract_model.json': '95114faa0eadc127acb6a03500c16e3dadde335ff7049fbeb5649fe2f311a370',
    'frozen/records.jsonl': '40148dca72ee21589bddb134c8fd2f3f3108a1aa4414386d82dcacd148fc7d32',
    'frozen/selection_bm25.jsonl': '77578debbd06c61fbee0beee65062f41d5738c67b252a775b8b14aa694f48021',
    'frozen/selection_bm25_meta.json': 'f93d5b5879f294dcfa42358f702f4425ba93b8ac4185d41a21b3705d90a020b6',
    'frozen/selection_dsir.jsonl': '9c8fa3cb521fc0ed88e3b81727c9ee2263c36dc90868b7a38f99b2ed7bb39a4f',
    'frozen/selection_dsir_meta.json': '39f44a1552649f8776b16a37c3c68e72e6e7c1f8e88a6106d3dbdb6ad5813069',
    'frozen/selection_emb_only.jsonl': '3c4926e9191028f6cf19ae02e04420c746d1684dcce4ab908e0311a1fd8102e5',
    'frozen/selection_emb_only_meta.json': 'f7ddc5e07b40ea13a6e1379538d3c04bfb4907687f5bf2f4b29b49b2beb6ab86',
    'frozen/selection_grads.jsonl': 'dd8ea87dfa5cec9098bc4dba56d796956a48aaacebfb7bbf7b07285797fd0f1f',
    'frozen/selection_grads_meta.json': '9c70264ddbabf014e1ee38be96047b97d01d0c8a69f13955781f59182124bc52',
    'frozen/selection_less.jsonl': 'fe6bc7d7c399342032ddf7bdb2347e41683a0edf9a5448363e4389b5c156ef40',
    'frozen/selection_less_meta.json': '817209e5b975e2ecd89a60408290ba6bc353bc567d6e544a883b3a504d29f679',
    'frozen/selection_lm_only.jsonl': 'edbf0c524c45b98e4a795849debbb9e609d4d0897b4ac1a9fbeffac7c49925ee',
    'frozen/selection_lm_only_meta.json': 'ccb7f628fb19eb6d12a4e8327b0897723c7388f818f85d8baa44270b12b13c41',
    'frozen/selection_mid_grad.jsonl': 'b20a1740eb8a34f412bce6a15e8f509ca189c726d0c785043ba795678d8a9ab5',
    'frozen/selection_mid_grad_meta.json': '061531aa9c0779c3281ef1283ef5318891af3f7c52a19f34fe7ea3b345878ad0',
    'frozen/selection_ppl.jsonl': '4042fcce5874356216c6ab97f1f93ea7af152d7b6f29aa1f06418744508be790',
    'frozen/selection_ppl_meta.json': 'bd7e4c6e44461d4496ba8f50aed3cc866cb207c3cda9e5829fad92fc2acdd79e',
    'frozen/selection_random.jsonl': 'e0a379ca57531bb821b3e1fa4764d9c404c5d1af16610d8c2ea79fbaca19101a',
    'frozen/selection_random_meta.json': '4330f9e2166fe71a8ab525cd7cde05e11a4663a1146090758cba5afa985b2909',
    'frozen/selection_rds.jsonl': 'a27bf77cf5cfc8e0ffc885bcaa4ba882badfffee09adf5361924d27c915f93f5',
    'frozen/selection_rds_meta.json': '11363d62d69ab5457f07276e8b352d9a5be3fe4e97362f6a875d44d1316262ef',
    'frozen/selection_tail_grad.jsonl': '91c4071e46e1a28d0c6dd22d2b72c4b2de7cc38a213e64b7db270bbe46c36a70',
    'frozen/selection_tail_grad_meta.json': 'e3210670ea7ecaf457dfcb84ff9db6938cf2e15570effb3e60ea2466e43658ca',
    'frozen/selection_top_grad.jsonl': '948bc7704e7a2313dc702ad590401d0dcba0c9e50dd394a78bc5695e47a526db',
    'frozen/selection_top_grad_meta.json': '4b24211a735857af8fa00a211fc05eaacef67e32b8d4e051f6d49618a771c73f',
    'frozen/selection_weight.jsonl': '81246b6180fc18e02665289c219aab0a8c68f3a67651fa38604d3929ae387935',
    'frozen/selection_weight_meta.json': 'c90b7f4845ccc79f7e7c485a703ae718a38a8fcbcdca413d3225acf4f08f80bc',
    'frozen/selection_weightr.jsonl': 'df0dc8464be1a7bfb060bfb054a2fb9f94cba504bae43f83f5483672b1ff3ec4',
    'frozen/selection_weightr_meta.json': '8a70a15a0118addf9f888b277259d4fb84d32e7196f3c7dffa45ed7d4ae73d5f',
    'online/eval.json': 'e746e5f64b668b7ce235f5687e868ae02e42c186284a9ec85cefbcc4734cd0ee',
    'online/extract_meta.json': 'f553f9048b08181e278f1f761da6ec1d8d88c7919bf4329fe2b6cb494d906cfc',
    'online/extract_model.json': '95114faa0eadc127acb6a03500c16e3dadde335ff7049fbeb5649fe2f311a370',
    'online/model.json': '98c391e1c3ff54505d3184aa8ba6b26650a7eee332dc80bbb985d81c3079cc04',
    'online/records.jsonl': '55f08339b29111585cc5ff4a7e168089db0f01df04158a75d2d8e0cb51c309b8',
    'online/train_meta.json': 'b3892af335f7ab2d121d9182642f05f86d0be096b00dd62a9cda8539bc52728e',
    'pilot/deciles.csv': '96e3c9b1a50735037db5e8be7ee747381fb824711bec4375016fd286c6c0646b',
    'pilot/pilot_meta.json': 'ffc54cf201980c1a3b094e167da2e7a7e24ef2afc0dabf752018f42a478b1db8',
    'train/model.json': 'a225a2caee1293950e63296e51be16a479b846d0ad742086a46bfc5f84f800c8',
    'train/train_meta.json': '66dc147ec1dce0db0feef07d7e254643f698b4f8f68f54797087c174ad9e18c8',
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
                       d_model=16, warmup_steps=30, epochs=1)
    records = "frozen/records.jsonl"
    run_extract(frozen)
    for name in STRATEGIES:
        run_select(frozen, records, name, 50.0)
    for name in BASELINE_NAMES:
        run_baseline(frozen, name, records, 50.0)
    run_train(replace(frozen, out_dir="train"), "frozen/selection_grads.jsonl")
    run_pilot(replace(frozen, out_dir="pilot"), records)

    online = replace(frozen, mode="online", out_dir="online")
    run_extract(online)
    run_train(online)
    run_eval(online, "online/model.json")

    run_compare(replace(frozen, out_dir="compare", epochs=2), ["grads", "random"], [50.0])

    return _manifest_hashes(["corpus", "frozen", "train", "pilot", "online", "compare"])


def test_artifacts_match_pinned_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = _run_all()
    changed = sorted(name for name in GOLDEN.keys() | got.keys()
                     if GOLDEN.get(name) != got.get(name))
    # each changed or extra entry as a GOLDEN line, each missing one commented
    lines = "\n".join(f"    {name!r}: {got[name]!r}," if name in got
                      else f"    # {name!r}: not produced" for name in changed)
    assert not changed, (
        f"artifact bytes changed, {len(changed)} entries:\n{lines}\n"
        "A deliberate bit change re-pins GOLDEN and says why in CHANGES.md."
    )
