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
glibc 2.36. The GELU is the tanh form and takes numpy's tanh, so the bits do
not depend on scipy, but they do depend on numpy's tanh and exp loops for
this CPU. They are the same with one OpenBLAS thread and with two. On other
hardware or libraries the test may fail; it does not skip, because a silent
pass would hide a real change.
"""

import json
import os
from dataclasses import replace

from gradsel.pipeline import (
    MANIFEST_FILE,
    SELECTION_NAMES,
    RunConfig,
    run_compare,
    run_eval,
    run_extract,
    run_pilot,
    run_select,
    run_synth,
    run_train,
)

GOLDEN = {
    'compare/extract_meta.json': 'ee5ebc4981912c5df83200f275db8ba17a69cb9c8b9d60eee6f145e0c666bebb',
    'compare/extract_model.json': 'c528b042e5c7d58949df65e44c85806b6ca1a4f0f05fd6d61d71f42da4282135',
    'compare/records.jsonl': 'cabf93eb28ecabd8582894e37a82614caaf709f07e777559bf7a3bfcfa7b6813',
    'compare/report.json': '39e5b755fa9eb729a67ec533df540690cb16f9d89893827ef9c80bbc0e23912c',
    'compare/selection_grads_50.jsonl': '3ba5fb568a7a55abf1db2924cae315b2cbb9f31908b78c470d929013970f8988',
    'compare/selection_grads_50_meta.json': '4f18cd9d65728c6f57ab6692e718c0b9a786ead717b4c7fe068b9edf85ecdd48',
    'compare/selection_random_50.jsonl': '68b0e129e1af9f8317ae8a09f7dd99b0c215e3a8391d7ebce9a952ada5fceb6f',
    'compare/selection_random_50_meta.json': '8e558f78eefa08d2368f7ee1a16103f294076eb6a844680a009f364345509f5b',
    'corpus/dataset.jsonl': '8c389d4384396df64b9b81569ae60323edab6a4d34e0519dff217f65ace41e5f',
    'frozen/extract_meta.json': '03cfd74ac1a26d87a2935f53a451f65e6bbffe59207e3f078e07abcb4b99fbc7',
    'frozen/extract_model.json': 'c528b042e5c7d58949df65e44c85806b6ca1a4f0f05fd6d61d71f42da4282135',
    'frozen/records.jsonl': 'cabf93eb28ecabd8582894e37a82614caaf709f07e777559bf7a3bfcfa7b6813',
    'frozen/selection_bm25.jsonl': '3dc0f53a1c4e8399d5302ee75ecfde6f27860579fdf910faff29bb582b88ff6c',
    'frozen/selection_bm25_meta.json': '4c116e94ea1ef12b82623d612306ca7c10b9a67b3eb1c33f426a61373744d949',
    'frozen/selection_dsir.jsonl': 'ddf51e6548cf2bef191101218c5fcdf4ea07ab576c40ca500e3f312c172e8314',
    'frozen/selection_dsir_meta.json': '0c5b92fc31e6180983f687de97b02c0e806ba58091d79614468e461856d25ce9',
    'frozen/selection_emb_only.jsonl': '480dd28f5b917bd340787a4f6dcba4d7c67ce6d4fa298d148e92c1fbdd357fe2',
    'frozen/selection_emb_only_meta.json': 'fb7085fc4a8c9a2d914aaefd13087cdb0fdfe598a8244510f757736c8d4bc8f9',
    'frozen/selection_grads.jsonl': '7e16e4c58973236bf23a1f57953448a8ef38026870404c61f4fd9beba9e83b4d',
    'frozen/selection_grads_meta.json': '3c2143d699fdbc492540c4b163f9199064728c84ee8b4e0a4814268c77bb3692',
    'frozen/selection_less.jsonl': '31d0cb98a2010f27e7635aab4093eecc30f044f4d775d1a4dacbd8b124ee87ff',
    'frozen/selection_less_meta.json': 'd28c6f8b6fa7b0485d0fb1a10f18656f47d19ae8a73ad357d7e7d6a655c8d462',
    'frozen/selection_lm_only.jsonl': 'ed7f4fc915eeb8f431cf25125c28654f554b7c6748b2c4763a0bed937383918f',
    'frozen/selection_lm_only_meta.json': 'c4461ee3d1428a5a64bef77d8c79ce66ff815f99e760f05888d4c4c3a24ec671',
    'frozen/selection_mid_grad.jsonl': 'c48ec024425ba00e455fc80ea8d414090245948a48252981bf51d6206866688a',
    'frozen/selection_mid_grad_meta.json': 'c206d491530b24f48f6fbfa4498ed04333d4a0acc6635ca8da7361f630f6c892',
    'frozen/selection_ppl.jsonl': 'fa47c66286afabdcfda4dd1360d960063883e831cb1fe36ed936f94cfe5f6692',
    'frozen/selection_ppl_meta.json': 'ab721762946053a4d42f507f98bb89dc0fcbba72919bc2d54740de5073f6fd45',
    'frozen/selection_random.jsonl': 'b760f5eb1aae0f089a65c334a3f44e663b3c2ca9a5e7aa9963cd86fef0735196',
    'frozen/selection_random_meta.json': '1399415145f301cd84607aaa6d7b13b0101eaece0d16361d5685902f503b1949',
    'frozen/selection_rds.jsonl': 'b3a7ac50c806cc8adf4299101c87428f890469f9e7836539f07dd7c7e81b0b07',
    'frozen/selection_rds_meta.json': '391f02e2a2265a5bda8ea0ef2545cedb7c8decc8b373657ac587c25dc50ba334',
    'frozen/selection_tail_grad.jsonl': '88d6525aadce8361f41d968d2e0fe21902a24d464bbba969f0fa998f5393b425',
    'frozen/selection_tail_grad_meta.json': '2a3eb63ef25d8620b48f70c8256ec3868e552fa019a719adc7d5d4c64a4b2ba5',
    'frozen/selection_top_grad.jsonl': '1407e1ad9f4529d08a048f8b3564d0165553faf3ce2a8a0ca1869d1982ebe178',
    'frozen/selection_top_grad_meta.json': 'a74d67d5529af3504485344a4f55f1143254689272ce34d3b830b5ec4dc46699',
    'frozen/selection_weight.jsonl': '93390edc7f203bc55d5b1aea0471da9ca60b502f1bf5eed926ff70ed5e06ee3f',
    'frozen/selection_weight_meta.json': 'a498d49432a2d4b0d4a3f5fec92eee1246106d3bef6aa6e6ec423947a88be860',
    'frozen/selection_weightr.jsonl': '47c58dca7272965a99e6720eb9ef9cd4a94f45024f71c1b7c4f6fbc7665e35b6',
    'frozen/selection_weightr_meta.json': '21161d3fb234f8966d0bc893347dd8c67b163ea3a08090b34319bf30071d8218',
    'online/eval.json': '16cf3fefa6bc56b13635faace5eb574cda0fdad3014705cb3ebc33c5621eb042',
    'online/extract_meta.json': 'cc084c8011341000a32da4109f868c9ff4541524db2e8d249f8ef0e5c6925d99',
    'online/extract_model.json': 'c528b042e5c7d58949df65e44c85806b6ca1a4f0f05fd6d61d71f42da4282135',
    'online/model.json': 'a0db3572cb0e7f08e9b72613c211ae72e5af1ce533a1f8d16c7b2f1f959f7d04',
    'online/records.jsonl': '100b8cddc3420d4dfb171a251a364a586e759940f757705d3d95b823d0babde9',
    'online/train_meta.json': '59632da7e57e2b416e6a4aee3c9c9636d2da0d888f2014d5c2483969f5eabb2f',
    'pilot/deciles.csv': 'eba4bd6bd735f2a95192feba6f44e1307f540bc53e7c99b345e99401b4956532',
    'pilot/pilot_meta.json': '7a56c37a994f60027e16a2c47e21bbdae2a7421da755ab83240509e6e7b4d21b',
    'train/model.json': '9f28f5eed72203207a3c65eafc183002ef6b2d82b6a4a29677ef43ad6be68d8b',
    'train/train_meta.json': 'a1059539add095d0ab8910dfe48858d821c63cb073cc866b891e3b6c3720d8b6',
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
    for name in SELECTION_NAMES:
        run_select(frozen, records, name, 50.0)
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
