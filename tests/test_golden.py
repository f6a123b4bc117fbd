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
    'compare/extract_meta.json': '213ba124d68cc6946bfaa7c8b3e89339eefc6f7e37c3190c0d01101784ef1e68',
    'compare/extract_model.json': '47120ea1d421ea7556cf0bae36dec1e92e8797d511e96ec2b74345d1e5812f87',
    'compare/records.jsonl': '40e61c4647fdf773e5a11b102cf059f937adf8b0214afc33c1f44b37f2156f95',
    'compare/report.json': '324e7d43cd1903973991262f1c870fec8f5282fa45f0a1d004251b315d108fb5',
    'compare/selection_grads_50.jsonl': 'e0e11ae6bf4d67f8c6a1f845d0934756f2180d5c78e751a14d638b6bf99436bb',
    'compare/selection_grads_50_meta.json': 'f01e7ef1ad56dc312ff5d0c6fd573ef00ee2b0ceafdfee9e6a11b2b92a1e02d2',
    'compare/selection_random_50.jsonl': 'f0c2b6f19db6156d9dea30c2b0d3aff10af11a0ab74382ac9a37383d189aa167',
    'compare/selection_random_50_meta.json': '82894ffaf4a35fd945d12039cfe176bb85294344075783d1778389f4e399fcd1',
    'corpus/dataset.jsonl': '8c389d4384396df64b9b81569ae60323edab6a4d34e0519dff217f65ace41e5f',
    'frozen/extract_meta.json': '8df99b60119d3324c99e4e50ac64894ea46d383da4074f83ade5710e76f25e1b',
    'frozen/extract_model.json': '47120ea1d421ea7556cf0bae36dec1e92e8797d511e96ec2b74345d1e5812f87',
    'frozen/records.jsonl': '40e61c4647fdf773e5a11b102cf059f937adf8b0214afc33c1f44b37f2156f95',
    'frozen/selection_bm25.jsonl': 'd86dd10503d6d1aaa48dc5bc9c61444f415130f207e15c786a008dc98d8b84be',
    'frozen/selection_bm25_meta.json': '37aee20a9dc388865ff0276928a43201e790c577cfb4fdef59639b22163e7bcf',
    'frozen/selection_dsir.jsonl': 'f921667418990221b484e16d4f0edc8cf781c370d3a3a5cbbfa780a6ab25e66e',
    'frozen/selection_dsir_meta.json': '113d823059266dca256b30f7cbef6593aeaea630fcefe34ca55efbb14cb0f7d1',
    'frozen/selection_emb_only.jsonl': 'a393212a195486aaef35a04816c043aafe59905541fafc0115b589c53bdc9b8e',
    'frozen/selection_emb_only_meta.json': 'ed9512ec82ca497d5b793fb8891290a3cfadec1e67c4d8f81b53a43b4f468a12',
    'frozen/selection_grads.jsonl': '817d71b02da7d28fa90eef28cb58e1c55ae07abf11ae7dbc177f5348350ed73a',
    'frozen/selection_grads_meta.json': '603540a59f294467d7e31c75ea89fa5491407be856f7dddf63f5676da8790eca',
    'frozen/selection_less.jsonl': '85783d8737e2891f4554dc3d2217cd567a4be4b559df4318b3e15c750fc6eeeb',
    'frozen/selection_less_meta.json': 'b13707af96a49664e379affee93fbc42fca09c540f0ffbb927e12bcbf135fc3b',
    'frozen/selection_lm_only.jsonl': '4809672d79fd4cade6a6d0792f02e55a58f6b3136c65c906866a1676279bcdfe',
    'frozen/selection_lm_only_meta.json': '1284d1c09168fed39546214b8ab4710e7456ea4dd0266db5d419948d1244293a',
    'frozen/selection_mid_grad.jsonl': '89210abd56e20faa17a86a99187a7513c66956f5d0943146496fd0e98347e867',
    'frozen/selection_mid_grad_meta.json': '8bc197e915abdb50a85ed796a0b970bfe6109bd49d49be1a4694b4b841a1d6cf',
    'frozen/selection_ppl.jsonl': '16c4f32d2e6d3f1cedec925e918f4ad8c0b176ac20e7c156f3a5751d1e4dd6be',
    'frozen/selection_ppl_meta.json': '52a9a0233ff7369e582f757a67f3716f129e382eeeaecbbf87d98031ed8e7d0b',
    'frozen/selection_random.jsonl': '326a70e7ca6a72bdf11757feb9b1de8888fa06b97eac7bc6d9188359b565e0f0',
    'frozen/selection_random_meta.json': '1c16926ff0ea3d15128a2cc5dc237e031b3ae127b1d5d32019adf080c6254c14',
    'frozen/selection_rds.jsonl': 'f381dbe9dac1075e24be421c9d40601b2f2edf3c13c5ff1913d034902833c28a',
    'frozen/selection_rds_meta.json': '1e81e5ec50a1d11385a385e92a64d9d6fe13f84b87702d1b93932b34078262d6',
    'frozen/selection_tail_grad.jsonl': 'af9d40a6eb32c6447429f2c8d21a6dd64cfe097f2d918495067e5ab7ec4a6db3',
    'frozen/selection_tail_grad_meta.json': '1b7a8a3b11e06866be6a0a9012068e20114de8a4b041042b258358e7751770d5',
    'frozen/selection_top_grad.jsonl': 'a875ce883db9fd889e6ad86c2b367e35ef2864632069915b6f0ed04edd5bc763',
    'frozen/selection_top_grad_meta.json': '7116c7277ef78712a50c233c7991c5d88e8e236aef6a5c5c18d825912f8f07ea',
    'frozen/selection_weight.jsonl': 'a4121d5f7c06684b3191df9fa1b755838b8c0a0a844b7b49c3a7faad5c875cfa',
    'frozen/selection_weight_meta.json': 'e768b6310342bfdb825b9cf7ac893d6bcd82dd624046be923748e65299e7e9e6',
    'frozen/selection_weightr.jsonl': 'e41f75071cdbab573a9132d06fad4c82f865aface02ebf49ee99b35d1160e9e7',
    'frozen/selection_weightr_meta.json': '9f1eb7df80224821e38222fee17c495f47f7577612dbceda04a910075c714eb7',
    'online/eval.json': 'f25d73ed0bff2a6ece840234792fd9a3faa8bc72b37e8f7bd6298445fb6be92c',
    'online/extract_meta.json': '46c10df53d7fdd11f8dbbd256009c581b714688792385116e4eddc254afc36c4',
    'online/extract_model.json': '47120ea1d421ea7556cf0bae36dec1e92e8797d511e96ec2b74345d1e5812f87',
    'online/model.json': '2bd6b7c4df2c59eeda155fc81a79f85947975f4680d0bab123bc96cc7050cfac',
    'online/records.jsonl': 'e7a48d40bc88a74be7708c4e4f4e851be01bb878e8dedc7779a609230c5b5fab',
    'online/train_meta.json': '59632da7e57e2b416e6a4aee3c9c9636d2da0d888f2014d5c2483969f5eabb2f',
    'pilot/deciles.csv': '14674fceeeea326515467e1b5d5459850e425f09f8ba6322c586381404aaab54',
    'pilot/pilot_meta.json': 'd4f265df434ae6a5a8fba273074ca64e680af122cb8d62bc31202040c897e9eb',
    'train/model.json': 'ad08249bcb4bac5b14484481f91976b9afe03b56844074ebad04115c8a326e93',
    'train/train_meta.json': '3092de52b8afc9f36bd3bc776a22c40ddbe4c62a420f8bdd1c050a669900b557',
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
