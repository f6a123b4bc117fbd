"""Dataset ingestion, word-level tokenization, and synthetic corpus generation.

Instances are prompt/response pairs read from JSONL (instruction-tuning
schema: `instruction` + optional `input` -> prompt, `output` -> response).
Tokenization is deliberately word-level so per-token gradients stay
interpretable and the vocabulary stays small.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import sys
import typing
from collections import Counter
from dataclasses import MISSING, dataclass, fields

from .rng import ROLE_SYNTH, substream

STRATA = ("domain", "noise", "trivial", "unlabeled")

ROLE_SPECIAL = "special"
ROLE_PROMPT = "prompt"
ROLE_RESPONSE = "response"

_WORD_RE = re.compile(r"\w+|[^\w\s]")


def split_words(text: str) -> list[str]:
    """Lowercase and split into word tokens plus single punctuation marks."""
    return _WORD_RE.findall(text.lower())


@dataclass(frozen=True)
class Instance:
    """One training example; `stratum` is generator provenance when known."""

    id: str
    prompt: str
    response: str
    stratum: str | None = None


@dataclass(frozen=True)
class TokenSequence:
    """Encoded instance: token ids plus a same-length per-token role tag."""

    instance_id: str
    tokens: tuple[int, ...]
    roles: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)


class Tokenizer:
    """Word-level tokenizer with a frequency-capped vocabulary.

    Ids 0..4 are the special tokens PAD, BOS, EOS, SEP, UNK; words follow in
    descending frequency order with lexicographic tie-breaks.
    """

    SPECIALS = ("<pad>", "<bos>", "<eos>", "<sep>", "<unk>")

    def __init__(self, word_order: list[str]):
        self.token_to_id: dict[str, int] = {}
        for i, tok in enumerate(self.SPECIALS):
            self.token_to_id[tok] = i
        for w in word_order:
            self.token_to_id[w] = len(self.token_to_id)
        self.id_to_token = {i: t for t, i in self.token_to_id.items()}

    pad = 0
    bos = 1
    eos = 2
    sep = 3
    unk = 4

    @property
    def vocab_size(self) -> int:
        return len(self.token_to_id)

    def encode_words(self, text: str) -> list[int]:
        return [self.token_to_id.get(w, self.unk) for w in split_words(text)]


@contextlib.contextmanager
def open_atomic(path: str):
    """A UTF-8 text stream that replaces the file at path when the block ends.

    The text goes to a temporary file in the same directory (made if
    missing), which os.replace moves over path once the block has finished.
    A block that raises removes the temporary file and leaves path as it
    was, so no reader (nor a manifest hash) ever meets a half-written artifact.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _json_lines(path: str, data: bytes | None = None, whole: bool = False):
    """(lineno, value) per nonblank line of a UTF-8 JSONL file, or for a whole
    JSON file; a line that is not UTF-8 JSON, or nests too deeply, raises
    ValueError naming it. Callers pass the bytes they hashed as `data`."""
    with open(path, "rb") if data is None else io.BytesIO(data) as fh:
        for lineno, line in enumerate([fh.read()] if whole else fh, start=1):
            if whole or line.strip():
                try:
                    value = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                    raise ValueError(f"line {getattr(exc, 'lineno', 1) if whole else lineno}: "
                                     f"malformed JSON ({getattr(exc, 'msg', exc)})") from exc
                yield lineno, value


_JSON_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
               dict: "an object", type(None): "null"}


@functools.cache
def _json_fields(cls) -> tuple[dict, tuple]:
    """({field: (accepted types, their names)}, required fields) of dataclass cls."""
    hints, types = typing.get_type_hints(cls), {}
    for f in fields(cls):
        wanted = typing.get_args(hints[f.name]) or (hints[f.name],)
        types[f.name] = (wanted + (int,) * (float in wanted),
                         " or ".join(map(_JSON_NAMES.get, wanted)))
    return types, tuple(f.name for f in fields(cls)
                        if f.default is MISSING and f.default_factory is MISSING)


def _from_json(cls, obj, where: str, ignore_unknown: bool = False):
    """The dataclass cls from a decoded JSON object, by exact JSON types:
    `true` is not an integer, an integer is accepted (as is) where a number
    is wanted, `X | None` admits null, and NaN, infinities and numbers beyond
    float range are refused. A non-object, a mistyped field, a missing field
    without a default or, unless ignore_unknown, an unknown field raises
    ValueError starting `where: ` and naming the field."""
    if type(obj) is not dict:
        raise ValueError(f"{where}: not a JSON object")
    types, required = _json_fields(cls)
    values = {}
    for name, value in obj.items():
        spec = types.get(name)
        if spec is None:
            if ignore_unknown:
                continue
            raise ValueError(f"{where}: unknown field {name!r}")
        if type(value) not in spec[0] or (type(value) in (int, float)
                                          and not abs(value) <= sys.float_info.max):
            raise ValueError(f"{where}: field {name} is not {spec[1]}")
        values[name] = value
    for name in required:
        if name not in values:
            raise ValueError(f"{where}: missing field {name}")
    return cls(**values)


@dataclass  # not frozen: a frozen init costs a microsecond more per line
class _DatasetLine:
    instruction: str
    output: str
    input: str = ""
    id: int | str | None = None
    stratum: str | None = None


def load_dataset(path: str, data: bytes | None = None) -> list[Instance]:
    """Read instances from JSONL in file order (from `data` if given).

    Each line is a JSON object with string fields `instruction` and `output`;
    `input` (a string), `id` (an integer or a string) and `stratum` are
    optional, other fields are ignored. Missing ids become zero-padded line
    numbers. Ids compare as strings, generated ones too: `5` and `"5"` collide.
    """
    by_id: dict[str, Instance] = {}
    for lineno, obj in _json_lines(path, data):
        line = _from_json(_DatasetLine, obj, f"line {lineno}", ignore_unknown=True)
        if not line.output:
            raise ValueError(f"line {lineno}: empty field output")
        prompt = line.instruction + "\n" + line.input if line.input else line.instruction
        inst_id = f"{lineno:06d}" if line.id is None else str(line.id)
        if inst_id in by_id:
            raise ValueError(f"line {lineno}: duplicate id {inst_id!r}")
        if line.stratum not in (None, *STRATA):
            raise ValueError(f"line {lineno}: unknown stratum {line.stratum!r}")
        by_id[inst_id] = Instance(inst_id, prompt, line.output, line.stratum)
    return list(by_id.values())


def save_dataset(instances: list[Instance], path: str) -> None:
    """Write instances back to the JSONL schema (inverse of load_dataset)."""
    with open_atomic(path) as fh:
        for inst in instances:
            obj: dict = {"id": inst.id, "instruction": inst.prompt, "output": inst.response}
            if inst.stratum is not None:
                obj["stratum"] = inst.stratum
            fh.write(json.dumps(obj) + "\n")


def build_vocab(dataset: list[Instance], max_vocab: int) -> Tokenizer:
    """Tokenizer over the top (max_vocab - 5) word types by frequency."""
    if max_vocab < 8:
        raise ValueError("max_vocab must be at least 8 (5 specials + 3 words)")
    if not dataset:
        raise ValueError("cannot build a vocabulary from an empty dataset")
    freq: Counter[str] = Counter()
    for inst in dataset:
        freq.update(split_words(inst.prompt))
        freq.update(split_words(inst.response))
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [w for w, _ in ranked[: max_vocab - len(Tokenizer.SPECIALS)]]
    return Tokenizer(keep)


def encode_instance(tok: Tokenizer, inst: Instance, max_seq_len: int) -> TokenSequence:
    """Encode as BOS, prompt, SEP, response, EOS with per-token roles.

    Over-long sequences lose response tokens from the right; the prompt, SEP,
    and EOS are never dropped. Truncating away the whole response is an error.
    """
    prompt_ids = tok.encode_words(inst.prompt)
    response_ids = tok.encode_words(inst.response)
    budget = max_seq_len - len(prompt_ids) - 3  # BOS + SEP + EOS
    if budget < 1:
        raise ValueError(f"instance too long: {inst.id}")
    kept = response_ids[:budget]
    tokens = [tok.bos] + prompt_ids + [tok.sep] + kept + [tok.eos]
    roles = (
        [ROLE_SPECIAL]
        + [ROLE_PROMPT] * len(prompt_ids)
        + [ROLE_SPECIAL]
        + [ROLE_RESPONSE] * len(kept)
        + [ROLE_SPECIAL]
    )
    return TokenSequence(inst.id, tuple(tokens), tuple(roles))


@dataclass(frozen=True)
class SynthSpec:
    """Counts per stratum plus the generation seed."""

    n_domain: int
    n_noise: int
    n_trivial: int
    seed: int


# Word pools for the synthetic grammar. Keys map to values through a
# seed-dependent permutation; the mapping is what the model has to learn.
_KEYS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "xray yankee zulu amber basil cedar dahlia elm fern garnet hazel iris "
    "jasper kelp laurel maple nettle olive pine quartz rowan sage thorn umber "
    "violet willow"
).split()
_VALUES = (
    "red blue green yellow purple orange silver gold copper bronze crimson "
    "azure coral ivory jade lilac magenta navy ochre pearl ruby sapphire teal "
    "topaz turquoise violetta amaranth beige celadon denim ebony fawn ginger "
    "henna indigo jet khaki lavender mauve nickel onyx pewter rose sepia "
    "slate tan ultramarine verdigris wheat"
).split()
_DIGITS = (
    "one two three four five six seven eight nine ten eleven twelve"
).split()
_FILLERS = (
    "kindly please indeed truly surely gently swiftly barely rather quite "
    "fairly nearly simply merely really just"
).split()

_DOMAIN_TEMPLATES = (
    "what does {k} map to",
    "lookup the entry for {k}",
    "which value pairs with {k}",
)
_TRIVIAL_PHRASES = (
    "good morning",
    "see you soon",
    "thanks a lot",
    "have a nice day",
    "all is well here",
    "take care out there",
    "glad you could come by",
    "hope the week goes well",
    "warm wishes",
    "until we meet again soon",
    "sleep well tonight",
    "enjoy the rest of it",
)
_TRIVIAL_TEMPLATES = (
    "please repeat {p}",
    "say {p} again",
    "echo {p} now",
)

# Each key->value fact is stated this many times so that a 50% subset still
# covers every fact with near certainty and training saturates in few epochs.
_COPIES_PER_FACT = 8


def synth_corpus(spec: SynthSpec) -> list[Instance]:
    """Deterministic synthetic corpus with labeled strata.

    domain: key -> value lookups under a seeded fact table; each fact is
      restated ~_COPIES_PER_FACT times with varying templates, so the mapping
      is learnable yet no single instance is load-bearing. Keys are fused
      into one word (name + number word) because binding a multi-token key
      to its value takes far more optimization than a desk-scale run allows.
    noise: prompts reuse real fact keys and templates but the responses are
      uniformly random words, so they actively contradict the fact table.
    trivial: echo tasks over a small phrase pool of varying length; prompts
      vary by template and filler so instances are near- but not exact
      duplicates.
    """
    if min(spec.n_domain, spec.n_noise, spec.n_trivial) < 0:
        raise ValueError("stratum counts must be nonnegative")
    rng = substream(spec.seed, ROLE_SYNTH)

    n_facts = -(-spec.n_domain // _COPIES_PER_FACT) if spec.n_domain else 0
    n_pairs = len(_KEYS) * len(_DIGITS)
    if n_facts > n_pairs:
        raise ValueError("not enough distinct keys for the requested size")
    picked = rng.sample_without_replacement(n_pairs, n_facts)
    facts = [
        (_KEYS[p // len(_DIGITS)] + _DIGITS[p % len(_DIGITS)],
         _VALUES[rng.randint(len(_VALUES))])
        for p in picked
    ]
    noise_pool = _KEYS + _DIGITS + _VALUES + _FILLERS

    out: list[Instance] = []
    for i in range(spec.n_domain):
        key, value = facts[i % n_facts]
        template = _DOMAIN_TEMPLATES[rng.randint(len(_DOMAIN_TEMPLATES))]
        out.append(
            Instance(
                id=f"domain-{i:04d}",
                prompt=template.format(k=key),
                response=f"it maps to {value}",
                stratum="domain",
            )
        )
    for i in range(spec.n_noise):
        if facts:
            key = facts[rng.randint(len(facts))][0]
        else:
            key = (_KEYS[rng.randint(len(_KEYS))]
                   + _DIGITS[rng.randint(len(_DIGITS))])
        template = _DOMAIN_TEMPLATES[rng.randint(len(_DOMAIN_TEMPLATES))]
        length = 4 + rng.randint(3)
        words = [noise_pool[rng.randint(len(noise_pool))] for _ in range(length)]
        out.append(
            Instance(
                id=f"noise-{i:04d}",
                prompt=template.format(k=key),
                response=" ".join(words),
                stratum="noise",
            )
        )
    for i in range(spec.n_trivial):
        phrase = _TRIVIAL_PHRASES[rng.randint(len(_TRIVIAL_PHRASES))]
        template = _TRIVIAL_TEMPLATES[rng.randint(len(_TRIVIAL_TEMPLATES))]
        prompt = template.format(p=phrase)
        n_fill = rng.randint(4)
        if n_fill:
            fill = [_FILLERS[rng.randint(len(_FILLERS))] for _ in range(n_fill)]
            prompt = prompt + " " + " ".join(fill)
        out.append(
            Instance(
                id=f"trivial-{i:04d}",
                prompt=prompt,
                response=phrase,
                stratum="trivial",
            )
        )
    return out
