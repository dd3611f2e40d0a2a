"""Dialogue data model, JSON Lines corpus format, vocabulary, speaker-turn
relabeling, and a synthetic generator with a plantable sentiment-to-
satisfaction correlation knob.

Corpus format: UTF-8 JSON Lines, one dialogue per line:

    {"id": "...", "satisfaction": "met",
     "utterances": [{"speaker": "user", "tokens": ["..."],
                     "sentiment": "neutral"}, ...]}

Vocabulary format: text, one "token<TAB>id" per line. Ids 0 and 1 are
reserved (UNK and PAD) and never written to the file.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import threading
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import rngs

__all__ = [
    "SATISFACTIONS",
    "SENTIMENTS",
    "SPEAKERS",
    "UNK_ID",
    "PAD_ID",
    "ParseError",
    "Utterance",
    "Dialogue",
    "Vocabulary",
    "CorpusSplit",
    "Batch",
    "canonical_satisfaction",
    "parse_corpus",
    "write_corpus",
    "atomic_write",
    "relabel_speaker_turns",
    "build_vocab",
    "save_vocab",
    "load_vocab",
    "generate_synthetic",
    "split_corpus",
    "batchify",
]

SATISFACTIONS = ("unsatisfied", "met", "well_satisfied")
SENTIMENTS = ("negative", "neutral", "positive")
SPEAKERS = ("user", "staff")

UNK_ID = 0
PAD_ID = 1


class ParseError(ValueError):
    """Corpus file violation; message carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def canonical_satisfaction(sentiment: str) -> str:
    """negative -> unsatisfied, neutral -> met, positive -> well_satisfied."""
    return SATISFACTIONS[SENTIMENTS.index(sentiment)]


@dataclass
class Utterance:
    speaker: str
    tokens: list[str]
    sentiment: str


@dataclass
class Dialogue:
    id: str
    satisfaction: str
    utterances: list[Utterance]

    def roles(self) -> list[str]:
        return [u.speaker for u in self.utterances]


def relabel_speaker_turns(roles) -> list[int]:
    """Turn flags: first is 0, and the bit flips wherever the role
    changes from the previous utterance."""
    roles = list(roles)
    if not roles:
        raise ValueError("relabel_speaker_turns: empty role sequence")
    flags = [0]
    for prev, cur in zip(roles, roles[1:]):
        flags.append(flags[-1] ^ (prev != cur))
    return flags


# ----------------------------------------------------------------- parsing


def _field(obj: dict, key: str, line: int):
    if key not in obj:
        raise ParseError(line, f"missing field {key!r}")
    return obj[key]


def _check_label(value, allowed: tuple, what: str, line: int) -> str:
    if value not in allowed:
        raise ParseError(line, f"unknown {what} {value!r}; allowed: {{{', '.join(allowed)}}}")
    return value


def parse_corpus(path) -> list[Dialogue]:
    dialogues = []
    first_line: dict[str, int] = {}  # id -> line it first appeared on
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(lineno, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise ParseError(lineno, "dialogue record must be a JSON object")
            did = _field(obj, "id", lineno)
            if not isinstance(did, str) or not did:
                raise ParseError(lineno, "id must be a non-empty string")
            if did in first_line:
                raise ParseError(lineno, f"duplicate dialogue id {did!r} "
                                         f"(first on line {first_line[did]})")
            first_line[did] = lineno
            sat = _check_label(_field(obj, "satisfaction", lineno), SATISFACTIONS,
                               "satisfaction", lineno)
            utts_raw = _field(obj, "utterances", lineno)
            if not isinstance(utts_raw, list) or not utts_raw:
                raise ParseError(lineno, "utterances must be a non-empty list")
            utts = []
            escaped = "\\" in raw
            for u in utts_raw:
                if not isinstance(u, dict):
                    raise ParseError(lineno, "utterance must be a JSON object")
                speaker = _check_label(_field(u, "speaker", lineno), SPEAKERS,
                                       "speaker", lineno)
                sentiment = _check_label(_field(u, "sentiment", lineno), SENTIMENTS,
                                         "sentiment", lineno)
                tokens = _field(u, "tokens", lineno)
                if (not isinstance(tokens, list) or not tokens
                        or not all(isinstance(t, str) and t for t in tokens)):
                    raise ParseError(lineno, "tokens must be a non-empty list of "
                                             "non-empty strings")
                # JSON can only carry a line break as an escape; the
                # one-token-per-line vocabulary file cannot hold it
                if escaped and any("\n" in t or "\r" in t for t in tokens):
                    raise ParseError(lineno, "tokens must not contain a line break")
                utts.append(Utterance(speaker, list(tokens), sentiment))
            dialogues.append(Dialogue(did, sat, utts))
    return dialogues


@contextlib.contextmanager
def atomic_write(path):
    """Text file handle whose contents replace ``path`` only when the
    block completes. The writes go to a temporary file beside ``path``,
    which ``os.replace`` moves over it; if anything raises first, the
    temporary file is removed and ``path`` is left as it was. This guards
    against a writer that fails or is interrupted, not against power loss
    (nothing is fsynced)."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_corpus(dialogues, path) -> None:
    with atomic_write(path) as fh:
        for d in dialogues:
            obj = {
                "id": d.id,
                "satisfaction": d.satisfaction,
                "utterances": [
                    {"speaker": u.speaker, "tokens": u.tokens, "sentiment": u.sentiment}
                    for u in d.utterances
                ],
            }
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")


# -------------------------------------------------------------- vocabulary


class Vocabulary:
    """token -> id map with reserved ids UNK=0 and PAD=1."""

    def __init__(self, token_to_id: dict[str, int]):
        for tok, i in token_to_id.items():
            if i < 2:
                raise ValueError(f"id {i} for {tok!r} collides with a reserved id")
        ids = list(token_to_id.values())
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ids in vocabulary")
        self._map = dict(token_to_id)

    def id_of(self, token: str) -> int:
        return self._map.get(token, UNK_ID)

    def __contains__(self, token: str) -> bool:
        return token in self._map

    def __len__(self) -> int:
        # table size: reserved rows plus assigned ids
        return max(self._map.values(), default=1) + 1

    def items(self):
        return sorted(self._map.items(), key=lambda kv: kv[1])


def build_vocab(train: list[Dialogue], min_count: int = 1) -> Vocabulary:
    """Ids by frequency descending, ties lexicographic, starting at 2.
    Tokens below min_count fall back to UNK at lookup time."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    counts = Counter(t for d in train for u in d.utterances for t in u.tokens)
    kept = sorted((tok for tok, c in counts.items() if c >= min_count),
                  key=lambda tok: (-counts[tok], tok))
    return Vocabulary({tok: i + 2 for i, tok in enumerate(kept)})


def save_vocab(vocab: Vocabulary, path) -> None:
    items = vocab.items()
    for tok, _ in items:
        # the file holds one token per line
        if "\n" in tok or "\r" in tok:
            raise ValueError(f"vocabulary token {tok!r} contains a line break")
    with atomic_write(path) as fh:
        for tok, i in items:
            fh.write(f"{tok}\t{i}\n")


def load_vocab(path) -> Vocabulary:
    mapping = {}
    first_line = {}
    id_line = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            tok, sep, ids = line.rpartition("\t")
            if not sep or not tok:
                raise ParseError(lineno, "expected token<TAB>id")
            if tok in first_line:
                raise ParseError(lineno, f"duplicate token {tok!r} "
                                         f"(first on line {first_line[tok]})")
            first_line[tok] = lineno
            try:
                i = int(ids)
            except ValueError as exc:
                raise ParseError(lineno, f"bad id {ids!r}") from exc
            if i < 2:
                raise ParseError(lineno, f"id {i} for {tok!r} collides with a "
                                         f"reserved id (UNK={UNK_ID}, PAD={PAD_ID})")
            if i in id_line:
                raise ParseError(lineno, f"duplicate id {i} for {tok!r} "
                                         f"(first on line {id_line[i]})")
            id_line[i] = lineno
            mapping[tok] = i
    return Vocabulary(mapping)


# --------------------------------------------------------------- generator

# Sentiment-conditioned template pools. Disjoint across sentiments so the
# lexical signal is unambiguous; fillers are shared noise.
_POOLS = {
    "negative": ["terrible", "awful", "broken", "refund", "angry", "damaged",
                 "useless", "worst", "complaint", "unacceptable"],
    "neutral": ["okay", "order", "status", "question", "shipping", "normal",
                "standard", "tracking", "invoice", "average"],
    "positive": ["great", "excellent", "thanks", "perfect", "love", "wonderful",
                 "helpful", "awesome", "satisfied", "brilliant"],
}
_FILLER = ["the", "a", "my", "it", "is", "was", "please", "can", "you", "i"]

_MIN_LEN, _MAX_LEN = 4, 14  # dialogue length; cap keeps epochs in minutes
_MIN_TOK, _MAX_TOK = 3, 8  # utterance length, well under the 30-token cap


def _other_label(rng: random.Random, labels: tuple, avoid: str) -> str:
    return rng.choice([x for x in labels if x != avoid])


def _generate_one(index: int, correlation_q: float, seed: int) -> Dialogue:
    """One dialogue from its own random.Random(seed + index).

    The draw order below is fixed and is part of the format contract:
    reordering calls would silently change every corpus.
    """
    rng = random.Random(seed + index)
    length = rng.randint(_MIN_LEN, _MAX_LEN)

    speakers = ["user"]
    for _ in range(length - 1):
        if rng.random() < 0.3:
            speakers.append(speakers[-1])
        else:
            speakers.append("staff" if speakers[-1] == "user" else "user")

    mood = rng.choice(SENTIMENTS)
    utterances = []
    for speaker in speakers:
        if speaker == "user":
            sentiment = mood if rng.random() < 0.7 else _other_label(rng, SENTIMENTS, mood)
        else:
            sentiment = "neutral" if rng.random() < 0.6 else _other_label(
                rng, SENTIMENTS, "neutral")
        n_tok = rng.randint(_MIN_TOK, _MAX_TOK)
        pool = _POOLS[sentiment]
        tokens = [rng.choice(pool)]
        for _ in range(n_tok - 1):
            tokens.append(rng.choice(pool) if rng.random() < 0.5 else rng.choice(_FILLER))
        utterances.append(Utterance(speaker, tokens, sentiment))

    final_user = next(u.sentiment for u in reversed(utterances) if u.speaker == "user")
    canonical = canonical_satisfaction(final_user)
    if rng.random() < correlation_q:
        satisfaction = canonical
    else:
        satisfaction = _other_label(rng, SATISFACTIONS, canonical)
    return Dialogue(f"syn-{index:06d}", satisfaction, utterances)


def generate_synthetic(n_dialogues: int, correlation_q: float, seed: int) -> list[Dialogue]:
    """Synthetic service dialogues, reproducible from the seed.

    Each dialogue i draws from random.Random(seed + i), so generation is
    order-independent across dialogues. The first speaker is always the
    user, which guarantees at least one user utterance. With probability
    correlation_q the satisfaction equals the canonical mapping of the
    final user utterance's sentiment, otherwise one of the two other
    labels uniformly.
    """
    if not 0.0 <= correlation_q <= 1.0:
        raise ValueError(f"correlation_q must be in [0, 1], got {correlation_q}")
    if n_dialogues < 0:
        raise ValueError(f"n_dialogues must be >= 0, got {n_dialogues}")
    return [_generate_one(i, correlation_q, seed) for i in range(n_dialogues)]


# ------------------------------------------------------------------ splits


@dataclass
class CorpusSplit:
    train: list[Dialogue]
    dev: list[Dialogue]
    test: list[Dialogue]


def split_corpus(dialogues: list[Dialogue], seed: int) -> CorpusSplit:
    """Deterministic shuffled 8/1/1 split (dev and test get n // 10 each)."""
    order = rngs.stream(seed, "split").permutation(len(dialogues))
    shuffled = [dialogues[i] for i in order]
    n_eval = len(dialogues) // 10
    dev = shuffled[:n_eval]
    test = shuffled[n_eval : 2 * n_eval]
    train = shuffled[2 * n_eval :]
    return CorpusSplit(train=train, dev=dev, test=test)


# ---------------------------------------------------------------- batching


@dataclass
class Batch:
    """Padded id grids plus the masks that keep padding out of every loss
    and attention. Shapes: ids/tok_valid (B, L, T); per-utterance arrays
    (B, L); sat (B,)."""

    ids: np.ndarray
    tok_valid: np.ndarray
    utt_valid: np.ndarray
    is_user: np.ndarray
    turn: np.ndarray
    sent: np.ndarray
    sat: np.ndarray
    dialogue_ids: list[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.ids.shape[0]


def _encode_batch(chunk: list[Dialogue], vocab: Vocabulary) -> Batch:
    B = len(chunk)
    L = max(len(d.utterances) for d in chunk)
    T = max(len(u.tokens) for d in chunk for u in d.utterances)
    ids = np.full((B, L, T), PAD_ID, dtype=np.intp)
    tok_valid = np.zeros((B, L, T), dtype=bool)
    utt_valid = np.zeros((B, L), dtype=bool)
    is_user = np.zeros((B, L), dtype=bool)
    turn = np.zeros((B, L), dtype=np.intp)
    sent = np.zeros((B, L), dtype=np.intp)
    sat = np.zeros(B, dtype=np.intp)
    for b, d in enumerate(chunk):
        utts = d.utterances
        n = len(utts)
        valid = np.arange(T) < np.array([len(u.tokens) for u in utts])[:, None]
        tok_valid[b, :n] = valid
        # a boolean mask selects cells in row-major order: utterance by
        # utterance, token by token
        ids[b, :n][valid] = [vocab.id_of(tok) for u in utts for tok in u.tokens]
        utt_valid[b, :n] = True
        is_user[b, :n] = [u.speaker == "user" for u in utts]
        turn[b, :n] = relabel_speaker_turns(d.roles())
        sent[b, :n] = [SENTIMENTS.index(u.sentiment) for u in utts]
        sat[b] = SATISFACTIONS.index(d.satisfaction)
    return Batch(ids, tok_valid, utt_valid, is_user, turn, sent, sat,
                 [d.id for d in chunk])


def batchify(dialogues: list[Dialogue], vocab: Vocabulary,
             batch_size: int) -> list[Batch]:
    """Consecutive fixed-size batches (last one may be short). Ordering is
    the caller's job; this function never shuffles."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return [
        _encode_batch(dialogues[i : i + batch_size], vocab)
        for i in range(0, len(dialogues), batch_size)
    ]
