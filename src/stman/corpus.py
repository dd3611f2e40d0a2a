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
import itertools
import json
import os
import random
import threading
from collections import Counter
from dataclasses import dataclass

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
    """Corpus or vocabulary file violation. The message carries the
    1-based line number and, once the reader has set ``path``, the file."""

    def __init__(self, line: int, message: str):
        super().__init__(line, message)
        self.line = line
        self.message = message
        self.path = None

    def __str__(self) -> str:
        where = "" if self.path is None else f"{self.path}: "
        return f"{where}line {self.line}: {self.message}"


@contextlib.contextmanager
def _naming(path):
    """A ParseError raised in the block names ``path``; so does the one it
    raises for a byte that is not UTF-8, at the line that holds it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        # lines split as the text reader splits them (universal newlines);
        # the first that does not survive a round trip holds the bad byte
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
        line = next(i for i, raw in enumerate(lines, start=1)
                    if raw.decode("utf-8", "ignore").encode() != raw)
        err = ParseError(line, f"not UTF-8 ({exc.reason})")
        err.path = os.fspath(path)
        raise err from exc
    except ParseError as exc:
        exc.path = os.fspath(path)
        raise


def canonical_satisfaction(sentiment: str) -> str:
    """negative -> unsatisfied, neutral -> met, positive -> well_satisfied."""
    return SATISFACTIONS[SENTIMENTS.index(sentiment)]


@dataclass(slots=True)
class Utterance:
    speaker: str
    tokens: list[str]
    sentiment: str


@dataclass(slots=True)
class Dialogue:
    id: str
    satisfaction: str
    utterances: list[Utterance]


def relabel_speaker_turns(roles, counts) -> np.ndarray:
    """Turn flags of dialogues laid end to end: ``roles`` holds every
    utterance's role in corpus order and ``counts`` each dialogue's
    number of utterances. A dialogue's first flag is 0, and the flag
    flips wherever the role differs from the previous utterance's."""
    roles = np.asarray(roles)
    counts = np.asarray(counts, dtype=np.intp)
    if roles.size == 0:
        raise ValueError("relabel_speaker_turns: empty role sequence")
    if counts.sum() != roles.size or (counts < 1).any():
        raise ValueError(f"relabel_speaker_turns: counts must be >= 1 and sum "
                         f"to the number of roles, {roles.size}")
    # the parity of the role changes since the first utterance, less
    # those before the dialogue's own first utterance
    flips = np.zeros(roles.size, dtype=np.intp)
    np.cumsum(roles[1:] != roles[:-1], out=flips[1:])
    return (flips - np.repeat(flips[np.cumsum(counts) - counts], counts)) & 1


# ----------------------------------------------------------------- parsing


def _field(obj: dict, key: str, line: int):
    if key not in obj:
        raise ParseError(line, f"missing field {key!r}")
    return obj[key]


# each label constant keyed by itself: a lookup both checks a parsed value
# and returns the shared constant, so a parsed corpus holds one string
# object per label, not one per occurrence
_SATISFACTION_OF = {s: s for s in SATISFACTIONS}
_SPEAKER_OF = {s: s for s in SPEAKERS}
_SENTIMENT_OF = {s: s for s in SENTIMENTS}


def _label(obj: dict, key: str, allowed: dict, line: int) -> str:
    """The constant of ``allowed`` equal to the value of field ``key``."""
    try:
        return allowed[obj[key]]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON list or object
        pass
    value = _field(obj, key, line)
    raise ParseError(line, f"unknown {key} {value!r}; allowed: {{{', '.join(allowed)}}}")


def _new_tokens(tokens: list, known: dict, line: int) -> list[str]:
    """Check an utterance's tokens, some not seen before, and return them
    as the strings of ``known``, adding the new ones."""
    if "" in tokens or not all(map(str.__instancecheck__, tokens)):
        raise ParseError(line, "tokens must be a non-empty list of non-empty strings")
    # JSON can only carry a line break as an escape; the one-token-per-line
    # vocabulary file cannot hold it
    if any("\n" in t or "\r" in t for t in tokens):
        raise ParseError(line, "tokens must not contain a line break")
    return [known.setdefault(t, t) for t in tokens]


def parse_corpus(path) -> list[Dialogue]:
    """The dialogues of a corpus file, in file order. Equal token texts
    share one string object, from a table local to the call."""
    dialogues = []
    first_line: dict[str, int] = {}  # id -> line it first appeared on
    known: dict[str, str] = {}  # checked token text -> its first occurrence
    with open(path, encoding="utf-8") as fh, _naming(path):
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
            sat = _label(obj, "satisfaction", _SATISFACTION_OF, lineno)
            utts_raw = _field(obj, "utterances", lineno)
            if not isinstance(utts_raw, list) or not utts_raw:
                raise ParseError(lineno, "utterances must be a non-empty list")
            utts = []
            for u in utts_raw:
                if not isinstance(u, dict):
                    raise ParseError(lineno, "utterance must be a JSON object")
                speaker = _label(u, "speaker", _SPEAKER_OF, lineno)
                sentiment = _label(u, "sentiment", _SENTIMENT_OF, lineno)
                tokens = _field(u, "tokens", lineno)
                if not isinstance(tokens, list) or not tokens:
                    raise ParseError(lineno, "tokens must be a non-empty list of "
                                             "non-empty strings")
                # every text in known has passed _new_tokens' checks, so a
                # list of known texts needs no other check
                try:
                    tokens = [known[t] for t in tokens]
                except (KeyError, TypeError):
                    tokens = _new_tokens(tokens, known, lineno)
                utts.append(Utterance(speaker, tokens, sentiment))
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
    with open(path, encoding="utf-8") as fh, _naming(path):
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
            # int() alone would also take "1_0", " 7" and non-ASCII digits;
            # a minus is kept so that a negative id gets the reserved-id error
            digits = ids.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise ParseError(lineno, f"bad id {ids!r}")
            i = int(ids)
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

    @property
    def size(self) -> int:
        return self.ids.shape[0]


def _grid(shape: tuple, cells: np.ndarray, values, fill=0) -> np.ndarray:
    """A ``shape`` array of ``fill`` holding ``values`` at the flat
    ``cells``, in the dtype of ``values``."""
    values = np.asarray(values)
    out = np.full(shape, fill, dtype=values.dtype)
    out.reshape(-1)[cells] = values  # a view: the array is contiguous
    return out


def batchify(dialogues: list[Dialogue], vocab: Vocabulary,
             batch_size: int) -> list[Batch]:
    """Consecutive fixed-size batches (last one may be short). Ordering is
    the caller's job; this function never shuffles.

    The dialogues are flattened once per call, in one pass that visits
    each utterance once: the tokens go into one flat list that is mapped
    to ids by one dict lookup per token, and each utterance and each
    dialogue becomes an entry of flat arrays. A batch's grids are then
    filled from slices of those arrays with one fancy-index assignment
    each. A dialogue without utterances, an utterance without tokens or
    an unknown label is a ValueError that names the dialogue (and the
    utterance without tokens)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not dialogues:
        return []
    role_index = {s: i for i, s in enumerate(SPEAKERS)}
    sent_index = {s: i for i, s in enumerate(SENTIMENTS)}
    sat_index = {s: i for i, s in enumerate(SATISFACTIONS)}
    tokens, n_tok, roles, sents, n_utt, sats = [], [], [], [], [], []
    try:
        for d in dialogues:
            n_utt.append(len(d.utterances))
            sats.append(sat_index[d.satisfaction])
            for u in d.utterances:
                tokens += u.tokens
                n_tok.append(len(u.tokens))
                roles.append(role_index[u.speaker])
                sents.append(sent_index[u.sentiment])
    except KeyError as exc:
        raise ValueError(f"dialogue {d.id!r}: unknown label {exc.args[0]!r}") from None
    n_utt = np.array(n_utt, dtype=np.intp)
    n_tok = np.array(n_tok, dtype=np.intp)
    # dialogue i's utterances are entries u_off[i]:u_off[i + 1] of the
    # per-utterance arrays, utterance u's tokens t_off[u]:t_off[u + 1]
    # of token_ids
    u_off = np.concatenate(([0], np.cumsum(n_utt)))
    t_off = np.concatenate(([0], np.cumsum(n_tok)))
    if not n_utt.all():
        d = dialogues[np.flatnonzero(n_utt == 0)[0]]
        raise ValueError(f"dialogue {d.id!r} has no utterances")
    if not n_tok.all():
        u = np.flatnonzero(n_tok == 0)[0]
        i = np.searchsorted(u_off, u, side="right") - 1
        raise ValueError(f"dialogue {dialogues[i].id!r}, utterance "
                         f"{u - u_off[i]} has no tokens")

    token_ids = np.fromiter(map(vocab._map.get, tokens, itertools.repeat(UNK_ID)),
                            dtype=np.intp, count=len(tokens))
    roles = np.array(roles, dtype=np.intp)
    is_user = roles == role_index["user"]
    turn = relabel_speaker_turns(roles, n_utt)
    sents = np.array(sents, dtype=np.intp)
    sats = np.array(sats, dtype=np.intp)
    # each utterance's dialogue and its position in it
    owner = np.repeat(np.arange(n_utt.size), n_utt)
    step = np.arange(roles.size) - u_off[owner]

    batches = []
    for i in range(0, len(dialogues), batch_size):
        j = min(i + batch_size, len(dialogues))
        u0, u1 = u_off[i], u_off[j]
        t0, t1 = t_off[u0], t_off[u1]
        B, L, T = j - i, n_utt[i:j].max(), n_tok[u0:u1].max()
        # flat (B, L) cell of each utterance, and (B, L, T) cell of each token
        cells = (owner[u0:u1] - i) * L + step[u0:u1]
        tok_cells = (np.repeat(cells * T - (t_off[u0:u1] - t0), n_tok[u0:u1])
                     + np.arange(t1 - t0))
        batches.append(Batch(
            ids=_grid((B, L, T), tok_cells, token_ids[t0:t1], PAD_ID),
            tok_valid=_grid((B, L, T), tok_cells, True),
            utt_valid=_grid((B, L), cells, True),
            is_user=_grid((B, L), cells, is_user[u0:u1]),
            turn=_grid((B, L), cells, turn[u0:u1]),
            sent=_grid((B, L), cells, sents[u0:u1]),
            sat=sats[i:j]))
    return batches
