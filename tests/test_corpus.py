"""Corpus format, relabeling, vocabulary, generator, split and batching."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import turn_flags_ref
from stman import corpus as cp


def make_dialogue(did="d1", sat="met", rows=(("user", "hello there", "neutral"),)):
    utts = [cp.Utterance(sp, toks.split(), sen) for sp, toks, sen in rows]
    return cp.Dialogue(did, sat, utts)


# ----------------------------------------------------------------- parsing


def test_parse_two_line_file(tmp_path):
    path = tmp_path / "c.jsonl"
    cp.write_corpus([make_dialogue("a"), make_dialogue("b")], path)
    got = cp.parse_corpus(path)
    assert [d.id for d in got] == ["a", "b"]


def test_roundtrip_is_identity(tmp_path):
    dialogues = cp.generate_synthetic(25, 0.8, seed=3)
    path = tmp_path / "c.jsonl"
    cp.write_corpus(dialogues, path)
    assert cp.parse_corpus(path) == dialogues


def test_parsed_labels_are_the_module_constants(tmp_path):
    # one shared string object per label, however often the file repeats it
    path = tmp_path / "c.jsonl"
    cp.write_corpus(cp.generate_synthetic(25, 0.8, seed=3), path)
    for d in cp.parse_corpus(path):
        assert d.satisfaction is cp.SATISFACTIONS[cp.SATISFACTIONS.index(d.satisfaction)]
        for u in d.utterances:
            assert u.speaker is cp.SPEAKERS[cp.SPEAKERS.index(u.speaker)]
            assert u.sentiment is cp.SENTIMENTS[cp.SENTIMENTS.index(u.sentiment)]


def test_equal_token_texts_are_one_string_and_records_have_no_dict(tmp_path):
    path = tmp_path / "c.jsonl"
    cp.write_corpus(cp.generate_synthetic(25, 0.8, seed=3), path)
    seen = {}  # text -> (dialogue index, first string object)
    across = 0  # occurrences in a later dialogue than the first
    for i, d in enumerate(cp.parse_corpus(path)):
        assert not hasattr(d, "__dict__")
        for u in d.utterances:
            assert not hasattr(u, "__dict__")
            for t in u.tokens:
                first, obj = seen.setdefault(t, (i, t))
                assert t is obj
                across += first != i
    assert across > 0


def test_unknown_satisfaction_names_allowed_set(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = {"id": "x", "satisfaction": "ok",
           "utterances": [{"speaker": "user", "tokens": ["hi"], "sentiment": "neutral"}]}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(cp.ParseError) as exc:
        cp.parse_corpus(path)
    msg = str(exc.value)
    assert "line 1" in msg
    for label in ("unsatisfied", "met", "well_satisfied"):
        assert label in msg


@pytest.mark.parametrize("mutate, needle", [
    (lambda r: r.update(utterances=[]), "non-empty list"),
    (lambda r: r["utterances"][0].update(tokens=[]), "tokens"),
    (lambda r: r["utterances"][0].update(speaker="bot"), "speaker"),
    (lambda r: r["utterances"][0].update(sentiment="meh"), "sentiment"),
    (lambda r: r.pop("id"), "id"),
])
def test_parse_rejects_bad_records(tmp_path, mutate, needle):
    rec = {"id": "x", "satisfaction": "met",
           "utterances": [{"speaker": "user", "tokens": ["hi"], "sentiment": "neutral"}]}
    mutate(rec)
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(cp.ParseError, match=needle):
        cp.parse_corpus(path)


@pytest.mark.parametrize("field, value, message", [
    ("speaker", ["user"], "unknown speaker ['user']; allowed: {user, staff}"),
    ("sentiment", {"a": 1}, "unknown sentiment {'a': 1}; "
                            "allowed: {negative, neutral, positive}"),
    ("sentiment", None, "unknown sentiment None; allowed: {negative, neutral, positive}"),
    ("tokens", ["hi", ""], "tokens must be a non-empty list of non-empty strings"),
    ("tokens", ["hi", 3], "tokens must be a non-empty list of non-empty strings"),
    ("tokens", "hi", "tokens must be a non-empty list of non-empty strings"),
    # iterating the object gives "hi", a token the first line made known
    ("tokens", {"hi": 1}, "tokens must be a non-empty list of non-empty strings"),
], ids=["unhashable-list", "unhashable-object", "null", "empty-token", "number-token",
        "string-not-list", "object-not-list"])
def test_parse_rejects_bad_utterance_fields_naming_the_line(tmp_path, field, value,
                                                            message):
    good = {"id": "x", "satisfaction": "met",
            "utterances": [{"speaker": "user", "tokens": ["hi"], "sentiment": "neutral"}]}
    bad = {**good, "id": "y", "utterances": [{**good["utterances"][0], field: value}]}
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(cp.ParseError) as exc:
        cp.parse_corpus(path)
    assert str(exc.value) == f"{path}: line 2: {message}"


def test_parse_reports_line_number_of_bad_json(tmp_path):
    path = tmp_path / "c.jsonl"
    good = {"id": "x", "satisfaction": "met",
            "utterances": [{"speaker": "user", "tokens": ["hi"], "sentiment": "neutral"}]}
    path.write_text(json.dumps(good) + "\n{oops\n")
    with pytest.raises(cp.ParseError, match="line 2") as exc:
        cp.parse_corpus(path)
    assert exc.value.line == 2
    assert str(exc.value).startswith(f"{path}: line 2: invalid JSON: ")


def test_parse_rejects_duplicate_id_naming_both_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    cp.write_corpus([make_dialogue("a"), make_dialogue("b"), make_dialogue("a")], path)
    with pytest.raises(cp.ParseError, match=r"line 3: duplicate dialogue id 'a' "
                                            r"\(first on line 1\)") as exc:
        cp.parse_corpus(path)
    assert exc.value.line == 3


def _record(did, tokens_json):
    return ('{"id": "%s", "satisfaction": "met", "utterances": [{"speaker": '
            '"user", "tokens": [%s], "sentiment": "neutral"}]}' % (did, tokens_json))


@pytest.mark.parametrize("tokens_json", [
    r'"ok", "a\nb"', r'"a\rb"', r'"\u000a"', r'"x\u000Dy"', r'"\n"',
], ids=["n", "r", "u000a", "u000D", "only-n"])
def test_parse_rejects_token_with_line_break(tmp_path, tokens_json):
    # the vocabulary file holds one token per line, so such a corpus
    # would train but its checkpoint's vocabulary could not be read back
    path = tmp_path / "c.jsonl"
    path.write_text(_record("a", '"fine"') + "\n" + _record("b", tokens_json) + "\n")
    with pytest.raises(cp.ParseError, match="line 2: tokens must not contain "
                                            "a line break") as exc:
        cp.parse_corpus(path)
    assert exc.value.line == 2


def test_parse_keeps_literal_backslash_tokens(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(_record("a", r'"a\\nb", "\\r", "tab\there"') + "\n")
    (d,) = cp.parse_corpus(path)
    assert d.utterances[0].tokens == ["a\\nb", "\\r", "tab\there"]


# arbitrary unicode without line breaks or lone surrogates (UTF-8 cannot
# encode those)
TOKENS = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n\r"),
                 min_size=1, max_size=6)
UTTERANCES = st.builds(cp.Utterance, st.sampled_from(cp.SPEAKERS),
                       st.lists(TOKENS, min_size=1, max_size=4),
                       st.sampled_from(cp.SENTIMENTS))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(cp.SATISFACTIONS),
                          st.lists(UTTERANCES, min_size=1, max_size=3)),
                min_size=1, max_size=3))
def test_write_parse_roundtrip_on_unicode_tokens(tmp_path_factory, records):
    dialogues = [cp.Dialogue(f"d{i}", sat, utts) for i, (sat, utts) in enumerate(records)]
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    cp.write_corpus(dialogues, path)
    assert cp.parse_corpus(path) == dialogues


@settings(max_examples=30, deadline=None)
@given(st.lists(TOKENS, min_size=1, max_size=8, unique=True))
def test_vocab_save_load_roundtrip_on_unicode_tokens(tmp_path_factory, tokens):
    vocab = cp.Vocabulary({tok: i + 2 for i, tok in enumerate(tokens)})
    path = tmp_path_factory.mktemp("vocab") / "vocab.tsv"
    cp.save_vocab(vocab, path)
    assert cp.load_vocab(path).items() == vocab.items()


# -------------------------------------------------------------- relabeling


def test_relabel_alternating_with_repeat():
    roles = ["U", "S", "U", "S", "U", "S", "U", "U", "S"]
    flags = cp.relabel_speaker_turns(roles, [len(roles)])
    assert flags.tolist() == [0, 1, 0, 1, 0, 1, 0, 0, 1]
    assert flags.dtype == np.intp


def test_relabel_trivial_cases():
    assert cp.relabel_speaker_turns(["U"], [1]).tolist() == [0]
    assert cp.relabel_speaker_turns(["U", "U", "U"], [3]).tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="empty"):
        cp.relabel_speaker_turns([], [])
    for counts in ([2], [3, 1], [2, 0, 1]):
        with pytest.raises(ValueError, match="counts"):
            cp.relabel_speaker_turns(["U", "S", "U"], counts)


@given(st.lists(st.sampled_from(["user", "staff"]), min_size=1, max_size=30), st.data())
def test_relabel_parity_counts_role_changes(roles, data):
    flags = cp.relabel_speaker_turns(roles, [len(roles)])
    assert len(flags) == len(roles)
    changes = 0
    for t in range(len(roles)):
        if t > 0 and roles[t] != roles[t - 1]:
            changes += 1
        assert flags[t] == changes % 2
    # a random split into dialogues: each restarts at 0, as the scalar
    # reference run on that dialogue alone
    cut = data.draw(st.lists(st.booleans(), min_size=len(roles) - 1,
                             max_size=len(roles) - 1))
    bounds = [0, *(t for t in range(1, len(roles)) if cut[t - 1]), len(roles)]
    dialogues = [roles[a:b] for a, b in zip(bounds, bounds[1:])]
    flags = cp.relabel_speaker_turns(roles, [len(d) for d in dialogues])
    assert flags.tolist() == [f for d in dialogues for f in turn_flags_ref(d)]


# -------------------------------------------------------------- vocabulary


def test_vocab_min_count_threshold():
    d = make_dialogue(rows=(("user", "a a b", "neutral"),))
    vocab = cp.build_vocab([d], min_count=2)
    assert dict(vocab.items()) == {"a": 2}


def test_vocab_min_count_one_keeps_all():
    d = make_dialogue(rows=(("user", "a a b", "neutral"),))
    vocab = cp.build_vocab([d], min_count=1)
    assert dict(vocab.items()) == {"a": 2, "b": 3}


def test_vocab_order_frequency_desc_then_lexicographic():
    d = make_dialogue(rows=(("user", "b b c a a z", "neutral"),))
    vocab = cp.build_vocab([d])
    # a and b tie at count 2 -> lexicographic; then c and z tie at 1
    assert [tok for tok, _ in vocab.items()] == ["a", "b", "c", "z"]
    assert [i for _, i in vocab.items()] == [2, 3, 4, 5]


def test_vocab_deterministic_assignment():
    dialogues = cp.generate_synthetic(30, 0.9, seed=11)
    v1 = cp.build_vocab(dialogues)
    v2 = cp.build_vocab(list(dialogues))
    assert v1.items() == v2.items()


def test_vocab_save_load_roundtrip(tmp_path):
    vocab = cp.build_vocab(cp.generate_synthetic(20, 0.5, seed=1))
    path = tmp_path / "vocab.tsv"
    cp.save_vocab(vocab, path)
    assert cp.load_vocab(path).items() == vocab.items()


@pytest.mark.parametrize("token", ["a\nb", "\r", "x\r\ny"])
def test_save_vocab_rejects_token_with_line_break(tmp_path, token):
    path = tmp_path / "vocab.tsv"
    with pytest.raises(ValueError, match="contains a line break") as exc:
        cp.save_vocab(cp.Vocabulary({token: 2, "c": 3}), path)
    assert repr(token) in str(exc.value)
    assert not path.exists()


def test_load_vocab_rejects_repeated_token_naming_both_lines(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("a\t2\nb\t3\na\t4\n", encoding="utf-8")
    with pytest.raises(cp.ParseError, match=r"line 3: duplicate token 'a' "
                                            r"\(first on line 1\)") as exc:
        cp.load_vocab(path)
    assert exc.value.line == 3


@pytest.mark.parametrize("text, line, message", [
    ("a\t2\nb\t0\n", 2, r"line 2: id 0 for 'b' collides with a reserved id"),
    ("a\t2\nb\t1\n", 2, r"line 2: id 1 for 'b' collides with a reserved id"),
    ("a\t-3\n", 1, r"line 1: id -3 for 'a' collides with a reserved id"),
    ("a\t2\n\nc\t3\nb\t2\n", 4, r"line 4: duplicate id 2 for 'b' \(first on line 1\)"),
    ("a\t2\nb\t1_0\n", 2, r"line 2: bad id '1_0'$"),
    ("a\t2\nb\t 7\n", 2, r"line 2: bad id ' 7'$"),
    ("a\t2\nb\t\u0663\n", 2, r"line 2: bad id '\u0663'$"),
], ids=["unk", "pad", "negative", "repeated-id", "underscore", "space",
        "non-ascii-digit"])
def test_load_vocab_rejects_bad_id_naming_the_line(tmp_path, text, line, message):
    path = tmp_path / "vocab.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(cp.ParseError, match=message) as exc:
        cp.load_vocab(path)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"{path}: line {line}: ")


# --------------------------------------------------------------- generator


def final_user_sentiment(d):
    for u in reversed(d.utterances):
        if u.speaker == "user":
            return u.sentiment
    raise AssertionError("dialogue without user utterance")


def test_generator_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    cp.write_corpus(cp.generate_synthetic(50, 0.7, seed=42), a)
    cp.write_corpus(cp.generate_synthetic(50, 0.7, seed=42), b)
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_bytes()) > 0


def test_atomic_write_keeps_old_file_when_the_block_raises(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="midway"):
        with cp.atomic_write(path) as fh:
            fh.write("half")
            raise RuntimeError("midway")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with cp.atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_corpus_failing_midway_leaves_old_file(tmp_path):
    path = tmp_path / "c.jsonl"
    cp.write_corpus(cp.generate_synthetic(3, 0.5, seed=1), path)
    before = path.read_bytes()
    # the second dialogue cannot be serialized, after the first was written
    bad = make_dialogue("d2")
    bad.utterances[0].tokens = [object()]
    with pytest.raises(TypeError):
        cp.write_corpus([make_dialogue("d1"), bad], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]


def test_generator_structural_contracts():
    dialogues = cp.generate_synthetic(80, 0.5, seed=5)
    assert len(dialogues) == 80
    assert len({d.id for d in dialogues}) == 80
    for d in dialogues:
        assert 4 <= len(d.utterances) <= 14
        assert d.utterances[0].speaker == "user"
        for u in d.utterances:
            assert 3 <= len(u.tokens) <= 8
            assert u.sentiment in cp.SENTIMENTS
    assert cp.generate_synthetic(0, 0.5, seed=5) == []
    with pytest.raises(ValueError):
        cp.generate_synthetic(5, 1.5, seed=0)


def test_generator_q1_final_sentiment_is_exact():
    dialogues = cp.generate_synthetic(300, 1.0, seed=9)
    hits = sum(
        d.satisfaction == cp.canonical_satisfaction(final_user_sentiment(d))
        for d in dialogues
    )
    assert hits == 300


def test_generator_q1_label_marginals_match():
    dialogues = cp.generate_synthetic(400, 1.0, seed=13)
    sat_counts = {s: 0 for s in cp.SATISFACTIONS}
    sent_counts = {s: 0 for s in cp.SENTIMENTS}
    for d in dialogues:
        sat_counts[d.satisfaction] += 1
        sent_counts[final_user_sentiment(d)] += 1
    for sent, sat in zip(cp.SENTIMENTS, cp.SATISFACTIONS):
        assert sent_counts[sent] == sat_counts[sat]


def test_generator_q08_agreement_by_counting():
    dialogues = cp.generate_synthetic(1000, 0.8, seed=21)
    agree = 0
    for d in dialogues:
        if d.satisfaction == cp.canonical_satisfaction(final_user_sentiment(d)):
            agree += 1
    assert 0.76 <= agree / 1000 <= 0.84


# ------------------------------------------------------------------ splits


def test_split_disjoint_exhaustive_and_sized():
    dialogues = cp.generate_synthetic(600, 0.9, seed=2)
    split = cp.split_corpus(dialogues, seed=7)
    assert len(split.dev) == 60 and len(split.test) == 60 and len(split.train) == 480
    ids = [d.id for part in (split.train, split.dev, split.test) for d in part]
    assert sorted(ids) == sorted(d.id for d in dialogues)
    again = cp.split_corpus(dialogues, seed=7)
    assert [d.id for d in again.dev] == [d.id for d in split.dev]
    other = cp.split_corpus(dialogues, seed=8)
    assert [d.id for d in other.dev] != [d.id for d in split.dev]


# ---------------------------------------------------------------- batching


def test_batchify_single_dialogue_large_batch():
    dialogues = cp.generate_synthetic(1, 0.9, seed=4)
    vocab = cp.build_vocab(dialogues)
    batches = cp.batchify(dialogues, vocab, 32)
    assert len(batches) == 1 and batches[0].size == 1


def test_batchify_padding_and_masks():
    d1 = make_dialogue("a", "met", (("user", "x y", "neutral"),
                                    ("staff", "p", "neutral")))
    d2 = make_dialogue("b", "well_satisfied", (("user", "x y z w", "positive"),))
    vocab = cp.build_vocab([d1, d2])
    (batch,) = cp.batchify([d1, d2], vocab, 8)
    assert batch.ids.shape == (2, 2, 4)
    # second dialogue has one utterance: the second row is an all-PAD placeholder
    assert not batch.utt_valid[1, 1]
    assert np.all(batch.ids[1, 1] == cp.PAD_ID)
    assert not batch.tok_valid[1, 1].any()
    # token padding inside a real utterance
    assert batch.ids[0, 1, 0] != cp.PAD_ID
    assert np.all(batch.ids[0, 1, 1:] == cp.PAD_ID)
    assert batch.tok_valid[0, 1, 0] and not batch.tok_valid[0, 1, 1:].any()
    # roles, turns, labels
    assert batch.is_user[0, 0] and not batch.is_user[0, 1]
    assert list(batch.turn[0]) == [0, 1]
    assert batch.sat[1] == cp.SATISFACTIONS.index("well_satisfied")
    assert batch.sent[0, 1] == cp.SENTIMENTS.index("neutral")


def test_batchify_chunking_preserves_order():
    dialogues = cp.generate_synthetic(10, 0.9, seed=6)
    vocab = cp.build_vocab(dialogues)
    batches = cp.batchify(dialogues, vocab, 4)
    assert [b.size for b in batches] == [4, 4, 2]
    assert_batches_equal_reference(dialogues, vocab, 4)


def encode_batch_loop(chunk, vocab):
    """The batch encoder written cell by cell, as a reference for the
    vectorised one."""
    B = len(chunk)
    L = max(len(d.utterances) for d in chunk)
    T = max(len(u.tokens) for d in chunk for u in d.utterances)
    ids = np.full((B, L, T), cp.PAD_ID, dtype=np.intp)
    tok_valid = np.zeros((B, L, T), dtype=bool)
    utt_valid = np.zeros((B, L), dtype=bool)
    is_user = np.zeros((B, L), dtype=bool)
    turn = np.zeros((B, L), dtype=np.intp)
    sent = np.zeros((B, L), dtype=np.intp)
    sat = np.zeros(B, dtype=np.intp)
    token_ids = dict(vocab.items())
    for b, d in enumerate(chunk):
        flags = turn_flags_ref(u.speaker for u in d.utterances)
        sat[b] = cp.SATISFACTIONS.index(d.satisfaction)
        for t, u in enumerate(d.utterances):
            utt_valid[b, t] = True
            is_user[b, t] = u.speaker == "user"
            turn[b, t] = flags[t]
            sent[b, t] = cp.SENTIMENTS.index(u.sentiment)
            for j, tok in enumerate(u.tokens):
                ids[b, t, j] = token_ids.get(tok, cp.UNK_ID)
                tok_valid[b, t, j] = True
    return cp.Batch(ids, tok_valid, utt_valid, is_user, turn, sent, sat)


# a small alphabet, so tokens repeat and some fall outside the vocabulary
SMALL_UTTERANCES = st.builds(cp.Utterance, st.sampled_from(cp.SPEAKERS),
                             st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6),
                             st.sampled_from(cp.SENTIMENTS))


def assert_batches_equal_reference(dialogues, vocab, batch_size):
    batches = cp.batchify(dialogues, vocab, batch_size)
    chunks = [dialogues[i : i + batch_size] for i in range(0, len(dialogues), batch_size)]
    assert len(batches) == len(chunks)
    for got, chunk in zip(batches, chunks):
        want = encode_batch_loop(chunk, vocab)
        for name in ("ids", "tok_valid", "utt_valid", "is_user", "turn", "sent", "sat"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(cp.SATISFACTIONS),
                          st.lists(SMALL_UTTERANCES, min_size=1, max_size=5)),
                min_size=1, max_size=7),
       st.integers(1, 9), st.integers(1, 3))
def test_batchify_equals_cell_by_cell_reference(records, batch_size, min_count):
    """In the given order and in the stable descending-length order that
    ``predict`` batches, with batch sizes up to above the dialogue count."""
    dialogues = [cp.Dialogue(f"d{i}", sat, utts) for i, (sat, utts) in enumerate(records)]
    vocab = cp.build_vocab(dialogues[: len(dialogues) // 2 + 1], min_count)
    assert_batches_equal_reference(dialogues, vocab, batch_size)
    by_length = sorted(dialogues, key=lambda d: len(d.utterances), reverse=True)
    assert_batches_equal_reference(by_length, vocab, batch_size)


def test_batchify_of_no_dialogue_is_empty():
    assert cp.batchify([], cp.Vocabulary({}), 4) == []


@pytest.mark.parametrize("position", [0, 1])
def test_batchify_rejects_a_dialogue_without_utterances(position):
    dialogues = [make_dialogue("a"), make_dialogue("b")]
    dialogues[position].utterances = []
    did = dialogues[position].id
    with pytest.raises(ValueError, match=f"dialogue '{did}' has no utterances"):
        cp.batchify(dialogues, cp.build_vocab(dialogues), 2)


def test_batchify_rejects_an_utterance_without_tokens():
    rows = (("user", "x y", "neutral"), ("staff", "p", "neutral"), ("user", "z", "positive"))
    dialogues = [make_dialogue("a", rows=rows), make_dialogue("b", rows=rows)]
    dialogues[1].utterances[2].tokens = []
    with pytest.raises(ValueError, match="dialogue 'b', utterance 2 has no tokens"):
        cp.batchify(dialogues, cp.build_vocab(dialogues), 1)


@pytest.mark.parametrize("field, value", [("speaker", "agent"), ("sentiment", "angry")])
def test_batchify_rejects_an_unknown_label_naming_the_dialogue(field, value):
    dialogues = [make_dialogue("a"), make_dialogue("b")]
    setattr(dialogues[1].utterances[0], field, value)
    with pytest.raises(ValueError, match=f"dialogue 'b': unknown label '{value}'"):
        cp.batchify(dialogues, cp.build_vocab(dialogues), 2)
