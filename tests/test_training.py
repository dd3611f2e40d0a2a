"""Training machinery: loss fixtures, optimizer trajectory, phase
isolation, determinism, checkpoints, and batching arithmetic."""

import gc
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stman.autodiff as ad
import stman.corpus as cp
import stman.training as tr
from testkit import softmax


def small_config(**kw):
    base = dict(K=6, Z=4, H=4, D=6, E=4, dropout=0.0, lr=0.05, batch=8,
                epochs=2, seed=0)
    base.update(kw)
    return tr.ModelConfig(**base)


def toy_dialogues():
    mk = cp.Utterance
    d1 = cp.Dialogue("d-1", "met", [
        mk("user", ["slow", "broken"], "negative"),
        mk("staff", ["checking", "order"], "neutral"),
        mk("user", ["thanks", "great"], "positive"),
    ])
    d2 = cp.Dialogue("d-2", "unsatisfied", [
        mk("user", ["refund", "terrible", "awful"], "negative"),
        mk("staff", ["status"], "neutral"),
    ])
    return [d1, d2]


# ------------------------------------------------------------ configuration


def test_lr_decay_schedule():
    assert tr.apply_lr_decay(0.1, 0.8, 0) == pytest.approx(0.1)
    assert tr.apply_lr_decay(0.1, 0.8, 1) == pytest.approx(0.08)
    assert tr.apply_lr_decay(0.1, 0.8, 2) == pytest.approx(0.064)
    with pytest.raises(ValueError):
        tr.apply_lr_decay(0.1, 0.8, -1)


def test_variant_table():
    full = tr.variant_config(tr.ModelConfig(), "stman")
    assert full.use_td and full.use_st and full.use_mask and full.use_aux
    plain = tr.variant_config(tr.ModelConfig(), "basic")
    assert not plain.use_td and not plain.use_st
    assert plain.use_mask and plain.use_aux
    no_aux = tr.variant_config(tr.ModelConfig(), "basic-aux")
    assert not no_aux.use_aux and no_aux.use_mask
    no_mask = tr.variant_config(tr.ModelConfig(), "basic-mask")
    assert not no_mask.use_mask and no_mask.use_aux
    with pytest.raises(ValueError):
        tr.variant_config(tr.ModelConfig(), "large")


def test_config_validation_rejects_bad_values():
    for bad in (dict(K=0), dict(dropout=1.0), dict(dropout=-0.1),
                dict(lr=0.0), dict(lr_decay=0.0), dict(momentum_mu=1.0),
                dict(lr=math.nan), dict(lr=math.inf), dict(dropout=-math.inf),
                dict(adv_fraction=1.5), dict(epochs=0)):
        with pytest.raises(ValueError):
            small_config(**bad).validate()
    small_config().validate()  # defaults are fine


# ------------------------------------------------------------------- params


def test_init_params_range_and_determinism():
    cfg = small_config()
    a = tr.init_params(cfg, vocab_size=12)
    b = tr.init_params(cfg, vocab_size=12)
    for name, arr in a.items():
        rows, cols = arr.shape
        limit = 0.01 if rows == 1 else np.sqrt(6.0 / (rows + cols))
        assert np.all(np.abs(arr) < limit), name
        assert np.array_equal(arr, b[name])
    c = tr.init_params(small_config(seed=1), vocab_size=12)
    assert any(not np.array_equal(a[n], c[n]) for n in a)


def test_variant_parameter_allocation():
    full = set(n for n, _ in tr.param_specs(small_config(), 12))
    plain = set(n for n, _ in tr.param_specs(
        small_config(use_td=False, use_st=False), 12))
    lean = set(n for n, _ in tr.param_specs(
        small_config(use_td=False, use_st=False, use_aux=False), 12))
    assert {"td.W_r", "turn.emb"} <= full - plain
    assert not any(n.startswith(("td.", "turn.")) for n in plain)
    dropped = plain - lean
    assert "sa.W" in dropped and "proj.a.W" in dropped
    assert any(n.startswith("gru_a.") for n in dropped)
    assert len(lean) < len(plain) < len(full)


def test_group_names_partition_updates():
    cfg = small_config()
    params = tr.init_params(cfg, 12)
    enc = tr.group_names(params, "enc")
    td = tr.group_names(params, "td")
    task = tr.group_names(params, "task")
    dense = tr.group_names(params, "theta_k")
    assert all(n.startswith("enc.") for n in enc)
    assert all(n.startswith("td.") for n in td)
    assert set(task) == set(params) - set(td)
    assert set(dense) == {n for n in params if n.startswith("proj.")}
    with pytest.raises(ValueError):
        tr.group_names(params, "everything")


def test_fingerprint_tracks_content():
    params = tr.init_params(small_config(), 12)
    before = tr.fingerprint(params, ("enc.",))
    assert before == tr.fingerprint(params, ("enc.",))
    assert before != tr.fingerprint(params, ("td.",))
    params["enc.att.b"] = params["enc.att.b"] + 1.0
    assert before != tr.fingerprint(params, ("enc.",))


# ---------------------------------------------------------------- optimizer


def test_momentum_follows_the_classic_trajectory():
    """Quadratic f(x) = x^2 from x = 1 with lr 0.1, mu 0.9:
    v1 = -0.2, x1 = 0.8; v2 = -0.34, x2 = 0.46."""
    params = {"x": np.array([[1.0]])}
    vel = {"x": np.zeros((1, 1))}
    tr.momentum_step(params, vel, {"x": 2.0 * params["x"]}, 0.1, 0.9, ["x"])
    assert params["x"][0, 0] == pytest.approx(0.8)
    tr.momentum_step(params, vel, {"x": 2.0 * params["x"]}, 0.1, 0.9, ["x"])
    assert params["x"][0, 0] == pytest.approx(0.46)
    assert vel["x"][0, 0] == pytest.approx(-0.34)


def test_momentum_skips_absent_gradients():
    params = {"a": np.ones((2, 2)), "b": np.ones((2, 2))}
    vel = {k: np.full((2, 2), 0.5) for k in params}
    tr.momentum_step(params, vel, {"a": np.ones((2, 2)), "b": None},
                     lr=0.1, mu=0.9, names=["a", "b"])
    assert np.all(params["b"] == 1.0)
    assert np.all(vel["b"] == 0.5)  # velocity not decayed either
    assert np.all(params["a"] != 1.0)


# ------------------------------------------------------------------- losses


def logits_of(rows):
    """Logits whose row softmax is the given distributions, as one matrix:
    log p, with -1000 for a zero probability. Per-utterance ones hold the
    packed rows of the real utterances, which for one dialogue is one row
    per utterance."""
    p = np.array(rows, dtype=np.float64)
    return ad.constant(np.log(p, out=np.full_like(p, -1000.0), where=p > 0.0))


def interleaved_logits(rows):
    """The discriminator's (2*R, 2) logits from R rows that each hold
    stream m's two class probabilities, then stream a's."""
    return logits_of(np.reshape(rows, (-1, 2)))


def test_task_loss_zero_when_certain_and_right():
    z_m = logits_of([[1.0, 0.0, 0.0]])
    loss = tr.task_loss(z_m, np.array([0]), None, None,
                        ad.pack(np.array([[True]])), use_aux=False)
    assert abs(loss.value[0, 0]) <= 1e-12


def test_task_loss_uniform_is_log3():
    z_m = logits_of([[1 / 3, 1 / 3, 1 / 3]])
    loss = tr.task_loss(z_m, np.array([2]), None, None,
                        ad.pack(np.array([[True]])), use_aux=False)
    assert loss.value[0, 0] == pytest.approx(math.log(3.0), abs=1e-12)


def test_task_loss_with_uniform_sentiments_is_two_log3():
    L = 4
    z_m = logits_of([[1 / 3] * 3])
    sa = logits_of([[1 / 3] * 3] * L)
    loss = tr.task_loss(z_m, np.array([1]), sa,
                        np.zeros((1, L), dtype=int),
                        ad.pack(np.ones((1, L), dtype=bool)), use_aux=True)
    assert loss.value[0, 0] == pytest.approx(2.0 * math.log(3.0), abs=1e-12)


def test_task_loss_mixed_fixture():
    z_m = logits_of([[0.5, 0.25, 0.25]])
    sa = logits_of([[0.25, 0.5, 0.25], [0.2, 0.2, 0.6]])
    loss = tr.task_loss(z_m, np.array([0]), sa, np.array([[1, 2]]),
                        ad.pack(np.ones((1, 2), dtype=bool)), use_aux=True)
    want = -math.log(0.5) + 0.5 * (-math.log(0.5) - math.log(0.6))
    assert loss.value[0, 0] == pytest.approx(want, abs=1e-12)


def test_task_loss_batch_is_dialogue_mean():
    z_m = logits_of([[0.5, 0.25, 0.25], [0.1, 0.8, 0.1]])
    loss = tr.task_loss(z_m, np.array([0, 1]), None, None,
                        ad.pack(np.ones((2, 1), dtype=bool)), use_aux=False)
    want = 0.5 * (-math.log(0.5) - math.log(0.8))
    assert loss.value[0, 0] == pytest.approx(want, abs=1e-12)


def test_task_loss_ignores_padded_sentiment_rows():
    """A padded utterance has no logit row, and its grid cell's class is
    never read; logits that carry a row for it are rejected."""
    z_m = logits_of([[1.0, 0.0, 0.0]])
    sa = logits_of([[0.5, 0.3, 0.2]])
    pk = ad.pack(np.array([[True, False]]))
    loss = tr.task_loss(z_m, np.array([0]), sa, np.array([[0, 2]]), pk, use_aux=True)
    assert loss.value[0, 0] == pytest.approx(-math.log(0.5), abs=1e-12)
    with pytest.raises(ad.ShapeError):
        tr.task_loss(z_m, np.array([0]), logits_of([[0.5, 0.3, 0.2], [1e-30, 1.0, 0.0]]),
                     np.array([[0, 0]]), pk, use_aux=True)


def test_adv_loss_perfect_discrimination_is_zero():
    zk = interleaved_logits([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]])
    j = tr.adv_loss(zk, ad.pack(np.ones((1, 2), dtype=bool)))
    assert abs(j.value[0, 0]) <= 1e-12


def test_adv_loss_coin_flip_is_minus_log2():
    zk = interleaved_logits([[0.5, 0.5, 0.5, 0.5]])
    j = tr.adv_loss(zk, ad.pack(np.ones((1, 1), dtype=bool)))
    assert j.value[0, 0] == pytest.approx(-math.log(2.0), abs=1e-12)


def test_adv_loss_mixed_fixture_and_padding():
    # each row: stream m's two classes, then stream a's
    zk = interleaved_logits([[0.9, 0.1, 0.3, 0.7], [0.8, 0.2, 0.4, 0.6]])
    j = tr.adv_loss(zk, ad.pack(np.ones((1, 2), dtype=bool)))
    want = (math.log(0.9) + math.log(0.8) + math.log(0.7) + math.log(0.6)) / 4.0
    assert j.value[0, 0] == pytest.approx(want, abs=1e-12)
    # a padded utterance has no row
    j_pad = tr.adv_loss(interleaved_logits([[0.9, 0.1, 0.3, 0.7]]),
                        ad.pack(np.array([[True, False]])))
    want_pad = (math.log(0.9) + math.log(0.7)) / 2.0
    assert j_pad.value[0, 0] == pytest.approx(want_pad, abs=1e-12)
    with pytest.raises(ad.ShapeError):
        tr.adv_loss(zk, ad.pack(np.array([[True, False]])))


# --------------------------------------------------------- batched forwards


def test_batched_task_loss_is_mean_of_singles():
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config(use_td=False)
    params = tr.init_params(cfg, len(vocab))
    (batch,) = cp.batchify(dialogues, vocab, 2)
    loss2, z_m2, _ = tr.forward_task(tr.as_leaves(params), batch, cfg)
    singles = []
    for i, d in enumerate(dialogues):
        (b1,) = cp.batchify([d], vocab, 1)
        loss1, z_m1, _ = tr.forward_task(tr.as_leaves(params), b1, cfg)
        singles.append(loss1.value[0, 0])
        assert np.max(np.abs(softmax(z_m2.value)[i] - softmax(z_m1.value)[0])) <= 1e-10
    assert loss2.value[0, 0] == pytest.approx(np.mean(singles), abs=1e-10)


def test_batched_adv_value_is_mean_of_singles():
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    params = tr.init_params(cfg, len(vocab))
    (batch,) = cp.batchify(dialogues, vocab, 2)
    j2 = tr.forward_adv(tr.as_leaves(params), batch, cfg)
    singles = []
    for d in dialogues:
        (b1,) = cp.batchify([d], vocab, 1)
        singles.append(tr.forward_adv(tr.as_leaves(params), b1, cfg).value[0, 0])
    assert j2.value[0, 0] == pytest.approx(np.mean(singles), abs=1e-10)


utterances = st.builds(
    cp.Utterance, st.sampled_from(cp.SPEAKERS),
    st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=5),
    st.sampled_from(cp.SENTIMENTS))
dialogue_batches = st.lists(
    st.builds(cp.Dialogue, st.just("d"), st.sampled_from(cp.SATISFACTIONS),
              st.lists(utterances, min_size=1, max_size=7)),
    min_size=1, max_size=8)


def dialogues_of_lengths(lengths):
    mk = cp.Utterance
    return [cp.Dialogue(f"d{i}", cp.SATISFACTIONS[i % 3],
                        [mk(cp.SPEAKERS[(i + t) % 2], ["a", "b", "c"][: 1 + (i + t) % 3],
                            cp.SENTIMENTS[t % 3]) for t in range(n)])
            for i, n in enumerate(lengths)]


FLAG_SETS = [dict(zip(("use_td", "use_st", "use_mask", "use_aux"), flags))
             for flags in itertools.product((False, True), repeat=4)]


@settings(max_examples=12, deadline=None)
@given(dialogue_batches, st.integers(0, 2**16))
@example(dialogues_of_lengths([2, 5, 1, 5, 3, 1, 7, 2]), 0)
def test_batched_losses_are_mean_of_singles_on_random_batches(dialogues, seed):
    """The batch packs its dialogues longest first (unsorted lengths,
    ties, single utterances); under every variant flag set, the batched
    task loss and adversarial objective, and each parameter's gradient
    of them, equal the mean over the single-dialogue batches."""
    vocab = cp.build_vocab(dialogues, min_count=1)
    (batch,) = cp.batchify(dialogues, vocab, len(dialogues))
    singles = [cp.batchify([d], vocab, 1)[0] for d in dialogues]
    for flags in FLAG_SETS:
        cfg = small_config(seed=seed, **flags)
        params = tr.init_params(cfg, len(vocab))
        forwards = [lambda P, b: tr.forward_task(P, b, cfg)[0]]
        if cfg.use_td:
            forwards.append(lambda P, b: tr.forward_adv(P, b, cfg))
        for forward in forwards:
            grads, value = tr._grads_of(params, lambda P: forward(P, batch))
            runs = [tr._grads_of(params, lambda P: forward(P, b)) for b in singles]
            assert abs(value - np.mean([v for _, v in runs])) <= 1e-10, flags
            for name, arr in params.items():
                want = np.mean([np.zeros_like(arr) if g[name] is None else g[name]
                                for g, _ in runs], axis=0)
                got = np.zeros_like(arr) if grads[name] is None else grads[name]
                assert np.max(np.abs(got - want)) <= 1e-10, (flags, name)


def test_gradient_check_passes_on_a_packed_batch():
    """One batch of lengths 3, 1, 2, in that order: the forwards reorder
    its dialogues and leave out its padded utterances, and both
    objectives' gradients must still match the finite differences, with
    the satisfaction attention over the user rows (role mask) and over
    every row (no keep flags)."""
    dialogues = dialogues_of_lengths([3, 1, 2])
    vocab = cp.build_vocab(dialogues, min_count=1)
    for use_mask in (True, False):
        cfg = small_config(K=3, Z=2, H=2, D=3, E=2, use_mask=use_mask)
        assert cfg.use_td
        worst = tr.gradient_check(cfg, dialogues, vocab)
        assert max(worst.values()) <= 1e-4, use_mask


def test_training_step_runs_the_recurrences_on_real_utterances_only(monkeypatch):
    """In one training step every interaction GRU runs one row per real
    utterance and the discriminator one per real utterance and stream,
    while dropout is still drawn over the whole padded (L*B, 2E) grid."""
    dialogues = dialogues_of_lengths([3, 1, 2])
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config(dropout=0.2, batch=4)
    params = tr.init_params(cfg, len(vocab))
    velocities = {n: np.zeros_like(a) for n, a in params.items()}
    rows = []
    real_gru = ad.gru_seq

    def spy_gru(XW, U, b, counts):
        rows.append(int(np.sum(counts)))
        return real_gru(XW, U, b, counts)

    class SpyRng:
        def __init__(self):
            self.rng = np.random.default_rng(1)
            self.shapes = []

        def random(self, shape):
            self.shapes.append(shape)
            return self.rng.random(shape)

    drop_rng = SpyRng()
    monkeypatch.setattr(ad, "gru_seq", spy_gru)
    tr.train_epoch(params, velocities, dialogues, {d.id for d in dialogues},
                   vocab, cfg, epoch=0, shuffle_rng=np.random.default_rng(0),
                   drop_rng=drop_rng)
    real = 3 + 1 + 2
    # Phase 1 descent and ascent: the discriminator; Phase 2: the shared
    # and private GRUs of both streams
    assert rows == [2 * real, 2 * real] + [real] * 4
    assert drop_rng.shapes == [(3 * 3, 2 * cfg.E)] * 3


def test_zero_parameters_predict_exactly_uniform():
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config(use_td=False)
    params = {name: np.zeros(shape)
              for name, shape in tr.param_specs(cfg, len(vocab))}
    (batch,) = cp.batchify(dialogues, vocab, 2)
    loss, z_m, _ = tr.forward_task(tr.as_leaves(params), batch, cfg)
    assert loss.value[0, 0] == pytest.approx(2.0 * math.log(3.0), abs=1e-12)
    assert np.max(np.abs(softmax(z_m.value) - 1.0 / 3.0)) <= 1e-15


def test_predict_breaks_ties_toward_lowest_index():
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config(use_td=False)
    params = {name: np.zeros(shape)
              for name, shape in tr.param_specs(cfg, len(vocab))}
    use_preds, sa_preds = tr.predict(params, dialogues, vocab, cfg)
    assert use_preds == [0, 0]
    assert sa_preds == [0] * 5  # one per real utterance, corpus order


def test_batched_predictions_equal_single_dialogue_predictions():
    # dialogues of several lengths, so batches carry padded steps
    dialogues = cp.generate_synthetic(12, 0.9, seed=4)
    assert len({len(d.utterances) for d in dialogues}) > 1
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    # scaled up from init so that the predicted classes vary
    params = {name: 3.0 * arr
              for name, arr in tr.init_params(cfg, len(vocab)).items()}
    batched = tr.predict(params, dialogues, vocab, cfg)
    assert len(set(batched[1])) == 3
    assert batched == tr.predict(params, dialogues, vocab, cfg, batch_size=1)
    assert (tr.discriminator_accuracy(params, dialogues, vocab, cfg)
            == tr.discriminator_accuracy(params, dialogues, vocab,
                                         small_config(batch=1)))


mixed_corpora = st.lists(
    st.builds(cp.Dialogue, st.just("d"), st.sampled_from(cp.SATISFACTIONS),
              st.lists(utterances, min_size=1, max_size=7)),
    min_size=1, max_size=12)


@settings(max_examples=12, deadline=None)
@given(mixed_corpora, st.integers(1, 9), st.integers(0, 2**16))
def test_length_sorted_predict_equals_single_dialogue_predictions(dialogues, batch,
                                                                  seed):
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config(batch=batch, seed=seed)
    params = {name: 3.0 * arr
              for name, arr in tr.init_params(cfg, len(vocab)).items()}
    singles = [tr.predict(params, [d], vocab, cfg) for d in dialogues]
    want = ([u for use, _ in singles for u in use],
            [s for _, sa in singles for s in sa])
    assert tr.predict(params, dialogues, vocab, cfg) == want
    assert (tr.evaluate(params, dialogues, vocab, cfg)
            == tr.evaluate(params, dialogues, vocab, small_config(batch=1, seed=seed)))


def test_predict_batches_dialogues_in_stable_descending_length_order(monkeypatch):
    lengths = [2, 5, 3, 5, 1, 3, 4, 2, 5]
    dialogues = [cp.Dialogue(f"d{i}", "met",
                             [cp.Utterance(cp.SPEAKERS[t % 2], ["w"], "neutral")
                              for t in range(n)])
                 for i, n in enumerate(lengths)]
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config(batch=4)
    params = tr.init_params(cfg, len(vocab))
    seen = []
    real_batchify = cp.batchify

    def spy(ds, *args):
        batches = real_batchify(ds, *args)
        seen.append(([d.id for d in ds], batches[0].utt_valid.shape[1]))
        return batches

    monkeypatch.setattr(cp, "batchify", spy)
    tr.predict(params, dialogues, vocab, cfg)
    assert [L for _, L in seen] == [5, 3, 1]
    assert [i for ids, _ in seen for i in ids] == [
        "d1", "d3", "d8", "d6", "d2", "d5", "d0", "d7", "d4"]


def test_predict_builds_one_batch_of_at_most_batch_size_dialogues_at_a_time(monkeypatch):
    """Memory does not grow with the corpus: batchify never sees more
    than one batch's dialogues, and each batch is built only after the
    one before it has run."""
    dialogues = dialogues_of_lengths([2, 5, 3, 5, 1, 3, 4, 2, 5, 1, 2])
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config(batch=3)
    params = tr.init_params(cfg, len(vocab))
    want = tr.predict(params, dialogues, vocab, cfg)
    events = []
    real_batchify, real_forward = cp.batchify, tr.forward_task

    def spy_batchify(ds, vocab, batch_size):
        events.append(("batchify", len(ds)))
        return real_batchify(ds, vocab, batch_size)

    def spy_forward(*args, **kwargs):
        events.append(("forward", None))
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(cp, "batchify", spy_batchify)
    monkeypatch.setattr(tr, "forward_task", spy_forward)
    assert tr.predict(params, dialogues, vocab, cfg) == want
    assert events == [("batchify", 3), ("forward", None)] * 3 + [
        ("batchify", 2), ("forward", None)]


@pytest.mark.parametrize("batch_size", [0, -1])
def test_predict_rejects_batch_size_below_one(batch_size):
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    params = tr.init_params(cfg, len(vocab))
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        tr.predict(params, dialogues, vocab, cfg, batch_size=batch_size)


def test_train_and_predict_reject_an_utterance_without_tokens():
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    dialogues[1].utterances[1].tokens = []
    cfg = small_config(epochs=1)
    with pytest.raises(ValueError, match="dialogue 'd-2', utterance 1 has no tokens"):
        tr.predict(tr.init_params(cfg, len(vocab)), dialogues, vocab, cfg)
    with pytest.raises(ValueError, match="dialogue 'd-2', utterance 1 has no tokens"):
        tr.train(cp.CorpusSplit(train=dialogues, dev=[], test=[]), cfg)


def test_discriminator_accuracy_of_no_dialogue_is_an_error():
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    params = tr.init_params(cfg, len(vocab))
    with pytest.raises(ValueError, match="no utterance to score"):
        tr.discriminator_accuracy(params, [], vocab, cfg)


def test_discriminator_accuracy_bounds_and_determinism():
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    params = tr.init_params(cfg, len(vocab))
    a = tr.discriminator_accuracy(params, dialogues, vocab, cfg)
    b = tr.discriminator_accuracy(params, dialogues, vocab, cfg)
    assert a == b
    assert 0.0 <= a <= 1.0


# ------------------------------------------------------------ update phases


def test_maximization_step_leaves_encoder_untouched():
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    params = tr.init_params(cfg, len(vocab))
    velocities = {n: np.zeros_like(a) for n, a in params.items()}
    (batch,) = cp.batchify(dialogues, vocab, 2)
    enc_before = tr.fingerprint(params, ("enc.",))
    td_before = tr.fingerprint(params, ("td.",))
    proj_before = tr.fingerprint(params, ("proj.",))

    grads, _ = tr._grads_of(params, lambda P: tr.forward_adv(P, batch, cfg))
    ascent = {n: None if g is None else -g for n, g in grads.items()}
    tr.momentum_step(params, velocities, ascent, 0.1, 0.9,
                     tr.group_names(params, "td") + tr.group_names(params, "theta_k"))
    assert tr.fingerprint(params, ("enc.",)) == enc_before
    assert tr.fingerprint(params, ("td.",)) != td_before
    assert tr.fingerprint(params, ("proj.",)) != proj_before


def test_minimization_step_leaves_discriminator_untouched():
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    params = tr.init_params(cfg, len(vocab))
    velocities = {n: np.zeros_like(a) for n, a in params.items()}
    (batch,) = cp.batchify(dialogues, vocab, 2)
    td_before = tr.fingerprint(params, ("td.",))
    enc_before = tr.fingerprint(params, ("enc.",))
    grads, _ = tr._grads_of(params, lambda P: tr.forward_adv(P, batch, cfg))
    tr.momentum_step(params, velocities, grads, 0.1, 0.9,
                     tr.group_names(params, "enc"))
    assert tr.fingerprint(params, ("td.",)) == td_before
    assert tr.fingerprint(params, ("enc.",)) != enc_before


def test_scoped_gradients_equal_full_leaf_gradients():
    """Making only the updated names leaves changes no gradient of
    theirs, bit for bit, in either Phase 1 step."""
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    params = tr.init_params(cfg, len(vocab))
    (batch,) = cp.batchify(dialogues, vocab, 2)

    def build(P):
        return tr.forward_adv(P, batch, cfg)

    full, full_value = tr._grads_of(params, build)
    for names in (tr.group_names(params, "enc"),
                  tr.group_names(params, "td") + tr.group_names(params, "theta_k")):
        scoped, value = tr._grads_of(params, build, names)
        assert value == full_value
        assert sorted(scoped) == sorted(names)
        for name in names:
            assert np.array_equal(scoped[name], full[name]), name


def test_phase1_ascent_records_no_encoder_node(monkeypatch):
    """The ascent step updates the discriminator and the projections
    only, so the encoder runs on constants and records nothing."""
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config(batch=2)
    params = tr.init_params(cfg, len(vocab))
    velocities = {n: np.zeros_like(a) for n, a in params.items()}
    created = []
    real_encode = tr.encoder.encode_grid

    def spy(*args, **kwargs):
        tape = ad._ACTIVE.stack[-1]
        before = len(tape.nodes)
        out = real_encode(*args, **kwargs)
        created.append(len(tape.nodes) - before)
        return out

    monkeypatch.setattr(tr.encoder, "encode_grid", spy)
    tr.train_epoch(params, velocities, dialogues, {d.id for d in dialogues},
                   vocab, cfg, epoch=0, shuffle_rng=np.random.default_rng(0),
                   drop_rng=np.random.default_rng(1))
    # one batch: Phase 1 descent, Phase 1 ascent, Phase 2
    assert len(created) == 3
    descent, ascent, task = created
    assert ascent == 0
    assert descent > 0 and task > 0


@pytest.mark.parametrize("n_adv", [3, 8], ids=["sampled", "all"])
def test_phase1_walks_only_the_sampled_dialogues(monkeypatch, n_adv):
    """Phase 1 sees each sampled dialogue once per step kind and no
    other; with every dialogue sampled it reuses Phase 2's batches."""
    dialogues = toy_dialogues() * 4
    for i, d in enumerate(dialogues):
        dialogues[i] = cp.Dialogue(f"d-{i}", d.satisfaction, d.utterances)
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config(batch=3)
    params = tr.init_params(cfg, len(vocab))
    velocities = {n: np.zeros_like(a) for n, a in params.items()}
    seen = {"adv": [], "task": []}
    real_adv, real_task = tr.forward_adv, tr.forward_task

    def spy_adv(P, batch, *args, **kwargs):
        seen["adv"].append(batch)
        return real_adv(P, batch, *args, **kwargs)

    def spy_task(P, batch, *args, **kwargs):
        seen["task"].append(batch)
        return real_task(P, batch, *args, **kwargs)

    monkeypatch.setattr(tr, "forward_adv", spy_adv)
    monkeypatch.setattr(tr, "forward_task", spy_task)
    adv_ids = {d.id for d in dialogues[:n_adv]}
    tr.train_epoch(params, velocities, dialogues, adv_ids, vocab, cfg, epoch=0,
                   shuffle_rng=np.random.default_rng(0),
                   drop_rng=np.random.default_rng(1))
    descent = seen["adv"][::2]
    assert [id(b) for b in seen["adv"][1::2]] == [id(b) for b in descent]
    assert sum(b.size for b in descent) == n_adv
    assert sum(b.size for b in seen["task"]) == len(dialogues)
    reused = [id(b) for b in descent] == [id(b) for b in seen["task"]]
    assert reused == (n_adv == len(dialogues))


def test_epoch_without_adversarial_sample_never_touches_discriminator():
    dialogues = toy_dialogues() * 4
    for i, d in enumerate(dialogues):
        dialogues[i] = cp.Dialogue(f"d-{i}", d.satisfaction, d.utterances)
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config(adv_fraction=0.0)
    params = tr.init_params(cfg, len(vocab))
    velocities = {n: np.zeros_like(a) for n, a in params.items()}
    td_before = tr.fingerprint(params, ("td.",))
    summary = tr.train_epoch(params, velocities, dialogues, set(), vocab, cfg,
                             epoch=0, shuffle_rng=np.random.default_rng(0),
                             drop_rng=np.random.default_rng(1))
    assert summary["adv_value"] is None
    assert tr.fingerprint(params, ("td.",)) == td_before
    assert tr.fingerprint(params, ("enc.",)) != tr.fingerprint(
        tr.init_params(cfg, len(vocab)), ("enc.",))


# ------------------------------------------------------------- whole runs


def test_saturated_training_keeps_a_task_gradient():
    """At lr=1e6 the heads saturate within an epoch; the task loss still
    has a non-zero, finite gradient, where a log clamped at 1e-12 gave
    exactly zero and froze training."""
    dialogues = cp.generate_synthetic(60, 0.9, seed=0)
    cfg = small_config(lr=1e6, epochs=2)
    result = tr.train(cp.CorpusSplit(dialogues, [], []), cfg)
    batch = cp.batchify(dialogues, result.vocab, cfg.batch)[0]
    grads, value = tr._grads_of(result.params,
                                lambda P: tr.forward_task(P, batch, cfg)[0])
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values() if g is not None))
    assert math.isfinite(value) and math.isfinite(norm)
    assert norm > 0.0


@pytest.mark.parametrize("planted, use_td, phase", [
    ("td.", True, "phase 1 descent"),
    ("use.", True, "phase 2"),
    ("enc.", False, "phase 2"),
])
def test_non_finite_objective_stops_training_before_the_step(monkeypatch, planted,
                                                             use_td, phase):
    split = cp.split_corpus(cp.generate_synthetic(24, correlation_q=0.9, seed=5), seed=5)
    cfg = small_config(use_td=use_td)
    real_init = tr.init_params
    made = {}

    def nan_init(cfg, vocab_size):
        params = real_init(cfg, vocab_size)
        name = min(n for n in params if n.startswith(planted))
        params[name][...] = np.nan
        made["params"] = params
        made["before"] = {n: arr.copy() for n, arr in params.items()}
        return params

    monkeypatch.setattr(tr, "init_params", nan_init)
    with pytest.raises(tr.TrainingDiverged,
                       match=rf"^epoch 0, batch 0, {phase}: objective is nan$"):
        tr.train(split, cfg)
    # only Phase 1 steps ran before a Phase 2 batch 0; the NaN batch took none
    params, before = made["params"], made["before"]
    stepped = (set(tr.group_names(params, "enc") + tr.group_names(params, "td")
                   + tr.group_names(params, "theta_k"))
               if use_td and phase == "phase 2" else set())
    assert [n for n in params if n not in stepped
            and params[n].tobytes() != before[n].tobytes()] == []


def test_training_descends_the_task_loss():
    corpus = cp.generate_synthetic(40, correlation_q=0.9, seed=2)
    split = cp.split_corpus(corpus, seed=2)
    cfg = small_config(use_td=False, use_st=False, epochs=4)
    result = tr.train(split, cfg)
    losses = [h["task_loss"] for h in result.history]
    assert losses[-1] < losses[0]
    assert result.best_epoch >= 0


def test_training_is_bit_reproducible():
    corpus = cp.generate_synthetic(32, correlation_q=0.8, seed=3)
    split = cp.split_corpus(corpus, seed=3)
    cfg = small_config(dropout=0.2, epochs=2)  # full model, dropout live
    r1 = tr.train(split, cfg)
    r2 = tr.train(split, cfg)
    assert tr.fingerprint(r1.params) == tr.fingerprint(r2.params)
    assert r1.history == r2.history
    assert r1.best_epoch == r2.best_epoch


def test_best_epoch_matches_history_and_restored_params():
    corpus = cp.generate_synthetic(40, correlation_q=0.9, seed=4)
    split = cp.split_corpus(corpus, seed=4)
    cfg = small_config(use_td=False, epochs=3)
    result = tr.train(split, cfg)
    f1s = [h["dev_use_macro_f1"] for h in result.history]
    assert result.best_epoch == int(np.argmax(f1s))
    again = tr.evaluate(result.params, split.dev, result.vocab, cfg)
    assert again["use"]["macro_f1"] == pytest.approx(f1s[result.best_epoch])


def test_training_pauses_the_cyclic_collector_and_restores_it(monkeypatch):
    split = cp.split_corpus(cp.generate_synthetic(24, correlation_q=0.9, seed=5), seed=5)
    cfg = small_config(use_td=False, epochs=2)
    enabled_in_epoch = []
    collections = []
    real_epoch = tr.train_epoch

    def spy(*args, **kwargs):
        enabled_in_epoch.append(gc.isenabled())
        return real_epoch(*args, **kwargs)

    def on_gc(phase, info):
        if phase == "stop":
            collections.append(info["generation"])

    monkeypatch.setattr(tr, "train_epoch", spy)
    assert gc.isenabled()
    gc.callbacks.append(on_gc)
    try:
        tr.train(split, cfg)
    finally:
        gc.callbacks.remove(on_gc)
    # no automatic pass during the run, one full collection per epoch
    assert enabled_in_epoch == [False, False]
    assert collections == [2, 2]
    assert gc.isenabled()

    gc.disable()
    try:
        tr.train(split, cfg)
        assert not gc.isenabled()  # a caller's paused collector stays paused
    finally:
        gc.enable()

    def failing_epoch(*args, **kwargs):
        raise RuntimeError("epoch failed")

    monkeypatch.setattr(tr, "train_epoch", failing_epoch)
    with pytest.raises(RuntimeError, match="epoch failed"):
        tr.train(split, cfg)
    assert gc.isenabled()


def test_empty_training_split_rejected():
    with pytest.raises(ValueError):
        tr.train(cp.CorpusSplit([], [], []), small_config())


# -------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip_is_exact(tmp_path):
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    params = tr.init_params(cfg, len(vocab))
    path = tmp_path / "model.json"
    tr.save_checkpoint(path, params, cfg, len(vocab))
    loaded, cfg2, size = tr.load_checkpoint(path)
    assert cfg2 == cfg
    assert size == len(vocab)
    for name, arr in params.items():
        assert np.array_equal(loaded[name], arr), name


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "other", "config": {}, "params": {}}')
    with pytest.raises(ValueError, match="format"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("field, value", [
    ("K", 3.5), ("use_td", "no"), ("seed", True), ("lr", "0.1"),
    # the JSON file carries these as NaN and -Infinity
    ("lr", math.nan), ("momentum_mu", -math.inf),
])
def test_checkpoint_rejects_config_field_of_wrong_type(tmp_path, field, value):
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    path = tmp_path / "model.json"
    tr.save_checkpoint(path, tr.init_params(cfg, len(vocab)), cfg, len(vocab))
    payload = json.loads(path.read_text())
    payload["config"][field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^{field} must be "):
        tr.load_checkpoint(path)


def test_checkpoint_with_retired_schedule_keys_loads_and_predicts(tmp_path):
    # checkpoints written before the adv_theta_k and adv_phase1 fields
    # were dropped carry them in their config
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    params = tr.init_params(cfg, len(vocab))
    path = tmp_path / "model.json"
    tr.save_checkpoint(path, params, cfg, len(vocab))
    payload = json.loads(path.read_text())
    payload["config"].update(adv_theta_k="dense", adv_phase1="every")
    path.write_text(json.dumps(payload))
    loaded, cfg2, _ = tr.load_checkpoint(path)
    assert cfg2 == cfg
    (batch,) = cp.batchify(dialogues, vocab, 2)
    _, z_want, sa_want = tr.forward_task(tr.as_leaves(params), batch, cfg)
    _, z_got, sa_got = tr.forward_task(tr.as_leaves(loaded), batch, cfg2)
    assert np.array_equal(z_got.value, z_want.value)
    assert np.array_equal(sa_got.value, sa_want.value)
    assert (tr.predict(loaded, dialogues, vocab, cfg2)
            == tr.predict(params, dialogues, vocab, cfg))


def _rename_config_key(old, new):
    def doctor(config):
        config[new] = config.pop(old)
    return doctor


@pytest.mark.parametrize("doctor, message", [
    pytest.param(_rename_config_key("use_td", "use_tdd"),
                 r"unknown \['use_tdd'\], missing \['use_td'\]", id="misspelled"),
    pytest.param(lambda config: config.update(adv_schedule="every"),
                 r"unknown \['adv_schedule'\], missing \[\]", id="unknown"),
    pytest.param(lambda config: config.pop("seed"),
                 r"unknown \[\], missing \['seed'\]", id="missing"),
])
def test_checkpoint_rejects_unknown_and_missing_config_keys(tmp_path, doctor, message):
    """Only the retired schedule keys may be extra, and every field must be
    present, so a misspelled key cannot fall back to a default."""
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    path = tmp_path / "model.json"
    tr.save_checkpoint(path, tr.init_params(cfg, len(vocab)), cfg, len(vocab))
    payload = json.loads(path.read_text())
    doctor(payload["config"])
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^checkpoint config mismatch: {message}$"):
        tr.load_checkpoint(path)


def test_checkpoint_rejects_missing_and_misshapen_params(tmp_path):
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    params = tr.init_params(cfg, len(vocab))
    path = tmp_path / "model.json"

    broken = dict(params)
    del broken["sa.W"]
    tr.save_checkpoint(path, broken, cfg, len(vocab))
    with pytest.raises(ValueError, match="sa.W"):
        tr.load_checkpoint(path)

    broken = dict(params)
    broken["sa.W"] = np.zeros((1, 1))
    tr.save_checkpoint(path, broken, cfg, len(vocab))
    with pytest.raises(ValueError, match="shape"):
        tr.load_checkpoint(path)


def _drop_last_value(payload):
    payload["params"]["sa.W"]["values"].pop()


def _set_first_value(value):
    def doctor(payload):
        payload["params"]["sa.W"]["values"][0] = value
    return doctor


def _set_vocab_size(value):
    def doctor(payload):
        payload["vocab_size"] = value
    return doctor


def _drop(*keys):
    def doctor(payload):
        for key in keys[:-1]:
            payload = payload[key]
        del payload[keys[-1]]
    return doctor


def _set(*keys, value):
    def doctor(payload):
        for key in keys[:-1]:
            payload = payload[key]
        payload[keys[-1]] = value
    return doctor


@pytest.mark.parametrize("doctor, names", [
    # the JSON file carries these as NaN, Infinity and -Infinity
    pytest.param(_set_first_value(math.nan), "^sa.W: non-finite", id="nan"),
    pytest.param(_set_first_value(math.inf), "^sa.W: non-finite", id="inf"),
    pytest.param(_set_first_value(-math.inf), "^sa.W: non-finite", id="-inf"),
    pytest.param(_drop_last_value, "^sa.W: values must be a flat list of",
                 id="one-short"),
    pytest.param(_set_first_value("0.5"), "^sa.W: values must be", id="string"),
    pytest.param(_set_first_value(None), "^sa.W: values must be", id="null"),
    pytest.param(_set_first_value([0.5]), "^sa.W: values must be", id="nested"),
    pytest.param(_set_vocab_size(7.0), "^vocab_size must be", id="vocab-float"),
    pytest.param(_set_vocab_size(0), "^vocab_size must be", id="vocab-zero"),
    pytest.param(_set_vocab_size(True), "^vocab_size must be", id="vocab-bool"),
    pytest.param(_set_vocab_size("7"), "^vocab_size must be", id="vocab-string"),
    # a doctor that returns a value replaces the whole payload
    pytest.param(lambda payload: [payload], "^checkpoint must be a JSON object, got list",
                 id="payload-list"),
    pytest.param(lambda payload: {"format": payload["format"]},
                 "^checkpoint has no 'config' field", id="format-only"),
    pytest.param(_drop("vocab_size"), "^checkpoint has no 'vocab_size' field",
                 id="no-vocab-size"),
    pytest.param(_drop("params"), "^checkpoint has no 'params' field", id="no-params"),
    pytest.param(_set("config", value=[1]), "^config must be a JSON object, got list",
                 id="config-list"),
    pytest.param(_set("params", value="sa.W"), "^params must be a JSON object, got str",
                 id="params-string"),
    pytest.param(_drop("params", "sa.W", "shape"),
                 "^sa.W: entry must be an object with 'shape' and 'values'", id="no-shape"),
    pytest.param(_drop("params", "sa.W", "values"),
                 "^sa.W: entry must be an object with 'shape' and 'values'", id="no-values"),
    pytest.param(_set("params", "sa.W", value=[0.5]),
                 "^sa.W: entry must be an object", id="entry-list"),
    pytest.param(_set("params", "sa.W", "shape", value=7), r"^sa.W: shape 7 != expected",
                 id="shape-int"),
])
def test_checkpoint_rejects_doctored_values(tmp_path, doctor, names):
    dialogues = toy_dialogues()
    vocab = cp.build_vocab(dialogues, min_count=1)
    cfg = small_config()
    path = tmp_path / "model.json"
    tr.save_checkpoint(path, tr.init_params(cfg, len(vocab)), cfg, len(vocab))
    payload = json.loads(path.read_text())
    replaced = doctor(payload)
    path.write_text(json.dumps(payload if replaced is None else replaced))
    with pytest.raises(ValueError, match=names):
        tr.load_checkpoint(path)
