"""Acceptance gate: eight go/no-go checks, one test per criterion.

1. gradient integrity on the full toy model (finite differences)
2. exactness fixtures (turn relabeling, role mask, GRU algebra, losses, lr)
3. oracle equivalence (metrics, batched vs unbatched, scalar recurrence)
4. training sanity (loss descent and dev accuracy on synthetic data)
5. ablation direction (variant medians ordered as expected)
6. adversarial mechanics (phase isolation and objective movement)
7. heuristic baselines (counting-oracle agreement, perfect-correlation case)
8. determinism (byte-identical artifacts across repeated CLI runs)

The five basic-variant trainings are shared between checks 4 and 5
through a module fixture so the expensive runs happen once.
"""

import math
import statistics
import time

import numpy as np
import pytest

import stman.autodiff as ad
import stman.corpus as cp
import stman.evalcli as ev
import stman.heads as hd
import stman.interaction as it
import stman.training as tr
from oracles import (accuracy_oracle, confusion_oracle, dialogue_forward_ref,
                     gru_shared_ref, gru_task_ref, macro_f1_oracle)

ACCEPT_BASE = dict(K=32, E=16, Z=32, epochs=10)
ABLATION_SEEDS = 5


@pytest.fixture(scope="module")
def corpus_split():
    corpus = cp.generate_synthetic(600, correlation_q=0.9, seed=0)
    return cp.split_corpus(corpus, seed=0)


def train_variant(split, name, seed):
    cfg = tr.variant_config(tr.ModelConfig(seed=seed, **ACCEPT_BASE), name)
    result = tr.train(split, cfg)
    report = tr.evaluate(result.params, split.test, result.vocab, cfg)
    return result, report


@pytest.fixture(scope="module")
def basic_runs(corpus_split):
    t0 = time.perf_counter()
    runs = [train_variant(corpus_split, "basic", seed)
            for seed in range(ABLATION_SEEDS)]
    return runs, time.perf_counter() - t0


def test_criterion_1_gradient_integrity():
    cfg, dialogues, vocab = ev.toy_setup(0)
    assert (cfg.D, cfg.E, cfg.K, cfg.Z, cfg.H) == (5, 4, 4, 3, 3)
    assert [len(u.tokens) for u in dialogues[0].utterances] == [3, 3, 3]

    t0 = time.perf_counter()
    worst = tr.gradient_check(cfg, dialogues, vocab, h=1e-5)
    elapsed = time.perf_counter() - t0

    assert set(worst) == {n for n, _ in tr.param_specs(cfg, len(vocab))}
    assert max(worst.values()) <= 1e-4
    # no parameter may sit outside both objectives
    params = tr.init_params(cfg, len(vocab))
    (batch,) = cp.batchify(dialogues, vocab, 1)
    g_task, _ = tr._grads_of(params, lambda P: tr.forward_task(P, batch, cfg)[0])
    g_adv, _ = tr._grads_of(params, lambda P: tr.forward_adv(P, batch, cfg))
    assert all(g_task[n] is not None or g_adv[n] is not None for n in params)
    assert elapsed < 60.0


def test_criterion_2_exactness_fixtures():
    # alternating turn flags: flip exactly where the speaker changes
    speakers = ["user", "staff", "user", "staff", "user", "staff",
                "user", "user", "staff"]
    assert cp.relabel_speaker_turns(speakers) == [0, 1, 0, 1, 0, 1, 0, 0, 1]

    # role mask: staff rows get exactly zero attention, user rows sum to one
    K, H, L = 4, 3, 5
    rng = np.random.default_rng(0)
    P = {name: rng.uniform(-0.3, 0.3, size=shape)
         for name, shape in hd.param_specs(K, H, False, False)}
    leaves = {k: ad.leaf(v) for k, v in P.items()}
    states = ad.constant(rng.normal(size=(L, K)))
    keep = np.array([[True, False, True, False, True]])
    _, alpha = hd.use_decode_steps(leaves, states, keep, np.array([L - 1]))
    assert alpha.value[0, 1] == 0.0 and alpha.value[0, 3] == 0.0
    assert abs(alpha.value[0, [0, 2, 4]].sum() - 1.0) <= 1e-12

    # all-zero GRU parameters halve the previous state: step 0's candidate
    # reads a fixed input, step 1's input projection is zero (W = 0)
    zeros = {name: np.zeros(shape)
             for name, shape in it.param_specs(2, 3, 2, False, False, False)}
    zl = {k: ad.leaf(v) for k, v in zeros.items()}
    xw = np.zeros((2, 9))
    xw[0, 6:] = [1.0, 2.0, 3.0]
    H = ad.gru_seq(ad.constant(xw), it.gates(zl, "gru_s", "U"),
                   it.gates(zl, "gru_s", "b"), [1, 1]).value
    h_prev = H[0:1]
    assert np.all(h_prev != 0.0)
    assert np.max(np.abs(H[1:2] - 0.5 * h_prev)) <= 1e-15

    # equal satisfaction logits (uniform probabilities) score ln 3
    z_m = ad.constant(np.zeros((1, 3)))
    loss = tr.task_loss(z_m, np.array([2]), None, None,
                        np.array([[True]]), use_aux=False)
    assert loss.value[0, 0] == pytest.approx(math.log(3.0), abs=1e-12)

    # learning-rate schedule decays geometrically
    lrs = [tr.apply_lr_decay(0.1, 0.8, e) for e in range(3)]
    assert lrs == pytest.approx([0.1, 0.08, 0.064], abs=1e-12)


def test_criterion_3_oracle_equivalence():
    # metrics equal the counting oracles on 1000 random cases
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(2, 5))
        truths = rng.integers(0, k, size=n).tolist()
        preds = rng.integers(0, k, size=n).tolist()
        classes = list(range(k))
        assert ev.accuracy(preds, truths) == accuracy_oracle(truths, preds)
        assert np.array_equal(ev.confusion(preds, truths, classes),
                              confusion_oracle(truths, preds, k))
        assert ev.macro_f1(preds, truths, classes) == macro_f1_oracle(
            truths, preds, k)

    # batch-of-one forward equals the unbatched scalar model
    cfg, toy, _ = ev.toy_setup(0)
    extra = cp.generate_synthetic(6, correlation_q=0.9, seed=9)
    dialogues = toy + extra
    vocab = cp.build_vocab(dialogues)
    params = tr.init_params(cfg, len(vocab))
    for d in dialogues:
        (batch,) = cp.batchify([d], vocab, 1)
        loss, _, _ = tr.forward_task(tr.as_leaves(params), batch, cfg)
        ref = dialogue_forward_ref(
            params,
            [[vocab.id_of(t) for t in u.tokens] for u in d.utterances],
            d.roles(), cp.relabel_speaker_turns(d.roles()),
            cp.SATISFACTIONS.index(d.satisfaction),
            [cp.SENTIMENTS.index(u.sentiment) for u in d.utterances],
            E=cfg.E, K=cfg.K, use_st=cfg.use_st, use_mask=cfg.use_mask,
            use_aux=cfg.use_aux, use_td=cfg.use_td)
        assert abs(loss.value[0, 0] - ref["task_loss"]) <= 1e-10
        adv = tr.forward_adv(tr.as_leaves(params), batch, cfg)
        assert abs(adv.value[0, 0] - ref["adv_value"]) <= 1e-10

    # batched recurrence equals the unrolled scalar recurrence per step
    E, K, Z, L = 2, 4, 3, 3
    rng = np.random.default_rng(7)
    P = {name: rng.uniform(-0.3, 0.3, size=shape)
         for name, shape in it.param_specs(E, K, Z, True, True, True)}
    V = rng.normal(size=(L, 2 * E)) * 0.5
    flags = [1, 0, 1]
    leaves = {k: ad.leaf(v) for k, v in P.items()}
    H_m, H_a = it.run_interaction(leaves, ad.constant(V), np.array([flags]),
                                  1, L, K, use_st=True, use_aux=True)
    for x_ref, H, prefix in (
            (np.tanh(V @ P["proj.m.W"] + P["proj.m.b"]), H_m, "gru_m"),
            (np.tanh(V @ P["proj.a.W"] + P["proj.a.b"]), H_a, "gru_a")):
        h_s = np.zeros((1, K))
        h_k = np.zeros((1, K))
        for t in range(L):
            x_t = x_ref[t:t + 1]
            h_s = gru_shared_ref(x_t, h_s, P)
            c_t = P["turn.emb"][flags[t]:flags[t] + 1]
            h_k = gru_task_ref(np.hstack([x_t, c_t]), h_k, h_s, P, prefix)
            assert np.max(np.abs(H.value[t] - h_k)) <= 1e-10, (prefix, t)


def test_criterion_4_training_sanity(basic_runs):
    runs, elapsed = basic_runs
    hits = 0
    for result, _ in runs:
        losses = [h["task_loss"] for h in result.history]
        assert losses[-1] < losses[0]
        hits += max(h["dev_use_acc"] for h in result.history) >= 0.70
    assert hits >= 4
    assert elapsed < 600.0


def test_criterion_5_ablation_direction(corpus_split, basic_runs):
    medians = {"basic": statistics.median(
        [rep["use"]["macro_f1"] for _, rep in basic_runs[0]])}
    for name in ("stman", "basic-aux", "basic+td", "basic+st"):
        reports = [train_variant(corpus_split, name, seed)[1]
                   for seed in range(ABLATION_SEEDS)]
        medians[name] = statistics.median(
            [r["use"]["macro_f1"] for r in reports])

    for name in sorted(medians):
        print(f"median test USE macro F1  {name:10s} {medians[name]:.4f}")
    print(f"informational: stman > basic+td  -> "
          f"{medians['stman'] > medians['basic+td']}")
    print(f"informational: basic+st > basic  -> "
          f"{medians['basic+st'] > medians['basic']}")

    assert medians["stman"] >= medians["basic"] - 0.02
    assert medians["basic"] >= medians["basic-aux"]


def test_criterion_6_adversarial_mechanics():
    # (a) encoder frozen: repeated maximization steps push the
    # discriminator's per-utterance accuracy above 0.9 within 200 steps
    cfg, dialogues, vocab = ev.toy_setup(0)
    params = tr.init_params(cfg, len(vocab))
    velocities = {n: np.zeros_like(a) for n, a in params.items()}
    (batch,) = cp.batchify(dialogues, vocab, 1)
    enc_before = tr.fingerprint(params, ("enc.",))
    td_names = tr.group_names(params, "td")
    crossed = None
    for step in range(1, 201):
        grads, _ = tr._grads_of(params,
                                lambda P: tr.forward_adv(P, batch, cfg))
        ascent = {n: None if g is None else -g for n, g in grads.items()}
        tr.momentum_step(params, velocities, ascent, cfg.lr,
                         cfg.momentum_mu, td_names)
        if tr.discriminator_accuracy(params, dialogues, vocab, cfg) > 0.9:
            crossed = step
            break
    assert crossed is not None, "accuracy never exceeded 0.9 in 200 steps"
    assert tr.fingerprint(params, ("enc.",)) == enc_before

    # (b) one encoder minimization step never raises the objective
    for seed in range(20):
        cfg2, dialogues2, vocab2 = ev.toy_setup(seed)
        params2 = tr.init_params(cfg2, len(vocab2))
        vel2 = {n: np.zeros_like(a) for n, a in params2.items()}
        (batch2,) = cp.batchify(dialogues2, vocab2, 1)
        grads2, before = tr._grads_of(
            params2, lambda P: tr.forward_adv(P, batch2, cfg2))
        tr.momentum_step(params2, vel2, grads2, 1e-3, cfg2.momentum_mu,
                         tr.group_names(params2, "enc"))
        after = tr.forward_adv(tr.as_leaves(params2), batch2, cfg2).value[0, 0]
        assert after <= before + 1e-12, f"objective rose on init {seed}"

    # (c) discriminator weights never move during task-phase updates
    corpus = cp.generate_synthetic(24, correlation_q=0.9, seed=5)
    vocab3 = cp.build_vocab(corpus)
    cfg3 = tr.ModelConfig(K=6, Z=4, H=4, D=6, E=4, dropout=0.0, batch=8,
                          epochs=1, seed=0, adv_fraction=0.0)
    params3 = tr.init_params(cfg3, len(vocab3))
    vel3 = {n: np.zeros_like(a) for n, a in params3.items()}
    td_fp = tr.fingerprint(params3, ("td.",))
    enc_fp = tr.fingerprint(params3, ("enc.",))
    summary = tr.train_epoch(params3, vel3, corpus, set(), vocab3, cfg3,
                             epoch=0, shuffle_rng=np.random.default_rng(0),
                             drop_rng=np.random.default_rng(1))
    assert summary["adv_value"] is None
    assert tr.fingerprint(params3, ("td.",)) == td_fp
    assert tr.fingerprint(params3, ("enc.",)) != enc_fp


def test_criterion_7_heuristic_baselines():
    corpus = cp.generate_synthetic(400, correlation_q=0.85, seed=4)
    report = ev.heuristic_baseline("final", corpus)
    hits = total = 0
    for d in corpus:
        sentiment = next((u.sentiment for u in reversed(d.utterances)
                          if u.speaker == "user"), None)
        if sentiment is None:
            continue
        hits += cp.canonical_satisfaction(sentiment) == d.satisfaction
        total += 1
    assert report["n"] == total
    assert report["accuracy"] == hits / total
    assert report["skipped"] == len(corpus) - total

    perfect = cp.generate_synthetic(200, correlation_q=1.0, seed=5)
    assert ev.heuristic_baseline("final", perfect)["accuracy"] == 1.0

    table = ev.correlation_table(corpus)
    for mode in ("initial", "final"):
        assert abs(np.sum(table[mode]) - 1.0) <= 1e-12


def test_criterion_8_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("STMAN_SEED", raising=False)
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("K=5\nZ=3\nH=3\nD=5\nE=3\ndropout=0.2\nlr=0.05\n"
                        "batch=8\nepochs=2\n")
    artifacts = {}
    for tag in ("first", "second"):
        corpus = str(tmp_path / f"{tag}.jsonl")
        ckpt = str(tmp_path / f"{tag}.model.json")
        report = str(tmp_path / f"{tag}.report.json")
        assert ev.main(["gen-data", "--n", "40", "--q", "0.9", "--seed", "2",
                        "--out", corpus]) == 0
        assert ev.main(["train", "--corpus", corpus, "--out", ckpt,
                        "--config", str(cfg_path)]) == 0
        assert ev.main(["eval", "--ckpt", ckpt, "--corpus", corpus,
                        "--out", report]) == 0
        artifacts[tag] = tuple(
            open(path, "rb").read()
            for path in (corpus, ckpt, ckpt + ".vocab",
                         ckpt + ".history.json", report))
    assert artifacts["first"] == artifacts["second"]
