"""Decoder heads: attention masking fixtures, probability invariants of
the heads' logits read as distributions, brute-force label checks, and
gradients."""

import math

import numpy as np

import stman.autodiff as ad
import stman.heads as hd
import stman.interaction as it
from oracles import GRAD_TOL, gru_shared_ref, numeric_grad, rel_err, softmax_list
from testkit import softmax


def make_params(K, H, use_aux=True, use_td=True, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(-scale, scale, size=shape)
            for name, shape in hd.param_specs(K, H, use_aux, use_td)}


def as_leaves(params):
    return {k: ad.leaf(v) for k, v in params.items()}


def states_of(values):
    """One dialogue's states as the (L, K) node of a batch of one."""
    return ad.constant(np.atleast_2d(values))


def use_decode(P, H_m, roles, use_mask=True):
    """One dialogue: H_m is its (L, K) state node, roles the matching
    speakers. Returns (z_m, the (L, 1) attention weights)."""
    keep = [r == "user" for r in roles] if use_mask else None
    return hd.use_decode_steps(P, H_m, [1] * len(roles), keep)


def discriminate(P, X_m, X_a):
    """One dialogue: X_m and X_a are (L, K) streams, one utterance per
    row. Returns the (2L, 2) logits node: row 2t + i is step t of stream
    i."""
    return hd.discriminate_steps(P, X_m, X_a, [1] * X_m.value.shape[0])


def test_param_specs_gate_heads():
    names = [n for n, _ in hd.param_specs(4, 3, True, True)]
    assert "sa.W" in names and "td.W_r" in names and "td.W_o" in names
    lean = [n for n, _ in hd.param_specs(4, 3, False, False)]
    assert all(not n.startswith(("sa.", "td.")) for n in lean)
    assert "use.W_o" in lean


def test_staff_positions_get_exactly_zero_attention():
    K, H, L = 3, 2, 4
    P = make_params(K, H, seed=1)
    rng = np.random.default_rng(2)
    H_m = states_of(rng.normal(size=(L, K)))
    roles = ["user", "staff", "user", "staff"]
    z_m, alpha = use_decode(as_leaves(P), H_m, roles)
    assert alpha.value[1, 0] == 0.0
    assert alpha.value[3, 0] == 0.0
    assert abs(alpha.value.sum() - 1.0) <= 1e-12
    assert abs(softmax(z_m.value).sum() - 1.0) <= 1e-12


def test_identical_states_share_attention_uniformly():
    K, H, L = 3, 2, 3
    P = make_params(K, H, seed=3)
    h = np.random.default_rng(4).normal(size=K)
    H_m = states_of([h, h, h])
    _, alpha = use_decode(as_leaves(P), H_m, ["user"] * L)
    assert np.max(np.abs(alpha.value - 1.0 / 3.0)) <= 1e-12


def test_single_utterance_pools_to_the_state_twice():
    """With L = 1 the attention sum and the last state are the same vector,
    so the output context is [h, h]."""
    K, H = 3, 2
    P = make_params(K, H, seed=5)
    h = np.random.default_rng(6).normal(size=K)
    z_m, alpha = use_decode(as_leaves(P), states_of([h]), ["user"])
    assert alpha.value[0, 0] == 1.0
    o = np.hstack([h, h])[None, :]
    want = softmax_list((o @ P["use.W_o"] + P["use.b_o"])[0])
    assert np.max(np.abs(softmax(z_m.value)[0] - want)) <= 1e-12


def test_all_staff_dialogue_pools_nothing():
    """Role mask with no user utterances: attention is all zeros and the
    context reduces to [0, h_last]."""
    K, H = 3, 2
    P = make_params(K, H, seed=7)
    rng = np.random.default_rng(8)
    h1, h2 = rng.normal(size=K), rng.normal(size=K)
    z_m, alpha = use_decode(as_leaves(P), states_of([h1, h2]),
                            ["staff", "staff"])
    assert np.array_equal(alpha.value, np.zeros((2, 1)))
    o = np.hstack([np.zeros(K), h2])[None, :]
    want = softmax_list((o @ P["use.W_o"] + P["use.b_o"])[0])
    assert np.max(np.abs(softmax(z_m.value)[0] - want)) <= 1e-12


def test_mask_off_attends_everywhere():
    K, H, L = 3, 2, 3
    P = make_params(K, H, seed=9)
    H_m = states_of(np.random.default_rng(10).normal(size=(L, K)))
    _, alpha = use_decode(as_leaves(P), H_m, ["staff", "user", "staff"],
                          use_mask=False)
    assert np.all(alpha.value > 0.0)
    assert abs(alpha.value.sum() - 1.0) <= 1e-12


def test_output_logit_shift_preserves_distribution_ranking():
    K, H = 3, 2
    P = make_params(K, H, seed=11)
    H_m = states_of(np.random.default_rng(12).normal(size=(2, K)))
    z_a, _ = use_decode(as_leaves(P), H_m, ["user", "user"])
    P2 = dict(P)
    P2["use.b_o"] = P["use.b_o"] + 7.0  # same shift on every class logit
    z_b, _ = use_decode(as_leaves(P2), H_m, ["user", "user"])
    assert np.max(np.abs(softmax(z_a.value) - softmax(z_b.value))) <= 1e-9


def test_sa_zero_params_give_uniform_sentiment():
    P = {name: np.zeros(shape) for name, shape in hd.param_specs(3, 2, True, False)}
    logits = hd.sa_decode(as_leaves(P), states_of(np.random.default_rng(14).normal(size=(3, 3))))
    assert logits.shape == (3, 3)
    assert np.max(np.abs(softmax(logits.value) - 1.0 / 3.0)) <= 1e-15


def test_sa_probabilities_match_brute_force():
    K = 4
    P = make_params(K, 2, seed=15)
    rng = np.random.default_rng(16)
    states = rng.normal(size=(5, K))
    probs = softmax(hd.sa_decode(as_leaves(P), states_of(states)).value)
    for h, p in zip(states, probs):
        want = softmax_list((h[None, :] @ P["sa.W"] + P["sa.b"])[0])
        assert np.max(np.abs(p - want)) <= 1e-12
        assert int(np.argmax(p)) == int(np.argmax(want))


def test_discriminator_zero_params_sit_on_the_fence():
    P = {name: np.zeros(shape) for name, shape in hd.param_specs(3, 2, False, True)}
    X_m, X_a = (ad.constant(x) for x in np.random.default_rng(17).normal(size=(2, 4, 3)))
    logits = discriminate(as_leaves(P), X_m, X_a)
    assert logits.shape == (2 * 4, hd.N_TASKS)
    assert np.max(np.abs(softmax(logits.value) - 0.5)) <= 1e-15


def test_discriminator_matches_scalar_gru_reference():
    K, L = 3, 4
    P = make_params(K, 2, use_aux=False, seed=18)
    streams = np.random.default_rng(19).normal(size=(2, L, K)) * 0.5
    probs = softmax(discriminate(as_leaves(P), *map(ad.constant, streams)).value)
    for s, X in enumerate(streams):
        h = np.zeros((1, K))
        for t in range(L):
            h = gru_shared_ref(X[t : t + 1], h, P, prefix="td")
            want = softmax_list((h @ P["td.W_o"] + P["td.b_o"])[0])
            assert np.max(np.abs(probs[2 * t + s] - want)) <= 1e-12
            assert abs(probs[2 * t + s].sum() - 1.0) <= 1e-12


def test_discriminator_batch_rows_are_independent():
    K, L, B = 3, 2, 2
    P = make_params(K, 2, use_aux=False, seed=20)
    rng = np.random.default_rng(21)
    X_m, X_a = rng.normal(size=(2, L * B, K))
    logits = hd.discriminate_steps(as_leaves(P), ad.constant(X_m), ad.constant(X_a),
                                   [B] * L)
    # row r of both streams side by side
    probs = softmax(logits.value).reshape(L * B, 2 * hd.N_TASKS)
    for b in range(B):
        solo = discriminate(as_leaves(P), ad.constant(X_m[b::B]),
                            ad.constant(X_a[b::B]))
        solo_probs = softmax(solo.value).reshape(L, 2 * hd.N_TASKS)
        for t in range(L):
            assert np.max(np.abs(probs[t * B + b] - solo_probs[t])) <= 1e-12


def test_stacked_discriminator_equals_two_per_stream_runs():
    """The interleaved recurrence equals one GRU run per stream, and a
    stream's rows read nothing of the other stream's inputs."""
    K, L, B = 3, 4, 3
    P = make_params(K, 2, use_aux=False, seed=26)
    X_m, X_a, X_other = np.random.default_rng(27).normal(size=(3, L * B, K))
    leaves = as_leaves(P)
    probs = softmax(hd.discriminate_steps(leaves, ad.constant(X_m), ad.constant(X_a),
                                          [B] * L).value)
    for s, X in enumerate((X_m, X_a)):
        H = ad.gru_seq(ad.matmul(ad.constant(X), it.gates(leaves, "td", "W")),
                       it.gates(leaves, "td", "U"), it.gates(leaves, "td", "b"),
                       [B] * L)
        want = softmax(ad.add_bias(ad.matmul(H, leaves["td.W_o"]),
                                   leaves["td.b_o"]).value)
        assert np.max(np.abs(probs[s::2] - want)) <= 1e-12
    swapped_a = softmax(hd.discriminate_steps(leaves, ad.constant(X_m),
                                              ad.constant(X_other), [B] * L).value)
    swapped_m = softmax(hd.discriminate_steps(leaves, ad.constant(X_other),
                                              ad.constant(X_a), [B] * L).value)
    assert np.array_equal(swapped_a[0::2], probs[0::2])
    assert np.array_equal(swapped_m[1::2], probs[1::2])


def test_use_gradients_match_finite_differences():
    K, H, L, B = 4, 3, 3, 2
    P = make_params(K, H, use_aux=False, use_td=False, seed=22)
    rng = np.random.default_rng(23)
    states = rng.normal(size=(L, B, K)) * 0.5
    counts = [2, 2, 1]  # dialogue 0 runs three steps, dialogue 1 two
    # packed rows: steps 0 and 1 hold dialogues 0 and 1, step 2 dialogue 0
    keep = [True, True, False, True, True]
    target = np.zeros((B, hd.N_SAT))
    target[0, 1] = 1.0
    target[1, 2] = 1.0

    def build(leaves):
        H_m = ad.constant(states.reshape(L * B, K)[:sum(counts)])
        z_m, _ = hd.use_decode_steps(leaves, H_m, counts, keep)
        return ad.log_softmax_sum(z_m, -target)

    names = sorted(P)
    leaves = as_leaves(P)
    with ad.Tape() as tape:
        tape.backward(build(leaves))

    def loss_value():
        return build(as_leaves(P)).value.item()

    numeric = numeric_grad(loss_value, [P[n] for n in names])
    for name, want in zip(names, numeric):
        err = rel_err(leaves[name].grad, want)
        assert err <= GRAD_TOL, f"{name}: rel err {err:.3g}"


def test_discriminator_gradients_match_finite_differences():
    K, L = 3, 3
    P = make_params(K, 2, use_aux=False, use_td=True, seed=24)
    X_m, X_a = np.random.default_rng(25).normal(size=(2, L, K)) * 0.5
    # row 2t + i is step t of stream i, whose own class is i
    own_class = np.zeros((2 * L, hd.N_TASKS))
    own_class[0::2, 0] = 1.0
    own_class[1::2, 1] = 1.0

    def build(leaves):
        # log-likelihood of each stream's own class at every step
        logits = discriminate(leaves, ad.constant(X_m), ad.constant(X_a))
        return ad.log_softmax_sum(logits, own_class)

    names = sorted(n for n in P if n.startswith("td."))
    leaves = as_leaves(P)
    with ad.Tape() as tape:
        tape.backward(build(leaves))

    def loss_value():
        return build(as_leaves(P)).value.item()

    numeric = numeric_grad(loss_value, [P[n] for n in names])
    for name, want in zip(names, numeric):
        err = rel_err(leaves[name].grad, want)
        assert err <= GRAD_TOL, f"{name}: rel err {err:.3g}"
