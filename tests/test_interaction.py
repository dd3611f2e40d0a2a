"""Interaction layer: projection fixtures, GRU step algebra, scalar
oracle agreement, stream independence, and gradients."""

import numpy as np
import pytest

import stman.autodiff as ad
import stman.interaction as it
from oracles import (GRAD_TOL, gru_shared_ref, gru_task_ref, numeric_grad,
                     rel_err)
from testkit import sum_all


def make_params(E, K, Z, use_st=True, use_aux=True, use_td=True, seed=0,
                scale=0.3):
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(-scale, scale, size=shape)
            for name, shape in it.param_specs(E, K, Z, use_st, use_aux, use_td)}


def as_leaves(params):
    return {k: ad.leaf(v) for k, v in params.items()}


def test_param_specs_gate_allocation():
    names = [n for n, _ in it.param_specs(4, 3, 2, True, True, True)]
    assert "proj.a.W" in names and "turn.emb" in names
    assert any(n.startswith("gru_a.") for n in names)
    lean = [n for n, _ in it.param_specs(4, 3, 2, False, False, False)]
    assert "proj.a.W" not in lean and "turn.emb" not in lean
    assert not any(n.startswith("gru_a.") for n in lean)
    # discriminator alone still needs the second projection
    td_only = [n for n, _ in it.param_specs(4, 3, 2, False, False, True)]
    assert "proj.a.W" in td_only
    assert not any(n.startswith("gru_a.") for n in td_only)


def test_task_gru_width_grows_with_turn_embedding():
    specs = dict(it.param_specs(4, 3, 2, True, True, False))
    assert specs["gru_m.W_r"] == (5, 3)
    assert specs["gru_s.W_r"] == (3, 3)  # shared layer never sees the flag
    specs_off = dict(it.param_specs(4, 3, 2, False, True, False))
    assert specs_off["gru_m.W_r"] == (3, 3)


def test_projection_zero_params_give_zero():
    P = {name: np.zeros(shape)
         for name, shape in it.param_specs(2, 3, 2, False, True, False)}
    V = ad.constant(np.random.default_rng(0).normal(size=(4, 4)))
    X = it.project(as_leaves(P), V, "m")
    assert np.array_equal(X.value, np.zeros((4, 3)))


def test_projection_matches_closed_form():
    P = make_params(2, 3, 2, seed=1)
    V = np.random.default_rng(2).normal(size=(5, 4))
    X = it.project(as_leaves(P), ad.constant(V), "a")
    want = np.tanh(V @ P["proj.a.W"] + P["proj.a.b"])
    assert np.max(np.abs(X.value - want)) <= 1e-14
    assert np.all(np.abs(X.value) < 1.0)


def shared_gru(P, X, B, L):
    """The shared GRU over position-major X, as run_interaction runs it;
    returns the (L*B, K) states."""
    leaves = as_leaves(P)
    return ad.gru_seq(ad.matmul(ad.constant(X), it.gates(leaves, "gru_s", "W")),
                      it.gates(leaves, "gru_s", "U"),
                      it.gates(leaves, "gru_s", "b"), [B] * L).value


def task_gru(P, task, X_aug, H_s, B, L):
    """A task-private GRU over position-major X_aug and shared states H_s,
    as run_interaction runs it; returns the (L*B, K) states."""
    leaves, K = as_leaves(P), H_s.shape[1]
    pre = f"gru_{task}"
    XW = X_aug @ it.gates(leaves, pre, "W").value + H_s @ it.gates(leaves, pre, "Us").value
    return ad.gru_seq(ad.constant(XW), it.gates(leaves, pre, "U"),
                      ad.constant(np.zeros((1, 3 * K))), [B] * L).value


def test_shared_gru_zero_params_halve_the_state():
    """With every parameter zero a step's input projection, gates and
    candidate input vanish, so it halves the state; the state step 0
    starts from is given by the scalar cell."""
    P = {name: np.zeros(shape)
         for name, shape in it.param_specs(2, 3, 2, False, False, False)}
    h_prev = np.array([[0.4, -0.6, 0.2]])
    x = np.array([[1.0, 2.0, 3.0]])
    h = gru_shared_ref(x, h_prev, P)
    assert np.max(np.abs(h - 0.5 * h_prev)) <= 1e-15
    # the fused op: step 0 from a fixed candidate input, then a zero step
    xw = np.zeros((2, 9))
    xw[0, 6:] = x
    leaves = as_leaves(P)
    H = ad.gru_seq(ad.constant(xw), it.gates(leaves, "gru_s", "U"),
                   it.gates(leaves, "gru_s", "b"), [1, 1]).value
    assert np.all(H[0] != 0.0)
    assert np.max(np.abs(H[1] - 0.5 * H[0])) <= 1e-15


def test_shared_gru_matches_scalar_reference():
    P = make_params(2, 3, 2, seed=3)
    B, L = 2, 4
    X = np.random.default_rng(4).normal(size=(L * B, 3))
    H = shared_gru(P, X, B, L)
    h = np.zeros((B, 3))
    for t in range(L):
        h = gru_shared_ref(X[t * B : (t + 1) * B], h, P)
        assert np.max(np.abs(H[t * B : (t + 1) * B] - h)) <= 1e-12


def test_gru_state_stays_in_open_unit_box():
    """From h0 = 0 every state is a convex mix of the previous state and a
    tanh candidate, so it can never leave (-1, 1)."""
    P = make_params(2, 4, 2, seed=5, scale=2.0)
    X = np.random.default_rng(6).normal(size=(20 * 3, 4)) * 3.0
    H = shared_gru(P, X, 3, 20)
    assert np.all(np.abs(H) < 1.0)


def test_task_gru_zero_params_halve_the_state():
    P = {name: np.zeros(shape)
         for name, shape in it.param_specs(2, 3, 2, False, True, False)}
    h_prev = np.array([[0.4, -0.6, 0.2]])
    x = np.zeros((1, 3))
    hs = np.ones((1, 3))
    h = gru_task_ref(x, h_prev, hs, P, "gru_m")
    assert np.max(np.abs(h - 0.5 * h_prev)) <= 1e-15
    # the fused op in the private configuration: zero bias, and the
    # shared state adds nothing through zero U^s
    H = task_gru(P, "m", np.zeros((2, 3)), np.ones((2, 3)), 1, 2)
    assert np.array_equal(H, np.zeros((2, 3)))


def test_task_gru_matches_scalar_reference():
    P = make_params(2, 3, 2, use_st=False, seed=7)
    B, L = 2, 3
    rng = np.random.default_rng(8)
    X, H_s = rng.normal(size=(L * B, 3)), rng.normal(size=(L * B, 3)) * 0.5
    H = task_gru(P, "a", X, H_s, B, L)
    h = np.zeros((B, 3))
    for t in range(L):
        rows = slice(t * B, (t + 1) * B)
        h = gru_task_ref(X[rows], h, H_s[rows], P, "gru_a")
        assert np.max(np.abs(H[rows] - h)) <= 1e-12


def test_task_gru_with_zero_shared_weights_is_biasless_gru():
    P = make_params(2, 3, 2, use_st=False, seed=9)
    for g in ("r", "z", "h"):
        P[f"gru_m.Us_{g}"] = np.zeros((3, 3))
        P[f"gru_s.W_{g}"] = P[f"gru_m.W_{g}"]
        P[f"gru_s.U_{g}"] = P[f"gru_m.U_{g}"]
        P[f"gru_s.b_{g}"] = np.zeros((1, 3))
    B, L = 2, 3
    rng = np.random.default_rng(10)
    X = rng.normal(size=(L * B, 3))
    H_s = rng.normal(size=(L * B, 3))  # must be ignored now
    H = task_gru(P, "m", X, H_s, B, L)
    h = np.zeros((B, 3))
    for t in range(L):
        h = gru_shared_ref(X[t * B : (t + 1) * B], h, P)
        assert np.max(np.abs(H[t * B : (t + 1) * B] - h)) <= 1e-12


def run_toy(P, V_val, turn, B, L, K, **kw):
    leaves = as_leaves(P)
    return it.run_interaction(leaves, ad.constant(V_val), turn, B, L, K, **kw), leaves


def test_run_interaction_matches_dialogue_oracle():
    """Three steps, both tasks, turn embeddings on: every projected row and
    hidden state must agree with the unbatched scalar recurrence."""
    from oracles import dialogue_forward_ref, encoder_ref  # noqa: F401
    E, K, Z, L = 2, 4, 3, 3
    P = make_params(E, K, Z, seed=11)
    rng = np.random.default_rng(12)
    V = rng.normal(size=(L, 2 * E)) * 0.5
    flags = [1, 0, 1]

    (H_m, H_a), leaves = run_toy(P, V, np.array([flags]), 1, L, K,
                                 use_st=True, use_aux=True)
    # scalar recurrence, one dialogue
    x_m = np.tanh(V @ P["proj.m.W"] + P["proj.m.b"])
    x_a = np.tanh(V @ P["proj.a.W"] + P["proj.a.b"])
    for task, x_ref in (("m", x_m), ("a", x_a)):
        X = it.project(leaves, ad.constant(V), task)
        assert np.max(np.abs(X.value - x_ref)) <= 1e-12
    for x_ref, H, prefix in ((x_m, H_m, "gru_m"), (x_a, H_a, "gru_a")):
        h_s = np.zeros((1, K))
        h_k = np.zeros((1, K))
        for t in range(L):
            x_t = x_ref[t : t + 1]
            h_s = gru_shared_ref(x_t, h_s, P)
            c_t = P["turn.emb"][flags[t] : flags[t] + 1]
            h_k = gru_task_ref(np.hstack([x_t, c_t]), h_k, h_s, P, prefix)
            assert np.max(np.abs(H.value[t] - h_k)) <= 1e-10, (prefix, t)


def test_each_stream_equals_its_own_shared_and_private_runs():
    """Each stream's states equal the shared GRU run over that stream
    followed by its private GRU, with one stream or two, and no stream
    reads the other's inputs."""
    E, K, Z, L, B = 2, 3, 2, 3, 2
    P = make_params(E, K, Z, use_st=False, seed=25)
    V = np.random.default_rng(26).normal(size=(L * B, 2 * E))
    turn = np.zeros((B, L), dtype=int)
    (H_m, H_a), leaves = run_toy(P, V, turn, B, L, K, use_st=False, use_aux=True)
    for task, H in (("m", H_m), ("a", H_a)):
        X = it.project(leaves, ad.constant(V), task).value
        want = task_gru(P, task, X, shared_gru(P, X, B, L), B, L)
        assert np.max(np.abs(H.value - want)) <= 1e-12
    (H_solo, no_a), _ = run_toy(P, V, turn, B, L, K, use_st=False, use_aux=False)
    assert no_a is None
    assert np.max(np.abs(H_solo.value - H_m.value)) <= 1e-12
    for task in ("m", "a"):
        # move one stream's inputs; only that stream's states may change
        shifted = dict(P, **{f"proj.{task}.W": P[f"proj.{task}.W"] + 0.5})
        (Hm2, Ha2), _ = run_toy(shifted, V, turn, B, L, K, use_st=False, use_aux=True)
        assert np.array_equal(Hm2.value, H_m.value) == (task == "a")
        assert np.array_equal(Ha2.value, H_a.value) == (task == "m")


def test_batches_are_independent():
    E, K, Z, L, B = 2, 3, 2, 2, 2
    P = make_params(E, K, Z, seed=13)
    rng = np.random.default_rng(14)
    V = rng.normal(size=(L * B, 2 * E))
    turn = np.array([[0, 1], [1, 1]])
    (H_m, H_a), _ = run_toy(P, V, turn, B, L, K, use_st=True, use_aux=True)
    assert H_m.shape == H_a.shape == (L * B, K)
    for b in range(B):
        Vb = np.vstack([V[t * B + b] for t in range(L)])
        (Hm1, Ha1), _ = run_toy(P, Vb, turn[b : b + 1], 1, L, K,
                                use_st=True, use_aux=True)
        for t in range(L):
            assert np.max(np.abs(H_m.value[t * B + b] - Hm1.value[t])) <= 1e-12
            assert np.max(np.abs(H_a.value[t * B + b] - Ha1.value[t])) <= 1e-12


def test_turn_flag_changes_only_later_steps():
    E, K, Z, L = 2, 3, 2, 4
    P = make_params(E, K, Z, seed=15)
    V = np.random.default_rng(16).normal(size=(L, 2 * E))
    turn_a = np.array([[0, 1, 1, 0]])
    turn_b = np.array([[0, 1, 0, 0]])  # differs at t=2
    (Ha, _), _ = run_toy(P, V, turn_a, 1, L, K,
                         use_st=True, use_aux=False)
    (Hb, _), _ = run_toy(P, V, turn_b, 1, L, K,
                         use_st=True, use_aux=False)
    for t in range(2):
        assert np.array_equal(Ha.value[t], Hb.value[t])
    for t in range(2, L):
        assert np.max(np.abs(Ha.value[t] - Hb.value[t])) > 1e-8


def test_streams_coincide_only_when_private_params_do():
    E, K, Z, L = 2, 3, 2, 3
    P = make_params(E, K, Z, use_st=False, seed=17)
    P["proj.a.W"] = P["proj.m.W"].copy()
    P["proj.a.b"] = P["proj.m.b"].copy()
    for g in ("r", "z", "h"):
        for part in ("W", "U", "Us"):
            P[f"gru_a.{part}_{g}"] = P[f"gru_m.{part}_{g}"].copy()
    V = np.random.default_rng(18).normal(size=(L, 2 * E))
    (H_m, H_a), _ = run_toy(P, V, np.zeros((1, L), dtype=int), 1, L, K,
                            use_st=False, use_aux=True)
    for t in range(L):
        assert np.array_equal(H_m.value[t], H_a.value[t])
    P["proj.a.W"] = P["proj.a.W"] + 0.05
    (H_m, H_a), _ = run_toy(P, V, np.zeros((1, L), dtype=int), 1, L, K,
                            use_st=False, use_aux=True)
    assert np.max(np.abs(H_m.value[L - 1] - H_a.value[L - 1])) > 1e-8


def test_zero_turn_embedding_matches_variant_without_it():
    """With the embedding table zeroed, the extra input columns feed zeros
    through the trailing rows of each W, so truncating those rows and
    dropping the flag must reproduce the run (up to BLAS summation order)."""
    E, K, Z, L = 2, 3, 2, 3
    P = make_params(E, K, Z, use_st=True, use_aux=True, use_td=False, seed=19)
    P["turn.emb"] = np.zeros((2, Z))
    P_off = {}
    for name, value in P.items():
        if name == "turn.emb":
            continue
        if name.startswith(("gru_m.W_", "gru_a.W_")):
            P_off[name] = value[:K]
        else:
            P_off[name] = value
    V = np.random.default_rng(20).normal(size=(L, 2 * E))
    turn = np.array([[0, 1, 1]])
    (Ha, _), _ = run_toy(P, V, turn, 1, L, K,
                         use_st=True, use_aux=True)
    (Hb, _), _ = run_toy(P_off, V, turn, 1, L, K,
                         use_st=False, use_aux=True)
    for t in range(L):
        assert np.max(np.abs(Ha.value[t] - Hb.value[t])) <= 1e-13


def test_shared_gru_receives_gradient_from_both_streams():
    E, K, Z, L = 2, 3, 2, 2
    P = make_params(E, K, Z, use_st=False, seed=21)
    V = np.random.default_rng(22).normal(size=(L, 2 * E))
    for task_index in (0, 1):
        leaves = as_leaves(P)
        with ad.Tape() as tape:
            H_m, H_a = it.run_interaction(
                leaves, ad.constant(V), np.zeros((1, L), dtype=int), 1, L, K,
                use_st=False, use_aux=True)
            H = (H_m, H_a)[task_index]
            tape.backward(sum_all(ad.gather_rows(H, [L - 1])))
        assert leaves["gru_s.W_r"].grad is not None
        assert np.any(leaves["gru_s.W_r"].grad != 0.0)
        # the other task's private weights stay out of this loss
        other = ("gru_a", "gru_m")[task_index]
        assert leaves[f"{other}.W_r"].grad is None


def test_gradients_match_finite_differences():
    """End-to-end through projections, turn embedding, shared and private
    recurrences for both tasks."""
    E, K, Z, L, B = 2, 3, 2, 2, 2
    P = make_params(E, K, Z, seed=23)
    rng = np.random.default_rng(24)
    V = rng.normal(size=(L * B, 2 * E)) * 0.5
    turn = np.array([[0, 1], [1, 0]])
    w_m = rng.normal(size=(B, K))
    w_a = rng.normal(size=(B, K))

    def build(leaves):
        H_m, H_a = it.run_interaction(
            leaves, ad.constant(V), turn, B, L, K,
            use_st=True, use_aux=True)
        final = np.arange((L - 1) * B, L * B)  # the last step's rows
        return ad.add(
            sum_all(ad.hadamard(ad.gather_rows(H_m, final), ad.constant(w_m))),
            sum_all(ad.hadamard(ad.gather_rows(H_a, final), ad.constant(w_a))))

    names = sorted(P)
    leaves = as_leaves(P)
    with ad.Tape() as tape:
        tape.backward(build(leaves))

    def loss_value():
        inner = as_leaves(P)
        return build(inner).value.item()

    numeric = numeric_grad(loss_value, [P[n] for n in names])
    for name, want in zip(names, numeric):
        got = leaves[name].grad
        if got is None:
            got = np.zeros_like(want)
        err = rel_err(got, want)
        assert err <= GRAD_TOL, f"{name}: rel err {err:.3g}"
