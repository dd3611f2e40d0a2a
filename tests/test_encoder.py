"""Utterance encoder: fixtures, scalar-oracle equivalence, batching
independence, masking, and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stman.autodiff as ad
import stman.encoder as enc
from oracles import GRAD_TOL, encoder_ref, numeric_grad, rel_err
from testkit import sum_all


def make_params(vocab_size, D, E, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(-scale, scale, size=shape)
            for name, shape in enc.param_specs(vocab_size, D, E)}


def as_leaves(params):
    return {k: ad.leaf(v) for k, v in params.items()}


def encode_one(P, token_ids, token_mask, E):
    """One utterance to one (1, 2E) vector through the batched encoder."""
    return enc.encode_grid(P, np.array([[token_ids]], dtype=np.intp),
                           np.array([[token_mask]], dtype=bool), E)


def test_zero_parameters_give_zero_vector():
    params = {name: np.zeros(shape) for name, shape in enc.param_specs(6, 4, 3)}
    v = encode_one(as_leaves(params), [2, 3, 4], [1, 1, 1], E=3)
    assert np.array_equal(v.value, np.zeros((1, 6)))


def test_single_token_equals_oracle():
    params = make_params(8, 5, 4, seed=1)
    v = encode_one(as_leaves(params), [5], [1], E=4)
    want = encoder_ref([5], params, E=4)
    assert np.max(np.abs(v.value - want)) <= 1e-12  # beta must be exactly [1]


def test_two_token_utterance_matches_scalar_lstm_oracle():
    params = make_params(9, 5, 4, seed=2)
    v = encode_one(as_leaves(params), [3, 7], [1, 1], E=4)
    want = encoder_ref([3, 7], params, E=4)
    assert np.max(np.abs(v.value - want)) <= 1e-10


def test_masked_tail_equals_shorter_utterance():
    params = make_params(9, 5, 4, seed=3)
    short = encode_one(as_leaves(params), [3, 7], [1, 1], E=4)
    padded = encode_one(as_leaves(params), [3, 7, 1, 1], [1, 1, 0, 0], E=4)
    assert np.max(np.abs(short.value - padded.value)) <= 1e-12


def grid_of(dialogues, T):
    """Pack variable-length utterance id lists into (B, L, T) + mask."""
    B = len(dialogues)
    L = max(len(d) for d in dialogues)
    ids = np.ones((B, L, T), dtype=np.intp)  # PAD id 1
    mask = np.zeros((B, L, T), dtype=bool)
    for b, d in enumerate(dialogues):
        for t, utt in enumerate(d):
            ids[b, t, : len(utt)] = utt
            mask[b, t, : len(utt)] = True
    return ids, mask


def test_grid_matches_per_utterance_oracle():
    params = make_params(10, 5, 4, seed=4)
    dialogues = [[[2, 3, 4], [5, 6]], [[7, 8, 9, 2]]]
    ids, mask = grid_of(dialogues, T=4)
    V = enc.encode_grid(as_leaves(params), ids, mask, E=4)
    B, L = 2, 2
    for b, d in enumerate(dialogues):
        for t, utt in enumerate(d):
            got = V.value[t * B + b]
            want = encoder_ref(utt, params, E=4)[0]
            assert np.max(np.abs(got - want)) <= 1e-10
    # the padding row of the short dialogue is exactly zero
    assert np.array_equal(V.value[1 * B + 1], np.zeros(8))


def test_batch_of_two_equals_two_batches_of_one():
    params = make_params(10, 5, 4, seed=5)
    d1, d2 = [[2, 3, 4], [5, 6]], [[7, 8], [9, 2], [3, 4]]
    ids, mask = grid_of([d1, d2], T=3)
    V = enc.encode_grid(as_leaves(params), ids, mask, E=4)
    for b, d in enumerate((d1, d2)):
        ids1, mask1 = grid_of([d], T=3)
        V1 = enc.encode_grid(as_leaves(params), ids1, mask1, E=4)
        for t in range(len(d)):
            assert np.max(np.abs(V.value[t * 2 + b] - V1.value[t])) <= 1e-10


def test_permuting_dialogues_permutes_outputs():
    params = make_params(10, 5, 4, seed=6)
    d1, d2 = [[2, 3], [4, 5]], [[6, 7], [8, 9]]
    ids_a, mask_a = grid_of([d1, d2], T=2)
    ids_b, mask_b = grid_of([d2, d1], T=2)
    Va = enc.encode_grid(as_leaves(params), ids_a, mask_a, E=4).value
    Vb = enc.encode_grid(as_leaves(params), ids_b, mask_b, E=4).value
    for t in range(2):
        assert np.array_equal(Va[t * 2 + 0], Vb[t * 2 + 1])
        assert np.array_equal(Va[t * 2 + 1], Vb[t * 2 + 0])


VOCAB = 10


@st.composite
def ragged_grids(draw):
    """A (B, L, T) grid with trailing token padding, any utterance row
    possibly all pad, random ids in pad cells, and a permutation of the
    grid's (b, t) cells."""
    B, L, T = (draw(st.integers(1, hi)) for hi in (3, 3, 4))
    lengths = np.array(draw(st.lists(st.integers(0, T), min_size=B * L,
                                     max_size=B * L))).reshape(B, L)
    ids = np.array(draw(st.lists(st.integers(0, VOCAB - 1), min_size=B * L * T,
                                 max_size=B * L * T)), dtype=np.intp).reshape(B, L, T)
    perm = np.array(draw(st.permutations(range(B * L))))
    return ids, np.arange(T) < lengths[..., None], perm


@settings(max_examples=60, deadline=None)
@given(ragged_grids())
def test_packed_grid_matches_oracle_on_ragged_grids(case):
    """Every real row equals the one-utterance oracle, every pad row is
    exactly zero, and presenting the same utterances in another order
    (so other ties in the length sort) permutes the rows."""
    ids, mask, perm = case
    B, L, T = ids.shape
    params = make_params(VOCAB, 5, 4, seed=15)
    V = enc.encode_grid(as_leaves(params), ids, mask, E=4).value
    for b in range(B):
        for t in range(L):
            n = int(mask[b, t].sum())
            if n:
                want = encoder_ref(list(ids[b, t, :n]), params, E=4)[0]
                assert np.max(np.abs(V[t * B + b] - want)) <= 1e-10
            else:
                assert np.all(V[t * B + b] == 0.0)

    # cell c = b * L + t of the permuted grid holds cell perm[c]
    shuffled = [a.reshape(B * L, T)[perm].reshape(B, L, T) for a in (ids, mask)]
    Vp = enc.encode_grid(as_leaves(params), *shuffled, E=4).value
    real = mask.reshape(B * L, T).any(axis=1)
    for c, src in enumerate(perm):
        got, want = Vp[(c % L) * B + c // L], V[(src % L) * B + src // L]
        if real[src]:
            assert np.max(np.abs(got - want)) <= 1e-10
        else:
            assert np.all(got == 0.0)


def test_inner_padding_rejected():
    params = make_params(6, 4, 3, seed=16)
    ids, mask = grid_of([[[2, 3, 4]]], T=3)
    mask[0, 0, 1] = False
    with pytest.raises(ad.ContractError, match="trailing"):
        enc.encode_grid(as_leaves(params), ids, mask, E=3)


def test_single_utterance_dialogue_has_one_row():
    params = make_params(6, 4, 3, seed=7)
    ids, mask = grid_of([[[2, 3]]], T=2)
    V = enc.encode_grid(as_leaves(params), ids, mask, E=3)
    assert V.value.shape == (1, 6)


def test_eval_mode_is_pure():
    params = make_params(10, 5, 4, seed=8)
    ids, mask = grid_of([[[2, 3, 4], [5, 6]]], T=3)
    a = enc.encode_grid(as_leaves(params), ids, mask, E=4).value
    b = enc.encode_grid(as_leaves(params), ids, mask, E=4).value
    assert np.array_equal(a, b)


def test_dropout_masks_some_entries_and_needs_rng():
    params = make_params(10, 5, 4, seed=9)
    ids, mask = grid_of([[[2, 3, 4], [5, 6]]] * 8, T=3)
    rng = np.random.default_rng(0)
    V = enc.encode_grid(as_leaves(params), ids, mask, E=4, dropout_rate=0.5, rng=rng)
    assert np.sum(V.value == 0.0) > 0
    with pytest.raises(ad.ContractError):
        enc.encode_grid(as_leaves(params), ids, mask, E=4, dropout_rate=0.5)


def test_gradients_match_finite_differences():
    """Full BiLSTM + attention on a 2-utterance, 3-token toy (E=4, D=5),
    uneven lengths so both padding paths carry gradient."""
    params = make_params(7, 5, 4, seed=10)
    ids, mask = grid_of([[[2, 3, 4], [5, 6]]], T=3)
    weight = np.random.default_rng(11).normal(size=(2, 8))

    def loss_value():
        V = enc.encode_grid(as_leaves(params), ids, mask, E=4)
        return float(np.sum(V.value * weight))

    names = sorted(params)
    leaves = as_leaves(params)
    with ad.Tape() as tape:
        V = enc.encode_grid(leaves, ids, mask, E=4)
        tape.backward(sum_all(ad.hadamard(V, ad.constant(weight))))
    numeric = numeric_grad(loss_value, [params[n] for n in names])
    for name, want in zip(names, numeric):
        got = leaves[name].grad
        if got is None:
            got = np.zeros_like(want)
        err = rel_err(got, want)
        assert err <= GRAD_TOL, f"{name}: rel err {err:.3g}"


def test_repeated_token_gradients_match_finite_differences():
    """Three dialogues over three distinct tokens (one appears nine
    times): the embedding and input-weight gradients sum each distinct
    token's contributions once, and must still match the numeric ones;
    embedding rows the batch never reads get exactly zero gradient."""
    params = make_params(9, 4, 3, seed=12)
    ids, mask = grid_of([[[2, 2, 2, 3], [2, 3]],
                         [[3, 2], [2, 2, 5, 2]],
                         [[5]]], T=4)
    weight = np.random.default_rng(13).normal(size=(2 * 3, 6))
    names = ["enc.emb", "enc.lstm_f.W", "enc.lstm_b.W"]

    def loss_value():
        V = enc.encode_grid(as_leaves(params), ids, mask, E=3)
        return float(np.sum(V.value * weight))

    leaves = as_leaves(params)
    with ad.Tape() as tape:
        V = enc.encode_grid(leaves, ids, mask, E=3)
        tape.backward(sum_all(ad.hadamard(V, ad.constant(weight))))
    numeric = numeric_grad(loss_value, [params[n] for n in names])
    for name, want in zip(names, numeric):
        err = rel_err(leaves[name].grad, want)
        assert err <= GRAD_TOL, f"{name}: rel err {err:.3g}"
    d_emb = leaves["enc.emb"].grad
    unread = [i for i in range(9) if i not in (2, 3, 5)]
    assert np.all(d_emb[unread] == 0.0)
    assert np.all(np.any(d_emb[[2, 3, 5]] != 0.0, axis=1))
