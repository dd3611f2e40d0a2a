"""Engine tests: exact fixtures, high-precision oracles, and a
finite-difference sweep across every differentiable op."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stman.autodiff as ad
import stman.encoder as enc
from oracles import (GRAD_TOL, gru_shared_ref, lstm_cell_ref, numeric_grad, rel_err,
                     softmax_rows_mp)
from testkit import softmax, sum_all


def matmul_triple_loop(a, b):
    m, n = a.shape
    n2, p = b.shape
    assert n == n2
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            s = 0.0
            for k in range(n):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def loss_softmax(x):
    """Row softmax of ``x`` read back from ``log_softmax_sum``, one entry
    per call: all weight on entry (r, k) gives log p[r, k]."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        w = np.zeros_like(x)
        w[idx] = 1.0
        out[idx] = np.exp(ad.log_softmax_sum(ad.constant(x), w).value[0, 0])
    return out


def fd_check(build, arrays, tol=GRAD_TOL):
    """Backward vs central differences for loss = build(leaves).

    ``build`` must be a pure function of the arrays' current contents;
    the leaves share memory with them, so perturbation works in place.
    """
    leaves = [ad.leaf(a) for a in arrays]
    with ad.Tape() as tape:
        loss = build(leaves)
        tape.backward(loss)
    analytic = [
        lf.grad if lf.grad is not None else np.zeros_like(arr)
        for lf, arr in zip(leaves, arrays)
    ]

    def f():
        return float(build([ad.leaf(a) for a in arrays]).value[0, 0])

    for got, want in zip(analytic, numeric_grad(f, arrays)):
        err = rel_err(got, want)
        assert err <= tol, f"gradient mismatch: rel err {err:.3g}"


# ---------------------------------------------------------------- fixtures


def test_matmul_identity():
    x = np.arange(8, dtype=float).reshape(2, 4)
    out = ad.matmul(ad.constant(np.eye(2)), ad.constant(x))
    assert np.array_equal(out.value, x)


def test_matmul_against_triple_loop():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0], [6.0]])
    out = ad.matmul(ad.constant(a), ad.constant(b))
    assert np.array_equal(out.value, np.array([[17.0], [39.0]]))
    assert np.array_equal(out.value, matmul_triple_loop(a, b))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 5))))


def test_elementwise_fixtures():
    assert ad.tanh(ad.constant([[0.0]])).value[0, 0] == 0.0
    had = ad.hadamard(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
    assert np.array_equal(had.value, [[3.0, 8.0]])


def test_elementwise_shape_errors():
    a = ad.constant(np.zeros((2, 2)))
    b = ad.constant(np.zeros((2, 3)))
    for op in (ad.add, ad.hadamard):
        with pytest.raises(ad.ShapeError):
            op(a, b)
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.log_softmax_sum(a, np.zeros((2, 3)))


def test_softmax_uniform_on_equal_scores():
    out = loss_softmax([0.0, 0.0, 0.0])
    assert np.allclose(out, 1.0 / 3.0, rtol=0, atol=1e-15)


def test_softmax_matches_high_precision_oracle():
    x = np.array([[1.0, 2.0, 3.0]])
    got = loss_softmax(x)
    assert np.max(np.abs(got - softmax_rows_mp(x))) <= 1e-12


def test_log_softmax_sum_matches_high_precision_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        z = rng.normal(scale=4.0, size=(int(rng.integers(1, 6)), int(rng.integers(2, 6))))
        w = rng.uniform(0.0, 1.0, size=z.shape)
        got = ad.log_softmax_sum(ad.constant(z), w).value[0, 0]
        want = float(np.sum(w * np.log(softmax_rows_mp(z))))
        assert abs(got - want) <= 1e-12 * abs(want)


def test_log_softmax_sum_keeps_value_and_gradient_on_saturated_rows():
    """All weight on a class of probability e^-1000: the value is the true
    log-probability and the gradient w - softmax(z) * rowsum(w) stays
    non-zero, where a log clamped at 1e-12 would read -27.6 with a zero
    gradient."""
    z = ad.leaf([[0.0, -1000.0]])
    with ad.Tape() as tape:
        loss = ad.log_softmax_sum(z, np.array([[0.0, 1.0]]))
        tape.backward(loss)
    assert loss.value[0, 0] == -1000.0
    assert np.array_equal(z.grad, [[-1.0, 1.0]])


@settings(max_examples=200)
@given(
    st.lists(st.floats(-300, 300), min_size=1, max_size=8),
    st.floats(-100, 100),
)
def test_softmax_rows_sum_to_one_and_shift_invariant(row, c):
    x = np.array([row])
    y = loss_softmax(x)
    assert abs(y.sum() - 1.0) <= 1e-12
    y_shift = loss_softmax(x + c)
    assert np.max(np.abs(y - y_shift)) <= 1e-12


def test_masked_softmax_single_survivor():
    out = ad.masked_softmax(ad.constant([5.0, 7.0]), [True, False])
    assert np.array_equal(out.value, [[1.0, 0.0]])


def test_masked_softmax_uniform_over_kept():
    out = ad.masked_softmax(ad.constant([2.0, 9.0, 2.0, 2.0]),
                            [True, False, True, True])
    assert np.allclose(out.value, [[1 / 3, 0.0, 1 / 3, 1 / 3]], rtol=0, atol=1e-15)
    assert out.value[0, 1] == 0.0


def test_masked_softmax_all_true_equals_softmax():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 5))
    plain = softmax(x)
    masked = ad.masked_softmax(ad.constant(x), np.ones_like(x, dtype=bool)).value
    assert np.max(np.abs(plain - masked)) <= 1e-15


def test_masked_softmax_all_masked_row_is_zero():
    out = ad.masked_softmax(ad.constant([[3.0, 1.0], [2.0, 2.0]]),
                            [[False, False], [True, True]])
    assert np.array_equal(out.value[0], [0.0, 0.0])
    assert abs(out.value[1].sum() - 1.0) <= 1e-12


def test_masked_softmax_matches_high_precision_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(scale=3.0, size=(3, 6))
    keep = rng.random((3, 6)) < 0.6
    keep[2] = False
    got = ad.masked_softmax(ad.constant(x), keep).value
    assert np.max(np.abs(got - softmax_rows_mp(x, keep))) <= 1e-12


def test_concat_fixture_and_contracts():
    out = ad.hstack([ad.constant([1.0]), ad.constant([2.0, 3.0])])
    assert np.array_equal(out.value, [[1.0, 2.0, 3.0]])
    with pytest.raises(ad.ShapeError):
        ad.leaf(np.zeros((1, 0)))  # zero-width operands cannot exist
    with pytest.raises(ad.ShapeError):
        ad.hstack([ad.constant(np.zeros((2, 2))), ad.constant([1.0])])


def test_backward_square():
    x = ad.leaf([[3.0]])
    with ad.Tape() as tape:
        tape.backward(ad.matmul(x, x))
    assert x.grad[0, 0] == 6.0


def test_backward_sum_tanh_wx():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(4, 3))
    x = rng.normal(size=(3, 2))
    fd_check(lambda ls: sum_all(ad.tanh(ad.matmul(ls[0], ls[1]))), [W, x])


def test_constants_receive_no_gradient():
    c = ad.constant([[2.0]])
    x = ad.leaf([[3.0]])
    with ad.Tape() as tape:
        tape.backward(ad.matmul(c, x))
    assert c.grad is None
    assert x.grad[0, 0] == 2.0


def test_backward_rejects_non_scalar():
    x = ad.leaf([[1.0, 2.0]])
    with ad.Tape() as tape:
        y = ad.tanh(x)
        with pytest.raises(ad.ShapeError):
            tape.backward(y)


def zero_grads(tape):
    """Clear every gradient the tape's backward can have written."""
    for node in tape.nodes:
        node.grad = None
        for parent in node.parents:
            parent.grad = None


def test_rerun_after_zero_is_bitwise_identical():
    rng = np.random.default_rng(5)
    x, w = ad.leaf(rng.normal(size=(3, 3))), ad.leaf(rng.normal(size=(3, 3)))
    with ad.Tape() as tape:
        loss = sum_all(ad.tanh(ad.matmul(x, w)))
        tape.backward(loss)
        first = (x.grad.copy(), w.grad.copy())
        zero_grads(tape)
        tape.backward(loss)
        assert np.array_equal(x.grad, first[0])
        assert np.array_equal(w.grad, first[1])


def test_finished_tape_leaves_no_reference_cycles():
    """Leaving the tape drops the backward rules, each of which closes
    over its own output node, so the graph dies by reference counting."""
    rng = np.random.default_rng(6)
    x, w = ad.leaf(rng.normal(size=(3, 4))), ad.leaf(rng.normal(size=(4, 2)))
    gc.collect()
    gc.disable()
    try:
        with ad.Tape() as tape:
            loss = ad.log_softmax_sum(ad.tanh(ad.matmul(x, w)), np.ones((3, 2)))
            tape.backward(loss)
        del tape, loss
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert w.grad is not None


def test_fanout_accumulates_per_consumer():
    """A node with k consumers collects k contributions, never just the
    last one written."""
    x = ad.leaf([[1.5]])
    with ad.Tape() as tape:
        y = ad.tanh(x)
        loss = sum_all(ad.add(ad.hadamard(y, y),
                                 ad.hadamard(y, ad.constant([[3.0]]))))
        tape.backward(loss)
    t = np.tanh(1.5)
    want = (2.0 * t + 3.0) * (1.0 - t * t)
    assert x.grad[0, 0] == pytest.approx(want, rel=1e-12)


def test_shared_leaf_collects_both_branch_contributions():
    rng = np.random.default_rng(9)
    x1, x2, w = rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.normal(size=(3, 2))

    def build(ls):
        return sum_all(ad.add(ad.matmul(ls[0], ls[2]), ad.matmul(ls[1], ls[2])))

    fd_check(build, [x1, x2, w])


def test_finite_outputs_on_extreme_inputs():
    big = ad.constant([[1000.0, -1000.0, 0.0]])
    for out in (ad.tanh(big).value, loss_softmax(big.value),
                ad.masked_softmax(big, [True, True, False]).value):
        assert np.all(np.isfinite(out))
    z = ad.leaf(big.value.copy())
    with ad.Tape() as tape:
        loss = ad.log_softmax_sum(z, np.ones((1, 3)))
        tape.backward(loss)
    assert np.isfinite(loss.value[0, 0]) and np.all(np.isfinite(z.grad))


def test_dropout_contracts():
    """Inverted dropout, applied by ``encode_grid`` as a ``hadamard`` with
    a constant mask: rate 0 is the identity, a kept entry is scaled by
    exactly 1/(1-rate), and rate 1 is rejected."""
    rng = np.random.default_rng(0)
    P = {name: ad.leaf(rng.uniform(-0.3, 0.3, size=shape))
         for name, shape in enc.param_specs(10, 5, 4)}
    ids = np.full((8, 1, 3), 2, dtype=np.intp)
    mask = np.ones((8, 1, 3), dtype=bool)
    plain = enc.encode_grid(P, ids, mask, E=4).value
    same = enc.encode_grid(P, ids, mask, E=4, dropout_rate=0.0, rng=rng).value
    assert np.array_equal(same, plain)
    kept = enc.encode_grid(P, ids, mask, E=4, dropout_rate=0.2, rng=rng).value
    assert np.all((kept == 0.0) | (kept == plain * (1.0 / (1.0 - 0.2))))
    assert np.any(kept != 0.0) and np.any(kept == 0.0)
    with pytest.raises(ad.ContractError):
        enc.encode_grid(P, ids, mask, E=4, dropout_rate=1.0, rng=rng)


@pytest.mark.parametrize("width, ids, second", [
    (1, [4, 1, 4, 0, 4, 1, 2, 4, 0], None),
    (4, [4, 1, 4, 0, 4, 1, 2, 4, 0], None),
    (3, [5, 0, 3, 1], None),
    (4, [4, 1, 4, 0, 4, 1, 2, 4, 0], [1, 0, 1, 5]),
], ids=["one-column", "wide", "no-repeat", "second-gather"])
def test_gather_rows_scatter_adds_repeated_indices(width, ids, second):
    """Backward sums every gathered row's gradient into its table row,
    bitwise as np.add.at does into a zero table; a second gather from the
    same table adds its own scatter-add. Rows never gathered stay zero."""
    rng = np.random.default_rng(18)
    table = ad.leaf(rng.normal(size=(6, width)))
    gathers = [np.array(i) for i in (ids, second) if i is not None]
    gs = [rng.normal(size=(i.size, width)) for i in gathers]
    with ad.Tape() as tape:
        tape.backward(sum_all(ad.hstack([
            sum_all(ad.hadamard(ad.gather_rows(table, i), ad.constant(g)))
            for i, g in zip(gathers, gs)])))
    want = np.zeros((6, width))
    for i, g in zip(gathers, gs):
        part = np.zeros((6, width))
        np.add.at(part, i, g)
        want = want + part
    assert np.array_equal(table.grad, want)
    never = np.setdiff1d(np.arange(6), np.concatenate(gathers))
    assert never.size > 0 and np.all(table.grad[never] == 0.0)


def test_gather_rows_without_repeats_scatters_each_row_once():
    rng = np.random.default_rng(20)
    table = ad.leaf(rng.normal(size=(7, 3)))
    ids = np.array([5, 0, 3, 6, 1])
    g = rng.normal(size=(ids.size, 3))
    with ad.Tape() as tape:
        tape.backward(sum_all(ad.hadamard(ad.gather_rows(table, ids), ad.constant(g))))
    want = np.zeros((7, 3))
    want[ids] = g
    assert np.array_equal(table.grad, want)


def test_untracked_ops_outside_tape_have_no_rule():
    out = ad.matmul(ad.leaf([[1.0]]), ad.leaf([[2.0]]))
    assert out.backward_rule is None and not out.requires_grad


# ------------------------------------------------------- packed sequences

# sequences of lengths 5, 3, 3, 1, sorted longest first: step j holds the
# rows still running, a prefix of the four
RAGGED = [5, 3, 3, 1]
RAGGED_COUNTS = [4, 3, 3, 1, 1]


def packed_rows(lengths):
    """(step, row) of each packed position, step-major."""
    return [(j, r) for j in range(max(lengths))
            for r, n in enumerate(lengths) if j < n]


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
def test_lstm_seq_matches_per_sequence_cells(reverse):
    """Each sequence run alone from the zero state through the scalar
    cell; backward runs its steps last to first."""
    E, rng = 3, np.random.default_rng(12)
    x = rng.normal(size=(len(packed_rows(RAGGED)), 2))
    W, U, b = rng.normal(size=(2, 4 * E)), rng.normal(size=(E, 4 * E)), rng.normal(size=(1, 4 * E))
    H = ad.lstm_seq(ad.constant(x @ W), ad.constant(U), ad.constant(b),
                    RAGGED_COUNTS, reverse=reverse).value
    where = {jr: k for k, jr in enumerate(packed_rows(RAGGED))}
    for r, n in enumerate(RAGGED):
        h = c = np.zeros((1, E))
        for j in (range(n - 1, -1, -1) if reverse else range(n)):
            k = where[j, r]
            h, c = lstm_cell_ref(x[k : k + 1], h, c, W, U, b, E)
            assert np.max(np.abs(H[k] - h[0])) <= 1e-12


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
def test_lstm_seq_gradients_on_ragged_lengths(reverse):
    E, rng = 3, np.random.default_rng(13)
    N = sum(RAGGED)
    xw = rng.normal(size=(N, 4 * E))
    U, b = rng.normal(scale=0.5, size=(E, 4 * E)), rng.normal(size=(1, 4 * E))
    w = rng.normal(size=(N, E))
    fd_check(lambda ls: sum_all(ad.hadamard(
        ad.lstm_seq(ls[0], ls[1], ls[2], RAGGED_COUNTS, reverse=reverse),
        ad.constant(w))), [xw, U, b])


def test_lstm_seq_records_one_node_per_call():
    E, rng = 3, np.random.default_rng(14)
    xw = ad.leaf(rng.normal(size=(sum(RAGGED), 4 * E)))
    U, b = ad.leaf(rng.normal(size=(E, 4 * E))), ad.leaf(rng.normal(size=(1, 4 * E)))
    with ad.Tape() as tape:
        for reverse in (False, True):
            before = len(tape.nodes)
            ad.lstm_seq(xw, U, b, RAGGED_COUNTS, reverse=reverse)
            assert len(tape.nodes) == before + 1


def test_gru_seq_matches_per_sequence_cells():
    """Each sequence run alone from the zero state through the scalar
    cell, with the gate blocks side by side as the op takes them."""
    K, rng = 3, np.random.default_rng(15)
    P = {f"td.{part}_{g}": rng.normal(size=shape) for g in "rzh"
         for part, shape in (("W", (2, K)), ("U", (K, K)), ("b", (1, K)))}
    W, U, b = (np.hstack([P[f"td.{part}_{g}"] for g in "rzh"]) for part in "WUb")
    x = rng.normal(size=(len(packed_rows(RAGGED)), 2))
    H = ad.gru_seq(ad.constant(x @ W), ad.constant(U), ad.constant(b),
                   RAGGED_COUNTS).value
    where = {jr: k for k, jr in enumerate(packed_rows(RAGGED))}
    for r, n in enumerate(RAGGED):
        h = np.zeros((1, K))
        for j in range(n):
            k = where[j, r]
            h = gru_shared_ref(x[k : k + 1], h, P, prefix="td")
            assert np.max(np.abs(H[k] - h[0])) <= 1e-12


def test_gru_seq_gradients_on_ragged_lengths():
    K, rng = 3, np.random.default_rng(16)
    N = sum(RAGGED)
    xw = rng.normal(size=(N, 3 * K))
    U, b = rng.normal(scale=0.5, size=(K, 3 * K)), rng.normal(size=(1, 3 * K))
    w = rng.normal(size=(N, K))
    fd_check(lambda ls: sum_all(ad.hadamard(
        ad.gru_seq(ls[0], ls[1], ls[2], RAGGED_COUNTS), ad.constant(w))), [xw, U, b])


def test_gru_seq_records_one_node_per_call():
    K, rng = 3, np.random.default_rng(17)
    xw = ad.leaf(rng.normal(size=(sum(RAGGED), 3 * K)))
    U, b = ad.leaf(rng.normal(size=(K, 3 * K))), ad.leaf(rng.normal(size=(1, 3 * K)))
    with ad.Tape() as tape:
        ad.gru_seq(xw, U, b, RAGGED_COUNTS)
        assert len(tape.nodes) == 1


@pytest.mark.parametrize("counts", [[2, 3], [2, 0], [], [4, 3, 3, 1]],
                         ids=["increasing", "zero", "empty", "wrong-total"])
def test_packed_ops_reject_bad_step_counts(counts):
    x = ad.constant(np.ones((sum(RAGGED), 12)))
    with pytest.raises((ad.ContractError, ad.ShapeError)):
        ad.lstm_seq(x, ad.constant(np.ones((3, 12))), ad.constant(np.ones((1, 12))), counts)
    with pytest.raises((ad.ContractError, ad.ShapeError)):
        ad.gru_seq(x, ad.constant(np.ones((4, 12))), ad.constant(np.ones((1, 12))), counts)
    with pytest.raises((ad.ContractError, ad.ShapeError)):
        ad.packed_sum(x, counts)


def test_packed_sum_adds_each_rows_steps():
    x = np.arange(sum(RAGGED), dtype=float).reshape(-1, 1)
    got = ad.packed_sum(ad.constant(x), RAGGED_COUNTS).value[:, 0]
    want = np.zeros(len(RAGGED))
    for k, (_, r) in enumerate(packed_rows(RAGGED)):
        want[r] += x[k, 0]
    assert np.array_equal(got, want)


# ------------------------------------------------- finite-difference sweep


def test_every_op_against_finite_differences():
    """100 random trials; each trial runs every differentiable op on
    fresh shapes no larger than 5x5."""
    rng = np.random.default_rng(2024)
    for trial in range(100):
        m, n, p = rng.integers(1, 6, size=3)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=(n, p))
        s = rng.normal(size=(m, n))
        w_mn = rng.normal(size=(m, n))
        w_mp = rng.normal(size=(m, p))

        fd_check(lambda ls: sum_all(ad.hadamard(ad.matmul(ls[0], ls[1]),
                                                ad.constant(w_mp))), [a, b])
        fd_check(lambda ls: sum_all(ad.hadamard(ad.add(ls[0], ls[1]),
                                                ad.constant(w_mn))), [a, s])
        fd_check(lambda ls: sum_all(ad.hadamard(ls[0], ls[1])), [a, s])
        fd_check(lambda ls: sum_all(ad.tanh(ls[0])), [a])
        fd_check(lambda ls: ad.log_softmax_sum(ls[0], w_mn), [a])

        keep = rng.random((m, n)) < 0.7
        if m > 1:
            keep[rng.integers(m)] = False  # exercise the all-masked contract
        fd_check(lambda ls: sum_all(ad.hadamard(ad.masked_softmax(ls[0], keep),
                                                ad.constant(w_mn))), [a])

        w_cat = rng.normal(size=(m, 2 * n))
        fd_check(lambda ls: sum_all(ad.hadamard(ad.hstack([ls[0], ls[1]]),
                                                ad.constant(w_cat))), [a, s])
        w_three = rng.normal(size=(m, 3 * n))
        fd_check(lambda ls: sum_all(ad.hadamard(ad.hstack(list(ls)),
                                                ad.constant(w_three))), [a, s, w_mn])

        bias = rng.normal(size=(1, n))
        fd_check(lambda ls: sum_all(ad.hadamard(ad.add_bias(ls[0], ls[1]),
                                                ad.constant(w_mn))), [a, bias])
        col = rng.normal(size=(m, 1))
        fd_check(lambda ls: sum_all(ad.hadamard(ad.scale_columns(ls[0], ls[1]),
                                                ad.constant(w_mn))), [a, col])

        table = rng.normal(size=(m, n))
        ids = rng.integers(0, m, size=4)  # repeats exercise scatter-add
        w_g = rng.normal(size=(4, n))
        fd_check(lambda ls: sum_all(ad.hadamard(ad.gather_rows(ls[0], ids),
                                                ad.constant(w_g))), [table])

        w_t = rng.normal(size=(n, m))
        fd_check(lambda ls: sum_all(ad.hadamard(ad.reshape(ls[0], n, m),
                                                ad.constant(w_t))), [a])
        counts = -np.sort(-rng.integers(1, 4, size=m))  # m steps, non-increasing
        seqs = rng.normal(size=(int(counts.sum()), n))
        w_p = rng.normal(size=(counts[0], n))
        fd_check(lambda ls: sum_all(ad.hadamard(ad.packed_sum(ls[0], counts),
                                                ad.constant(w_p))), [seqs])
