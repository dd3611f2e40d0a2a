"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D numpy array (row-major, 64-bit). Operations wrap
results in Node objects and record them on the active Tape; Tape.backward
replays the records in reverse creation order, which is always a valid
topological order because parents are created before children.

One tape belongs to one single-threaded run. The active-tape stack is
thread-local, so independent runs may proceed concurrently on disjoint
tapes. Ops executed with no active tape still compute values but cannot
be differentiated (useful for cheap evaluation-only passes).
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "ContractError",
    "Node",
    "Tape",
    "leaf",
    "constant",
    "matmul",
    "add",
    "hadamard",
    "tanh",
    "masked_softmax",
    "log_softmax_sum",
    "hstack",
    "add_bias",
    "scale_columns",
    "gather_rows",
    "reshape",
    "packed_sum",
    "lstm_seq",
    "gru_seq",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ContractError(ValueError):
    """A documented precondition was violated."""


class Node:
    """One value in the computation graph.

    ``grad`` stays None until backward first reaches the node. A node
    created as a constant (requires_grad=False) never accumulates
    gradient.
    """

    __slots__ = ("value", "grad", "parents", "backward_rule", "requires_grad")

    def __init__(self, value, parents=(), backward_rule=None, requires_grad=False):
        self.value = value
        self.grad = None
        self.parents = parents
        self.backward_rule = backward_rule
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(shape={self.value.shape}, requires_grad={self.requires_grad})"


class _TapeStack(threading.local):
    def __init__(self):
        self.stack: list["Tape"] = []


_ACTIVE = _TapeStack()

_ONE = np.ones((1, 1))


class Tape:
    """Creation-ordered record of the differentiable nodes of one run."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _ACTIVE.stack.pop()
        assert popped is self, "tapes must unwind in LIFO order"
        # each rule closes over its own output node; dropping the rules
        # breaks those cycles so the graph is freed by reference counting
        for node in self.nodes:
            node.backward_rule = None
        return False

    def backward(self, loss: Node) -> None:
        """Populate gradients of every node reachable from ``loss``.

        A node feeding several consumers accumulates one contribution
        per consumer. Gradients must be clear when this is called (fresh
        tape and leaves): replay re-propagates whatever grad a node
        already holds, so stacking calls compounds stale values. Call it
        inside the ``with`` block; leaving the block drops the rules.
        """
        if loss.value.shape != (1, 1):
            raise ShapeError(f"backward: loss must be 1x1, got {loss.value.shape}")
        if not loss.requires_grad:
            return
        _acc_copy(loss, _ONE)
        for node in reversed(self.nodes):
            if node.backward_rule is not None and node.grad is not None:
                node.backward_rule()


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"matrix must be 2-D, got {arr.ndim}-D")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"matrix must be non-empty, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


def leaf(data) -> Node:
    """Trainable input node; shares memory with ``data`` when possible."""
    return Node(_as_matrix(data), (), None, True)


def constant(data) -> Node:
    """Non-trainable input node; never accumulates gradient."""
    return Node(_as_matrix(data), (), None, False)


def _record(value: np.ndarray, parents: tuple) -> tuple[Node, bool]:
    stack = _ACTIVE.stack
    if stack:
        for p in parents:
            if p.requires_grad:
                node = Node(value, parents, None, True)
                stack[-1].nodes.append(node)
                return node, True
    return Node(value), False


def _acc(node: Node, g: np.ndarray) -> None:
    # g is a fresh array the node may take ownership of
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = g
    else:
        node.grad += g


def _acc_copy(node: Node, g: np.ndarray) -> None:
    # g is a view or shared buffer; copy before taking ownership
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = g.copy()
    else:
        node.grad += g


def matmul(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {av.shape} vs {bv.shape}")
    out, rec = _record(av @ bv, (a, b))
    if rec:

        def rule():
            g = out.grad
            if a.requires_grad:
                _acc(a, g @ bv.T)
            if b.requires_grad:
                _acc(b, av.T @ g)

        out.backward_rule = rule
    return out


def _check_same_shape(op: str, a: Node, b: Node) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shapes disagree: {a.value.shape} vs {b.value.shape}")


def add(a: Node, b: Node) -> Node:
    _check_same_shape("add", a, b)
    out, rec = _record(a.value + b.value, (a, b))
    if rec:

        def rule():
            g = out.grad
            _acc_copy(a, g)
            _acc_copy(b, g)

        out.backward_rule = rule
    return out


def hadamard(a: Node, b: Node) -> Node:
    _check_same_shape("hadamard", a, b)
    out, rec = _record(a.value * b.value, (a, b))
    if rec:

        def rule():
            g = out.grad
            if a.requires_grad:
                _acc(a, g * b.value)
            if b.requires_grad:
                _acc(b, g * a.value)

        out.backward_rule = rule
    return out


def tanh(x: Node) -> Node:
    y = np.tanh(x.value)
    out, rec = _record(y, (x,))
    if rec:

        def rule():
            _acc(x, out.grad * (1.0 - y * y))

        out.backward_rule = rule
    return out


def masked_softmax(scores: Node, keep) -> Node:
    """Softmax over rows restricted to ``keep`` positions.

    Excluded positions are exactly zero in the output (exclusion from the
    normalization set, not a large-negative approximation). A row with no
    kept position yields an all-zero row.
    """
    k = np.asarray(keep, dtype=bool)
    if k.ndim == 1:
        k = k.reshape(1, -1)
    if k.shape != scores.value.shape:
        raise ShapeError(f"masked_softmax: mask shape {k.shape} vs scores {scores.value.shape}")
    x = scores.value
    masked = np.where(k, x, -np.inf)
    rowmax = masked.max(axis=1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    e = np.where(k, np.exp(np.where(k, x - rowmax, 0.0)), 0.0)
    denom = e.sum(axis=1, keepdims=True)
    y = np.divide(e, denom, out=np.zeros_like(e), where=denom > 0.0)
    out, rec = _record(y, (scores,))
    if rec:

        def rule():
            # masked (zero) positions get zero gradient
            g = out.grad
            dot = (g * y).sum(axis=1, keepdims=True)
            _acc(scores, y * (g - dot))

        out.backward_rule = rule
    return out


def log_softmax_sum(z: Node, w) -> Node:
    """Weighted log-likelihood ``sum(w * log softmax(z))`` over the rows
    of the logits ``z``, as one (1, 1) node; ``w`` is a constant array of
    z's shape. The log-probabilities come from the shifted logits by
    log-sum-exp, with no clamp, so a saturated row keeps its true value
    and a non-zero gradient ``w - softmax(z) * rowsum(w)``.
    """
    wv = np.asarray(w, dtype=np.float64)
    if wv.shape != z.value.shape:
        raise ShapeError(f"log_softmax_sum: weights {wv.shape} vs logits {z.value.shape}")
    shifted = z.value - z.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    out, rec = _record(np.array([[(wv * (shifted - np.log(total))).sum()]]), (z,))
    if rec:

        def rule():
            _acc(z, out.grad[0, 0] * (wv - e / total * wv.sum(axis=1, keepdims=True)))

        out.backward_rule = rule
    return out


def hstack(parts: Sequence[Node]) -> Node:
    if not parts:
        raise ShapeError("hstack: needs at least one part")
    rows = parts[0].value.shape[0]
    for p in parts:
        if p.value.shape[0] != rows:
            raise ShapeError("hstack: row counts disagree")
    widths = [p.value.shape[1] for p in parts]
    out, rec = _record(np.hstack([p.value for p in parts]), tuple(parts))
    if rec:
        offsets = np.cumsum([0] + widths)

        def rule():
            g = out.grad
            for i, p in enumerate(parts):
                _acc_copy(p, g[:, offsets[i] : offsets[i + 1]])

        out.backward_rule = rule
    return out


def add_bias(x: Node, b: Node) -> Node:
    """Broadcast-add a 1xN bias row over every row of x."""
    if b.value.shape[0] != 1 or b.value.shape[1] != x.value.shape[1]:
        raise ShapeError(f"add_bias: bias {b.value.shape} vs operand {x.value.shape}")
    out, rec = _record(x.value + b.value, (x, b))
    if rec:

        def rule():
            g = out.grad
            _acc_copy(x, g)
            if b.requires_grad:
                _acc(b, g.sum(axis=0, keepdims=True))

        out.backward_rule = rule
    return out


def scale_columns(x: Node, c: Node) -> Node:
    """Multiply every row of x by the matching scalar in the Mx1 column c."""
    if c.value.shape != (x.value.shape[0], 1):
        raise ShapeError(f"scale_columns: column {c.value.shape} vs operand {x.value.shape}")
    out, rec = _record(x.value * c.value, (x, c))
    if rec:

        def rule():
            g = out.grad
            if x.requires_grad:
                _acc(x, g * c.value)
            if c.requires_grad:
                _acc(c, (g * x.value).sum(axis=1, keepdims=True))

        out.backward_rule = rule
    return out


def gather_rows(table: Node, ids) -> Node:
    """Select rows of ``table`` by integer index. The backward is one
    ``np.bincount`` scatter-add over the flat (row, column) cells, which
    sums in index order, so bitwise as ``np.add.at`` into a zero table."""
    idx = np.asarray(ids, dtype=np.intp).reshape(-1)
    if idx.size < 1:
        raise ShapeError("gather_rows: needs at least one index")
    n, w = table.value.shape
    if idx.min() < 0 or idx.max() >= n:
        raise ShapeError(f"gather_rows: index out of range for table with {n} rows")
    out, rec = _record(table.value[idx], (table,))
    if rec:

        def rule():
            cells = (idx[:, None] * w + np.arange(w)).ravel()
            _acc(table, np.bincount(cells, weights=out.grad.ravel(),
                                    minlength=n * w).reshape(n, w))

        out.backward_rule = rule
    return out


def reshape(x: Node, rows: int, cols: int) -> Node:
    """The values of x, read in row-major order, as a rows x cols matrix."""
    if rows * cols != x.value.size:
        raise ShapeError(f"reshape: cannot view {x.value.shape} as ({rows}, {cols})")
    out, rec = _record(x.value.reshape(rows, cols).copy(), (x,))
    if rec:

        def rule():
            _acc_copy(x, out.grad.reshape(x.value.shape))

        out.backward_rule = rule
    return out


def _step_offsets(op: str, counts, rows: int) -> np.ndarray:
    """Row offsets of the steps of a packed sequence: step j holds rows
    offs[j]:offs[j+1]. Counts must be positive and never increase."""
    n = np.asarray(counts, dtype=np.intp).reshape(-1)
    if n.size < 1 or n[-1] < 1 or np.any(n[1:] > n[:-1]):
        raise ContractError(f"{op}: step counts must be positive and non-increasing")
    offs = np.zeros(n.size + 1, dtype=np.intp)
    np.cumsum(n, out=offs[1:])
    if offs[-1] != rows:
        raise ShapeError(f"{op}: step counts sum to {offs[-1]}, operand has {rows} rows")
    return offs


def packed_sum(x: Node, counts) -> Node:
    """Sum a packed sequence over its steps.

    ``x`` is step-major: step j holds ``counts[j]`` rows, and they are
    rows 0..counts[j]-1 of that step (sequences sorted longest first).
    Row r of the (counts[0], M) result adds row r of every step that has
    one, in step order.
    """
    offs = _step_offsets("packed_sum", counts, x.value.shape[0])
    xv = x.value
    v = xv[: offs[1]].copy()
    for lo, hi in zip(offs[1:-1], offs[2:]):
        v[: hi - lo] += xv[lo:hi]
    out, rec = _record(v, (x,))
    if rec:

        def rule():
            g = out.grad
            dx = np.empty_like(xv)
            for lo, hi in zip(offs[:-1], offs[1:]):
                dx[lo:hi] = g[: hi - lo]
            _acc(x, dx)

        out.backward_rule = rule
    return out


def lstm_seq(XW: Node, U: Node, b: Node, counts, reverse: bool = False) -> Node:
    """One LSTM direction over a packed batch of sequences, as one node.

    ``XW`` (N, 4E) holds the input projections of every real step in the
    layout of ``packed_sum``; ``U`` is (E, 4E) and ``b`` (1, 4E), gate
    layout i|f|o|g. Forward runs the steps in order from the zero state
    and drops the state of sequences that have ended. With ``reverse``
    the steps run last to first, and a sequence enters at its last step
    from the zero state. Returns the (N, E) hidden states, row-aligned
    with ``XW``. Backward is hand-derived BPTT over the stored gates.
    """
    xw, u, bv = XW.value, U.value, b.value
    E = u.shape[0]
    if u.shape != (E, 4 * E) or xw.shape[1] != 4 * E or bv.shape != (1, 4 * E):
        raise ShapeError(f"lstm_seq: XW {xw.shape}, U {u.shape}, b {bv.shape} "
                         "do not fit an i|f|o|g layout")
    offs = _step_offsets("lstm_seq", counts, xw.shape[0])
    N, T = xw.shape[0], offs.size - 1
    steps = range(T - 1, -1, -1) if reverse else range(T)
    acts = np.empty((N, 4 * E))  # gate activations, i|f|o|g
    h_prev = np.zeros((N, E))  # the state each step starts from
    c_prev = np.zeros((N, E))
    tanh_c = np.empty((N, E))
    H = np.empty((N, E))
    C = np.empty((N, E))
    last = None
    for j in steps:
        lo, hi = offs[j], offs[j + 1]
        if last is not None:
            # the carried rows are a prefix of both this step and the last
            k = min(hi - lo, last[1] - last[0])
            h_prev[lo : lo + k] = H[last[0] : last[0] + k]
            c_prev[lo : lo + k] = C[last[0] : last[0] + k]
        pre = xw[lo:hi] + h_prev[lo:hi] @ u
        pre += bv
        a = acts[lo:hi]
        a[:, : 3 * E] = 0.5 * (np.tanh(0.5 * pre[:, : 3 * E]) + 1.0)
        a[:, 3 * E :] = np.tanh(pre[:, 3 * E :])
        C[lo:hi] = a[:, E : 2 * E] * c_prev[lo:hi] + a[:, :E] * a[:, 3 * E :]
        tanh_c[lo:hi] = np.tanh(C[lo:hi])
        H[lo:hi] = a[:, 2 * E : 3 * E] * tanh_c[lo:hi]
        last = (lo, hi)
    out, rec = _record(H, (XW, U, b))
    if rec:

        def rule():
            dH = out.grad
            deriv = acts * (1.0 - acts)
            deriv[:, 3 * E :] = 1.0 - acts[:, 3 * E :] ** 2
            dpre = np.empty((N, 4 * E))
            # gradient of the next step's start state; none before the last step
            dh_next = dc_next = np.zeros((0, E))
            for j in reversed(steps):
                lo, hi = offs[j], offs[j + 1]
                a, tc = acts[lo:hi], tanh_c[lo:hi]
                dh = dH[lo:hi].copy()
                k = min(hi - lo, dh_next.shape[0])
                dh[:k] += dh_next[:k]
                dc = dh * a[:, 2 * E : 3 * E] * (1.0 - tc * tc)
                dc[:k] += dc_next[:k]
                dp = dpre[lo:hi]
                dp[:, :E] = dc * a[:, 3 * E :]
                dp[:, E : 2 * E] = dc * c_prev[lo:hi]
                dp[:, 2 * E : 3 * E] = dh * tc
                dp[:, 3 * E :] = dc * a[:, :E]
                dp *= deriv[lo:hi]
                dh_next = dp @ u.T
                dc_next = dc * a[:, E : 2 * E]
            if U.requires_grad:
                _acc(U, h_prev.T @ dpre)
            if b.requires_grad:
                _acc(b, dpre.sum(axis=0, keepdims=True))
            _acc(XW, dpre)

        out.backward_rule = rule
    return out


def gru_seq(XW: Node, U: Node, b: Node, counts) -> Node:
    """One GRU over a packed batch of sequences, as one node.

    ``XW`` (N, 3K) holds the input projections of every step in the
    layout of ``packed_sum``; ``U`` is (K, 3K) and ``b`` (1, 3K), gate
    layout r|z|h. Each step computes r and z from ``XW + h_prev U + b``,
    the candidate from ``XW_h + (h_prev * r) U_h + b_h``, and
    ``h = (1 - z) * h_prev + z * candidate``, from the zero state; a
    sequence's state is dropped once it has ended. Returns the (N, K)
    hidden states, row-aligned with ``XW``. Backward is hand-derived BPTT
    over the stored gates and ``h_prev * r``.
    """
    xw, u, bv = XW.value, U.value, b.value
    K = u.shape[0]
    if u.shape != (K, 3 * K) or xw.shape[1] != 3 * K or bv.shape != (1, 3 * K):
        raise ShapeError(f"gru_seq: XW {xw.shape}, U {u.shape}, b {bv.shape} "
                         "do not fit an r|z|h layout")
    offs = _step_offsets("gru_seq", counts, xw.shape[0])
    N, T = xw.shape[0], offs.size - 1
    u_rz, u_h = u[:, : 2 * K], u[:, 2 * K :]
    acts = np.empty((N, 3 * K))  # gate activations, r|z|h
    h_prev = np.zeros((N, K))  # the state each step starts from
    hr = np.empty((N, K))  # h_prev * r, the candidate's recurrent input
    H = np.empty((N, K))
    for j in range(T):
        lo, hi = offs[j], offs[j + 1]
        if j:
            # every row of this step ran in the last one, as its prefix
            h_prev[lo:hi] = H[offs[j - 1] : offs[j - 1] + hi - lo]
        hp, a = h_prev[lo:hi], acts[lo:hi]
        pre = xw[lo:hi, : 2 * K] + hp @ u_rz
        pre += bv[:, : 2 * K]
        a[:, : 2 * K] = 0.5 * (np.tanh(0.5 * pre) + 1.0)
        np.multiply(hp, a[:, :K], out=hr[lo:hi])
        pre = xw[lo:hi, 2 * K :] + hr[lo:hi] @ u_h
        pre += bv[:, 2 * K :]
        np.tanh(pre, out=a[:, 2 * K :])
        z = a[:, K : 2 * K]
        H[lo:hi] = hp - z * hp + z * a[:, 2 * K :]
    out, rec = _record(H, (XW, U, b))
    if rec:

        def rule():
            dH = out.grad
            dpre = np.empty((N, 3 * K))
            # gradient of the next step's start state; none after the last step
            dh_next = np.zeros((0, K))
            for j in range(T - 1, -1, -1):
                lo, hi = offs[j], offs[j + 1]
                a, hp = acts[lo:hi], h_prev[lo:hi]
                r, z, c = a[:, :K], a[:, K : 2 * K], a[:, 2 * K :]
                dh = dH[lo:hi].copy()
                dh[: dh_next.shape[0]] += dh_next
                dp = dpre[lo:hi]
                dp[:, 2 * K :] = dh * z * (1.0 - c * c)
                dhr = dp[:, 2 * K :] @ u_h.T
                dp[:, :K] = dhr * hp * r * (1.0 - r)
                dp[:, K : 2 * K] = dh * (c - hp) * z * (1.0 - z)
                dh_next = dh - dh * z + dhr * r + dp[:, : 2 * K] @ u_rz.T
            if U.requires_grad:
                dU = np.empty((K, 3 * K))
                np.matmul(h_prev.T, dpre[:, : 2 * K], out=dU[:, : 2 * K])
                np.matmul(hr.T, dpre[:, 2 * K :], out=dU[:, 2 * K :])
                _acc(U, dU)
            if b.requires_grad:
                _acc(b, dpre.sum(axis=0, keepdims=True))
            _acc(XW, dpre)

        out.backward_rule = rule
    return out
