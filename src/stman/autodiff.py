"""Reverse-mode automatic differentiation over dense float64 matrices.

Every value is a 2-D numpy array (row-major, 64-bit). Operations wrap
results in Node objects. A differentiable result recorded on the active
Tape also gets a Record: its gradient and its backward rule. The tape
holds the Records, not the Nodes, and a rule closes over its own Record,
its parents' Records and only the arrays its backward reads, never over
a Node. So a forward value lives as long as the caller's Node, or as long
as a rule that reads it: an intermediate no backward reads is freed as
soon as the forward code drops it. Tape.backward runs the records once,
in reverse creation order, which is always a valid topological order
because parents are created before children, and frees each record's
saved state as it passes.

One tape belongs to one single-threaded run. The active-tape stack is
thread-local, so independent runs may proceed concurrently on disjoint
tapes. Ops executed with no active tape still compute values but cannot
be differentiated (useful for cheap evaluation-only passes).

Batches of variable-length sequences (the tokens of utterances, the
utterances of dialogues) have one packed layout, which ``pack`` builds
from a padding mask: sequences longest first, step-major, with no row
for padding. The sequence ops ``packed_sum``, ``packed_softmax``,
``lstm_seq`` and ``gru_seq`` each take a packed operand and its step
counts, and run every step of every sequence as one node. The two
recurrences share one driver, ``_recurrence``: it keeps their gates and
states for every row only under a tape, and its backward sweep carries
each step's start-state gradient into the node's own gradient.
"""

from __future__ import annotations

import itertools
import threading
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "ContractError",
    "Node",
    "Record",
    "Tape",
    "leaf",
    "constant",
    "matmul",
    "add",
    "hadamard",
    "tanh",
    "log_softmax_sum",
    "hstack",
    "add_bias",
    "scale_columns",
    "gather_rows",
    "reshape",
    "Packing",
    "pack",
    "packed_sum",
    "packed_softmax",
    "lstm_seq",
    "gru_seq",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ContractError(ValueError):
    """A documented precondition was violated."""


class Record:
    """The gradient side of a differentiable node: what backward reads
    and writes. A tape lists the records of its nodes; a leaf's record
    is on no tape, so it keeps its gradient."""

    __slots__ = ("grad", "backward_rule")

    def __init__(self):
        self.grad = None
        self.backward_rule = None


class Node:
    """One value in the computation graph, and its Record when it is
    differentiable: a leaf, or an op result recorded on a tape. A
    constant, or an op result with no tape or no differentiable parent,
    has none and never accumulates gradient.

    ``grad`` stays None until backward first reaches the node; on a
    recorded node it is None again once backward has run the node's rule.
    """

    __slots__ = ("value", "rec")

    def __init__(self, value, rec=None):
        self.value = value
        self.rec = rec

    @property
    def grad(self):
        return None if self.rec is None else self.rec.grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Node(shape={self.value.shape}, differentiable={self.rec is not None})"


class _TapeStack(threading.local):
    def __init__(self):
        self.stack: list["Tape"] = []


_ACTIVE = _TapeStack()

_ONE = np.ones((1, 1))


class Tape:
    """Creation-ordered Records of the differentiable nodes of one run.

    ``nodes`` lists Records, not Nodes: a tape keeps no node value alive.
    A value lives as long as the caller's Node, or as long as a rule
    that reads it. A tape runs backward once. As the sweep passes each
    record it drops the record's rule (and with it the gates, states and
    operands the rule saved) and its gradient, so the part of the graph
    already differentiated is freed while the rest runs. Leaves' records
    are not on the tape, so they keep their gradients.
    """

    def __init__(self):
        self.nodes: list[Record] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _ACTIVE.stack.pop()
        assert popped is self, "tapes must unwind in LIFO order"
        # each rule closes over its own record; dropping the rules of a
        # tape that never ran backward breaks those cycles so the graph
        # is freed by reference counting
        for rec in self.nodes:
            rec.backward_rule = None
        return False

    def backward(self, loss: Node) -> None:
        """Populate the gradients of the leaves reachable from ``loss``.

        A node feeding several consumers accumulates one contribution per
        consumer, so leaf gradients must be clear (fresh leaves). Each
        recorded node's rule and gradient are set to None once the sweep
        has passed it, whether or not a gradient reached it; a second
        call on the same tape is therefore a ContractError.
        """
        if self._spent:
            raise ContractError("backward: this tape is spent (backward already "
                                "ran on it); record the graph on a fresh tape")
        if loss.value.shape != (1, 1):
            raise ShapeError(f"backward: loss must be 1x1, got {loss.value.shape}")
        self._spent = True
        _acc_copy(loss.rec, _ONE)
        for rec in reversed(self.nodes):
            if rec.backward_rule is not None and rec.grad is not None:
                rec.backward_rule()
            rec.backward_rule = rec.grad = None


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
    return Node(_as_matrix(data), Record())


def constant(data) -> Node:
    """Non-trainable input node; never accumulates gradient."""
    return Node(_as_matrix(data))


def _record(value: np.ndarray, parents: tuple) -> Node:
    """``value`` as a Node, with a Record on the active tape when a
    parent is differentiable; otherwise with none, and nothing else is
    allocated."""
    if _will_record(parents):
        rec = Record()
        _ACTIVE.stack[-1].nodes.append(rec)
        return Node(value, rec)
    return Node(value)


def _will_record(parents: tuple) -> bool:
    """Whether ``_record`` will put a node with these parents on a tape."""
    return bool(_ACTIVE.stack) and any(p.rec is not None for p in parents)


def _acc(rec: Record | None, g: np.ndarray) -> None:
    # g is a fresh array the record may take ownership of
    if rec is None:
        return
    if rec.grad is None:
        rec.grad = g
    else:
        rec.grad += g


def _acc_copy(rec: Record | None, g: np.ndarray) -> None:
    # g is a view or shared buffer; copy before taking ownership
    if rec is None:
        return
    if rec.grad is None:
        rec.grad = g.copy()
    else:
        rec.grad += g


def matmul(a: Node, b: Node) -> Node:
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {av.shape} vs {bv.shape}")
    out = _record(av @ bv, (a, b))
    rec, ra, rb = out.rec, a.rec, b.rec
    if rec is not None:
        # each operand is kept only for the other's gradient
        if ra is None:
            bv = None
        if rb is None:
            av = None

        def rule():
            g = rec.grad
            if ra is not None:
                _acc(ra, g @ bv.T)
            if rb is not None:
                _acc(rb, av.T @ g)

        rec.backward_rule = rule
    return out


def _check_same_shape(op: str, a: Node, b: Node) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shapes disagree: {a.value.shape} vs {b.value.shape}")


def add(a: Node, b: Node) -> Node:
    _check_same_shape("add", a, b)
    out = _record(a.value + b.value, (a, b))
    rec, ra, rb = out.rec, a.rec, b.rec
    if rec is not None:

        def rule():
            g = rec.grad
            _acc_copy(ra, g)
            _acc_copy(rb, g)

        rec.backward_rule = rule
    return out


def hadamard(a: Node, b: Node) -> Node:
    _check_same_shape("hadamard", a, b)
    av, bv = a.value, b.value
    out = _record(av * bv, (a, b))
    rec, ra, rb = out.rec, a.rec, b.rec
    if rec is not None:
        if ra is None:
            bv = None
        if rb is None:
            av = None

        def rule():
            g = rec.grad
            if ra is not None:
                _acc(ra, g * bv)
            if rb is not None:
                _acc(rb, g * av)

        rec.backward_rule = rule
    return out


def tanh(x: Node) -> Node:
    y = np.tanh(x.value)
    out = _record(y, (x,))
    rec, rx = out.rec, x.rec
    if rec is not None:

        def rule():
            _acc(rx, rec.grad * (1.0 - y * y))

        rec.backward_rule = rule
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
    out = _record(np.array([[(wv * (shifted - np.log(total))).sum()]]), (z,))
    rec, rz = out.rec, z.rec
    if rec is not None:

        def rule():
            _acc(rz, rec.grad[0, 0] * (wv - e / total * wv.sum(axis=1, keepdims=True)))

        rec.backward_rule = rule
    return out


def hstack(parts: Sequence[Node]) -> Node:
    if not parts:
        raise ShapeError("hstack: needs at least one part")
    rows = parts[0].value.shape[0]
    for p in parts:
        if p.value.shape[0] != rows:
            raise ShapeError("hstack: row counts disagree")
    widths = [p.value.shape[1] for p in parts]
    out = _record(np.hstack([p.value for p in parts]), tuple(parts))
    rec = out.rec
    if rec is not None:
        recs = [p.rec for p in parts]
        offsets = np.cumsum([0] + widths)

        def rule():
            g = rec.grad
            for i, r in enumerate(recs):
                _acc_copy(r, g[:, offsets[i] : offsets[i + 1]])

        rec.backward_rule = rule
    return out


def add_bias(x: Node, b: Node) -> Node:
    """Broadcast-add a 1xN bias row over every row of x."""
    if b.value.shape[0] != 1 or b.value.shape[1] != x.value.shape[1]:
        raise ShapeError(f"add_bias: bias {b.value.shape} vs operand {x.value.shape}")
    out = _record(x.value + b.value, (x, b))
    rec, rx, rb = out.rec, x.rec, b.rec
    if rec is not None:

        def rule():
            g = rec.grad
            _acc_copy(rx, g)
            if rb is not None:
                _acc(rb, g.sum(axis=0, keepdims=True))

        rec.backward_rule = rule
    return out


def scale_columns(x: Node, c: Node) -> Node:
    """Multiply every row of x by the matching scalar in the Mx1 column c."""
    if c.value.shape != (x.value.shape[0], 1):
        raise ShapeError(f"scale_columns: column {c.value.shape} vs operand {x.value.shape}")
    xv, cv = x.value, c.value
    out = _record(xv * cv, (x, c))
    rec, rx, rc = out.rec, x.rec, c.rec
    if rec is not None:
        if rx is None:
            cv = None
        if rc is None:
            xv = None

        def rule():
            g = rec.grad
            if rx is not None:
                _acc(rx, g * cv)
            if rc is not None:
                _acc(rc, (g * xv).sum(axis=1, keepdims=True))

        rec.backward_rule = rule
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
    out = _record(table.value[idx], (table,))
    rec, rt = out.rec, table.rec
    if rec is not None:

        def rule():
            cells = (idx[:, None] * w + np.arange(w)).ravel()
            _acc(rt, np.bincount(cells, weights=rec.grad.ravel(),
                                 minlength=n * w).reshape(n, w))

        rec.backward_rule = rule
    return out


def reshape(x: Node, rows: int, cols: int) -> Node:
    """The values of x, read in row-major order, as a rows x cols matrix."""
    if rows * cols != x.value.size:
        raise ShapeError(f"reshape: cannot view {x.value.shape} as ({rows}, {cols})")
    out = _record(x.value.reshape(rows, cols).copy(), (x,))
    rec, rx = out.rec, x.rec
    if rec is not None:
        shape = x.value.shape

        def rule():
            _acc_copy(rx, rec.grad.reshape(shape))

        rec.backward_rule = rule
    return out


class Packing(NamedTuple):
    """The packed layout of the real steps of a batch of sequences (see
    ``pack``)."""

    order: np.ndarray  # (S,) grid row of each sequence, longest first
    counts: np.ndarray  # (T,) rows of each step
    rows: np.ndarray  # (N,) position-major grid cell t*S + s of each row

    def take(self, grid: np.ndarray) -> np.ndarray:
        """The entries of an (S, T) per-step grid at the packed rows."""
        return grid.T.reshape(-1)[self.rows]


def pack(valid: np.ndarray) -> Packing:
    """The packed layout of the real steps of an (S, T) mask of S
    sequences, the one ``packed_sum``, ``packed_softmax``, ``lstm_seq``
    and ``gru_seq`` run on: sequences in stable descending order of
    length (ties keep grid order), step-major, so step t holds
    ``counts[t]`` rows, one per sequence still running at t, in that
    order. Every sequence needs a first step, and padding must be
    trailing."""
    S, T = valid.shape
    lengths = valid.sum(axis=1)
    trailing = np.array_equal(valid, np.arange(T) < lengths[:, None])
    if not lengths.size or lengths.min() < 1 or not trailing:
        raise ContractError("pack: needs a sequence, every sequence needs a "
                            "first step, and padding must be trailing")
    order = np.argsort(-lengths, kind="stable")
    steps, ranks = np.nonzero(valid[order].T)
    return Packing(order, np.bincount(steps), steps * S + order[ranks])


def _step_offsets(op: str, counts, rows: int) -> list[int]:
    """Row offsets of the steps of a packed sequence, as Python ints: step
    j holds rows offs[j]:offs[j+1]. Counts must be positive and never
    increase."""
    n = np.asarray(counts).tolist()
    if not n or n[-1] < 1 or n != sorted(n, reverse=True):
        raise ContractError(f"{op}: step counts must be positive and non-increasing")
    offs = list(itertools.accumulate(n, initial=0))
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
    out = _record(v, (x,))
    rec, rx = out.rec, x.rec
    if rec is not None:
        shape, dtype = xv.shape, xv.dtype

        def rule():
            g = rec.grad
            dx = np.empty(shape, dtype)
            for lo, hi in zip(offs[:-1], offs[1:]):
                dx[lo:hi] = g[: hi - lo]
            _acc(rx, dx)

        rec.backward_rule = rule
    return out


def packed_softmax(scores: Node, counts, keep=None) -> Node:
    """Softmax over the steps of each sequence of a packed batch.

    ``scores`` is (N, 1) in the layout of ``packed_sum``, and so are the
    returned weights. A sequence normalizes over its rows that the (N,)
    flags ``keep`` mark, or over all its rows when ``keep`` is None. A
    row left out gets exactly zero (exclusion from the normalization
    set, not a large-negative approximation), a sequence with no kept
    row gets all zeros, and a NaN score stays NaN. The arithmetic runs
    on the (sequence, step) grid, zero past each sequence's end, so the
    sums round as they do over a padded batch.
    """
    N = scores.value.shape[0]
    offs = _step_offsets("packed_softmax", counts, N)
    S, T = offs[1], len(offs) - 1
    if scores.value.shape[1] != 1:
        raise ShapeError(f"packed_softmax: scores must be (N, 1), got {scores.value.shape}")
    steps = np.repeat(np.arange(T), np.diff(offs))
    ranks = np.arange(N) - np.take(offs, steps)
    if keep is not None and np.shape(keep) != (N,):
        raise ShapeError(f"packed_softmax: keep {np.shape(keep)} vs scores {scores.value.shape}")
    k = np.zeros((S, T), dtype=bool)
    k[ranks, steps] = True if keep is None else keep
    x = np.zeros((S, T))
    x[ranks, steps] = scores.value[:, 0]
    masked = np.where(k, x, -np.inf)
    rowmax = masked.max(axis=1, keepdims=True)
    rowmax = np.where(np.isfinite(rowmax), rowmax, 0.0)
    e = np.where(k, np.exp(np.where(k, x - rowmax, 0.0)), 0.0)
    denom = e.sum(axis=1, keepdims=True)
    # only a sequence with no kept row is zero; a NaN score stays NaN
    y = np.divide(e, denom, out=np.zeros_like(e), where=k.any(axis=1, keepdims=True))
    out = _record(y[ranks, steps].reshape(N, 1), (scores,))
    rec, rs = out.rec, scores.rec
    if rec is not None:

        def rule():
            # rows left out have zero weight, so zero gradient
            g = np.zeros((S, T))
            g[ranks, steps] = rec.grad[:, 0]
            dot = (g * y).sum(axis=1, keepdims=True)
            _acc(rs, (y * (g - dot))[ranks, steps].reshape(N, 1))

        rec.backward_rule = rule
    return out


def _recurrence(op, parents, counts, reverse, forward, adjoint, grad_U, cell=False):
    """A gated recurrence over a packed batch, as one node: the machinery
    ``lstm_seq`` and ``gru_seq`` share. ``parents`` is (XW, U) or
    (XW, U, b): XW (N, G*W) in the layout of ``packed_sum``, U (W, G*W)
    for G gates of width W. Returns the (N, W) hidden states.

    ``forward(n0)`` allocates the op's scratch for steps of up to n0 rows
    and returns ``step(lo, hi, hp, h, a, kept, cp, c)``. It runs rows
    lo:hi from the start state ``hp`` (and cells ``cp``, for a ``cell``)
    and writes ``h`` (and ``c``), the gate activations ``a``, gate-major
    (G, n, W) so that each gate's elementwise pass is contiguous, and
    ``kept`` (n, W), the one other per-row array its adjoint reads.
    These and the start states are kept for every row only under a
    tape; without one, each step reuses one step's buffers. The cells
    take two steps' buffers in turn either way, since backward reads the
    start states. A step starts from a view of the rows the step run
    before it wrote, or, when it has more rows, their copy into a prefix
    of the zero state.

    Backward takes the steps in reverse run order. To a step's rows
    ``dh`` of the node's own gradient it adds, in the first k, the
    start-state gradient of the step run after it. Then ``back(lo, hi,
    dh, dp, dh_next, k)``, which ``adjoint(n0, acts, kept, h_prev,
    c_prev)`` returns with the op's backward scratch, writes the step's
    rows ``dp`` of ``dpre`` (N, G*W) and its own start-state gradient.
    ``dU`` is ``grad_U(h_prev, kept, dpre)``, ``db`` the column sums of
    ``dpre`` and ``dXW`` ``dpre``. Every matmul operand stays row-major,
    so each result is bitwise that of a per-row loop.
    """
    offs, (W, GW) = _step_offsets(op, counts, len(parents[0].value)), parents[1].value.shape
    N, T, n0 = offs[-1], len(offs) - 1, offs[1]
    steps = range(T - 1, -1, -1) if reverse else range(T)
    taped = _will_record(parents)
    rows = N if taped else n0
    acts, kept = np.empty((GW // W, rows, W)), np.empty((rows, W))
    C = np.empty((2, n0, W)) if cell else None
    step, H = forward(n0), np.empty((N, W))
    h0, c0 = np.zeros((n0, W)), np.zeros((n0, W)) if cell else None
    if taped:  # the start states, which backward reads
        h_prev, c_prev = np.empty((N, W)), np.empty((N, W)) if cell else None
    hs, cs, cp, c = h0, c0, None, None  # hs, cs: the last step's states
    for j in steps:
        lo, hi = offs[j], offs[j + 1]
        n, h = hi - lo, H[lo:hi]
        r = lo if taped else 0
        if n > len(hs):  # the last step's states, then zeros for the rows it lacks
            h0[: len(hs)], hs = hs, h0
            if cell:
                c0[: len(cs)], cs = cs, c0
        hp = hs[:n]
        if cell:
            cp, c = cs[:n], C[j % 2, :n]
        if taped:
            h_prev[lo:hi] = hp
            if cell:
                c_prev[lo:hi] = cp
        step(lo, hi, hp, h, acts[:, r : r + n], kept[r : r + n], cp, c)
        hs, cs = h, c
    out = _record(H, parents)
    rec, rX, rU = out.rec, parents[0].rec, parents[1].rec
    if rec is not None:
        rb = parents[2].rec if len(parents) == 3 else None

        def rule():
            # the node's own gradient, dropped once this rule has run, so
            # each step adds the next step's start-state gradient into it
            dH, dpre = rec.grad, np.empty((N, GW))
            back = adjoint(n0, acts, kept, h_prev, c_prev)
            dh_next, m = np.empty((n0, W)), 0  # that gradient, and its rows
            for j in reversed(steps):
                lo, hi = offs[j], offs[j + 1]
                n, dh = hi - lo, dH[lo:hi]
                k = n if n < m else m
                dh[:k] += dh_next[:k]
                back(lo, hi, dh, dpre[lo:hi], dh_next[:n], k)
                m = n
            if rU is not None:
                _acc(rU, grad_U(h_prev, kept, dpre))
            if rb is not None:
                _acc(rb, dpre.sum(axis=0, keepdims=True))
            _acc(rX, dpre)

        rec.backward_rule = rule
    return out


def lstm_seq(XW: Node, U: Node, b: Node, counts, reverse: bool = False) -> Node:
    """One LSTM direction over a packed batch of sequences, as one node.

    ``XW`` (N, 4E) holds the input projections of every real step in the
    layout of ``packed_sum``; ``U`` is (E, 4E) and ``b`` (1, 4E), gate
    layout i|f|o|g. Forward runs the steps in order from the zero state
    and drops the state of sequences that have ended. With ``reverse``
    the steps run last to first, and a sequence enters at its last step
    from the zero state. Returns the (N, E) hidden states, row-aligned
    with ``XW``. Backward is hand-derived BPTT over the stored gates, cell
    tanh and start states (see ``_recurrence``). The bias is added from a
    copy tiled to one step's rows.
    """
    xw, u, bv = XW.value, U.value, b.value
    E = u.shape[0]
    if u.shape != (E, 4 * E) or xw.shape[1] != 4 * E or bv.shape != (1, 4 * E):
        raise ShapeError(f"lstm_seq: XW {xw.shape}, U {u.shape}, b {bv.shape} "
                         "do not fit an i|f|o|g layout")

    def forward(n0):
        pre, bias = np.empty((n0, 4 * E)), np.repeat(bv, n0, axis=0)

        def step(lo, hi, hp, h, a, tc, cp, c):
            n = hi - lo
            p = pre[:n]
            np.matmul(hp, u, out=p)
            p += xw[lo:hi]
            p += bias[:n]
            # sigmoid(x) = (tanh(x / 2) + 1) / 2 on i|f|o, one tanh for all four;
            # the halving pass also moves the gates into their slabs
            p4 = p.reshape(n, 4, E).transpose(1, 0, 2)
            np.multiply(p4[:3], 0.5, out=a[:3])
            a[3] = p4[3]
            np.tanh(a, out=a)
            s = a[:3]
            s += 1.0
            s *= 0.5
            i, f, o, g = a[0], a[1], a[2], a[3]
            np.multiply(f, cp, out=c)
            np.multiply(i, g, out=tc)
            c += tc
            np.tanh(c, out=tc)
            np.multiply(o, tc, out=h)

        return step

    def adjoint(n0, acts, tanh_c, h_prev, c_prev):
        # a step's gate derivatives and the products they scale
        derivs, prods = np.empty((4, n0, E)), np.empty((4, n0, E))
        # and the gradient of the cells the step run after this one started from
        dc_buf, tmp, dc_next = np.empty((n0, E)), np.empty((n0, E)), np.empty((n0, E))

        def back(lo, hi, dh, dp, dh_next, k):
            n = hi - lo
            a, tc, cp = acts[:, lo:hi], tanh_c[lo:hi], c_prev[lo:hi]
            i, f, o, g = a[0], a[1], a[2], a[3]
            dc, t, q, d = dc_buf[:n], tmp[:n], prods[:, :n], derivs[:, :n]
            # d(activation)/d(pre-activation): a (1 - a) on i|f|o, 1 - a^2 on g
            np.subtract(1.0, a[:3], out=d[:3])
            d[:3] *= a[:3]
            np.multiply(g, g, out=d[3])
            np.subtract(1.0, d[3], out=d[3])
            np.multiply(dh, o, out=t)
            np.multiply(tc, tc, out=dc)
            np.subtract(1.0, dc, out=dc)
            dc *= t
            dc[:k] += dc_next[:k]
            np.multiply(dc, g, out=q[0])
            np.multiply(dc, cp, out=q[1])
            np.multiply(dh, tc, out=q[2])
            np.multiply(dc, i, out=q[3])
            np.multiply(q, d, out=dp.reshape(n, 4, E).transpose(1, 0, 2))
            np.matmul(dp, u.T, out=dh_next)
            np.multiply(dc, f, out=dc_next[:n])

        return back

    return _recurrence("lstm_seq", (XW, U, b), counts, reverse, forward, adjoint,
                       lambda h_prev, _, dpre: h_prev.T @ dpre, cell=True)


def gru_seq(XW: Node, U: Node, b: Node | None, counts) -> Node:
    """One GRU over a packed batch of sequences, as one node.

    ``XW`` (N, 3K) holds the input projections of every step in the
    layout of ``packed_sum``; ``U`` is (K, 3K) and ``b`` (1, 3K) or None
    for no bias, gate layout r|z|h. Each step computes r and z from
    ``XW + h_prev U + b``, the candidate from ``XW_h + (h_prev * r) U_h
    + b_h``, and ``h = (1 - z) * h_prev + z * candidate``, from the zero
    state; a sequence's state is dropped once it has ended. Returns the
    (N, K) hidden states, row-aligned with ``XW``. Backward is
    hand-derived BPTT over the stored gates and ``h_prev * r`` (see
    ``_recurrence``); ``dU`` is one product on r|z and one on h. The
    biases are added from copies tiled to one step's rows.
    """
    xw, u = XW.value, U.value
    bv = None if b is None else b.value
    K = u.shape[0]
    if (u.shape != (K, 3 * K) or xw.shape[1] != 3 * K
            or (bv is not None and bv.shape != (1, 3 * K))):
        raise ShapeError(f"gru_seq: XW {xw.shape}, U {u.shape}, "
                         f"b {None if bv is None else bv.shape} do not fit an r|z|h layout")
    u_rz, u_h = u[:, : 2 * K], u[:, 2 * K :]

    def forward(n0):
        x_rz, x_h = xw[:, : 2 * K], xw[:, 2 * K :]
        pre_rz, pre_h, tmp = np.empty((n0, 2 * K)), np.empty((n0, K)), np.empty((n0, K))
        if bv is not None:
            b_rz, b_h = np.repeat(bv[:, : 2 * K], n0, axis=0), np.repeat(bv[:, 2 * K :], n0, axis=0)

        def step(lo, hi, hp, h, a, q, _cp, _c):
            n = hi - lo
            p_rz, p_h, t = pre_rz[:n], pre_h[:n], tmp[:n]
            np.matmul(hp, u_rz, out=p_rz)
            p_rz += x_rz[lo:hi]
            if bv is not None:
                p_rz += b_rz[:n]
            # the halving pass also moves r and z into their slabs
            s = a[:2]
            np.multiply(p_rz.reshape(n, 2, K).transpose(1, 0, 2), 0.5, out=s)
            np.tanh(s, out=s)
            s += 1.0
            s *= 0.5
            reset, z, c = a[0], a[1], a[2]
            np.multiply(hp, reset, out=q)
            np.matmul(q, u_h, out=p_h)
            p_h += x_h[lo:hi]
            if bv is not None:
                p_h += b_h[:n]
            np.tanh(p_h, out=c)
            np.multiply(z, hp, out=h)
            np.subtract(hp, h, out=h)
            np.multiply(z, c, out=t)
            h += t

        return step

    def adjoint(n0, acts, hr, h_prev, c_prev):
        grads = np.empty((3, n0, K))  # a step's rows of dpre, gate-major
        dhr_buf, tmp = np.empty((n0, K)), np.empty((n0, K))

        def back(lo, hi, dh, dp, nx, k):
            n = hi - lo
            r, z, c, hp = acts[0, lo:hi], acts[1, lo:hi], acts[2, lo:hi], h_prev[lo:hi]
            dhr, t, d = dhr_buf[:n], tmp[:n], grads[:, :n]
            d_r, d_z, d_c = d[0], d[1], d[2]
            np.multiply(dh, z, out=d_c)
            np.multiply(c, c, out=t)
            np.subtract(1.0, t, out=t)
            d_c *= t
            np.matmul(d_c, u_h.T, out=dhr)
            np.multiply(dhr, hp, out=d_r)
            d_r *= r
            np.subtract(1.0, r, out=t)
            d_r *= t
            np.subtract(c, hp, out=d_z)
            d_z *= dh
            d_z *= z
            np.subtract(1.0, z, out=t)
            d_z *= t
            np.copyto(dp.reshape(n, 3, K), d.transpose(1, 0, 2))
            np.multiply(dh, z, out=t)
            np.subtract(dh, t, out=nx)
            np.multiply(dhr, r, out=t)
            nx += t
            np.matmul(dp[:, : 2 * K], u_rz.T, out=t)
            nx += t

        return back

    def grad_U(h_prev, hr, dpre):
        dU = np.empty((K, 3 * K))
        np.matmul(h_prev.T, dpre[:, : 2 * K], out=dU[:, : 2 * K])
        np.matmul(hr.T, dpre[:, 2 * K :], out=dU[:, 2 * K :])
        return dU

    return _recurrence("gru_seq", (XW, U) if b is None else (XW, U, b), counts, False,
                       forward, adjoint, grad_U)
