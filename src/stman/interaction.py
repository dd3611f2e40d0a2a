"""Dialogue-level interaction layer: task-specific dense projections, a
shared GRU applied separately to each task's stream, and task-private
GRU variants that additionally condition on the shared state.

Layout convention: utterance matrices are position-major, row t*B + b,
matching the encoder output, so step t of every dialogue in the batch is
one contiguous row block. Recurrences run over trailing padding (pad
steps compute garbage states) but masks exclude those rows from every
downstream loss, and causality keeps real steps clean.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = [
    "param_specs",
    "project",
    "gru_step",
    "gru_task_step",
    "run_interaction",
]

_GATES = ("r", "z", "h")


def param_specs(E: int, K: int, Z: int, use_st: bool, use_aux: bool,
                use_td: bool) -> list[tuple[str, tuple[int, int]]]:
    """Names and shapes in allocation order. The task-private GRUs carry
    nine weight groups each and no biases; their input width grows by Z
    when speaker-turn embeddings are concatenated on."""
    specs = [("proj.m.W", (2 * E, K)), ("proj.m.b", (1, K))]
    if use_aux or use_td:
        specs += [("proj.a.W", (2 * E, K)), ("proj.a.b", (1, K))]
    if use_st:
        specs.append(("turn.emb", (2, Z)))
    for g in _GATES:
        specs += [(f"gru_s.W_{g}", (K, K)), (f"gru_s.U_{g}", (K, K)),
                  (f"gru_s.b_{g}", (1, K))]
    width = K + Z if use_st else K
    tasks = ["m", "a"] if use_aux else ["m"]
    for task in tasks:
        for g in _GATES:
            specs += [(f"gru_{task}.W_{g}", (width, K)),
                      (f"gru_{task}.U_{g}", (K, K)),
                      (f"gru_{task}.Us_{g}", (K, K))]
    return specs


def project(P: dict, V: ad.Node, task: str) -> ad.Node:
    """X^task = tanh(V W + b), width K."""
    return ad.tanh(ad.add_bias(ad.matmul(V, P[f"proj.{task}.W"]),
                               P[f"proj.{task}.b"]))


def gru_step(P: dict, prefix: str, x: ad.Node, h_prev: ad.Node) -> ad.Node:
    """Standard GRU update h = (1-z) * h_prev + z * candidate, with the
    parameters ``{prefix}.W_g``, ``.U_g`` and ``.b_g`` for g in r|z|h.
    The shared GRU ("gru_s") and the turn discriminator ("td") use it."""
    def gate(g, h_in):
        return ad.add_bias(ad.add(ad.matmul(x, P[f"{prefix}.W_{g}"]),
                                  ad.matmul(h_in, P[f"{prefix}.U_{g}"])),
                           P[f"{prefix}.b_{g}"])

    r = ad.sigmoid(gate("r", h_prev))
    z = ad.sigmoid(gate("z", h_prev))
    hh = ad.tanh(gate("h", ad.hadamard(h_prev, r)))
    return ad.add(ad.sub(h_prev, ad.hadamard(z, h_prev)), ad.hadamard(z, hh))


def gru_task_step(P: dict, task: str, x_aug: ad.Node, h_prev: ad.Node,
                  h_s: ad.Node) -> ad.Node:
    """Task-private GRU variant: every gate also reads the same-step
    shared state through its own U^s matrix; no bias terms."""
    pre = f"gru_{task}"

    def gate(g, h_in):
        return ad.add(ad.add(ad.matmul(x_aug, P[f"{pre}.W_{g}"]),
                             ad.matmul(h_in, P[f"{pre}.U_{g}"])),
                      ad.matmul(h_s, P[f"{pre}.Us_{g}"]))

    r = ad.sigmoid(gate("r", h_prev))
    z = ad.sigmoid(gate("z", h_prev))
    hh = ad.tanh(gate("h", ad.hadamard(h_prev, r)))
    return ad.add(ad.sub(h_prev, ad.hadamard(z, h_prev)), ad.hadamard(z, hh))


def _task_stream(P: dict, task: str, X: ad.Node, turn_cols, B: int, L: int,
                 K: int) -> list[ad.Node]:
    """One task's pass: shared-state sequence from this task's X using the
    single shared parameter set, then the private variant on top."""
    zeros = ad.constant(np.zeros((B, K)))
    h_s, h_k = zeros, zeros
    steps = []
    for t in range(L):
        x_t = ad.slice_rows(X, t * B, (t + 1) * B)
        h_s = gru_step(P, "gru_s", x_t, h_s)
        x_aug = x_t if turn_cols is None else ad.hstack([x_t, turn_cols[t]])
        h_k = gru_task_step(P, task, x_aug, h_k, h_s)
        steps.append(h_k)
    return steps


def run_interaction(P: dict, V: ad.Node, turn: np.ndarray, B: int, L: int,
                    K: int, use_st: bool, use_aux: bool):
    """V is (L*B, 2E) position-major; turn is the (B, L) flag grid.

    Returns (H_m, H_a): the per-step private hidden states of each task
    stream (lists of (B, K) nodes); H_a is None without the SA stream.
    """
    X_m = project(P, V, "m")
    X_a = project(P, V, "a") if use_aux else None

    turn_cols = None
    if use_st:
        turn_cols = [ad.gather_rows(P["turn.emb"], turn[:, t]) for t in range(L)]

    H_m = _task_stream(P, "m", X_m, turn_cols, B, L, K)
    H_a = _task_stream(P, "a", X_a, turn_cols, B, L, K) if use_aux else None
    return H_m, H_a
