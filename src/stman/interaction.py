"""Dialogue-level interaction layer: task-specific dense projections, a
shared GRU applied separately to each task's stream, and task-private
GRU variants that additionally condition on the shared state.

Layout convention: utterance matrices hold the real utterances of a
batch only, in the packed layout ``ad.pack`` gives the batch's (B, L)
utterance mask: the dialogues sorted by descending utterance count (a
stable sort, so ties keep batch order), and step t holding the
dialogues still running at t, which are a prefix of step t-1's. A
padded utterance has no row, so no recurrence, head or loss computes
anything for it.

Each GRU of a stream is one ``ad.gru_seq`` node over all steps, with its
input projections for every step made in one matmul beforehand: ``X W``
for the shared GRU, ``X_aug W + H_s U^s`` for a private one, which has
no bias. The r|z|h gate blocks are concatenated at run time from the
separately named parameters, so the checkpoint format is the one of a
per-gate model. The heads read each stream's fused (N, K)
output whole.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = [
    "param_specs",
    "project",
    "gates",
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


def gates(P: dict, prefix: str, part: str) -> ad.Node:
    """The r|z|h blocks ``{prefix}.{part}_g`` side by side, as
    ``ad.gru_seq`` takes them; the parameters stay separate, so the
    checkpoint keeps one entry per gate."""
    return ad.hstack([P[f"{prefix}.{part}_{g}"] for g in _GATES])


def _task_stream(P: dict, task: str, X: ad.Node, C, shared, counts) -> ad.Node:
    """One task's pass: shared-state sequence from this task's X using the
    single shared parameter set (``shared`` = its W, U, b gate blocks),
    then the private variant on top, whose input projection also reads
    the same-step shared state through U^s. Every step at once; returns
    the (N, K) private states."""
    W_s, U_s, b_s = shared
    H_s = ad.gru_seq(ad.matmul(X, W_s), U_s, b_s, counts)
    pre = f"gru_{task}"
    X_aug = X if C is None else ad.hstack([X, C])
    XW = ad.add(ad.matmul(X_aug, gates(P, pre, "W")),
                ad.matmul(H_s, gates(P, pre, "Us")))
    return ad.gru_seq(XW, gates(P, pre, "U"), None, counts)


def run_interaction(P: dict, V: ad.Node, turn: np.ndarray, counts, use_st: bool,
                    use_aux: bool):
    """V is (N, 2E) in the packed layout of the step counts ``counts``;
    turn holds the (N,) turn flags of the same rows.

    Returns (H_m, H_a): the private hidden states of each task stream,
    (N, K) nodes in that layout; H_a is None without the SA stream.
    """
    X_m = project(P, V, "m")
    X_a = project(P, V, "a") if use_aux else None

    C = ad.gather_rows(P["turn.emb"], turn) if use_st else None
    shared = tuple(gates(P, "gru_s", part) for part in ("W", "U", "b"))

    H_m = _task_stream(P, "m", X_m, C, shared, counts)
    H_a = _task_stream(P, "a", X_a, C, shared, counts) if use_aux else None
    return H_m, H_a
