"""Decoders: role-masked attention USE head, per-utterance SA head, and
the task discriminator that tries to tell the two feature streams apart.

Every head reads a stream whole, as the (N, K) matrix of real-utterance
rows the interaction layer emits, in the packed layout of its step
counts (see ``ad.pack``: dialogues longest first, step-major), and the
per-utterance heads return one (N, C) matrix of class logits in that
layout; the losses normalize them. The satisfaction head's attention
is one ``ad.packed_softmax`` over each dialogue's rows, so it pools
straight from the packed states. The discriminator applies one
parameter set to both task streams, so it runs them as one recurrence
over the two streams' rows interleaved, and returns its logits in that
interleave.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import interaction

__all__ = [
    "N_SAT",
    "N_SENT",
    "N_TASKS",
    "param_specs",
    "use_decode_steps",
    "sa_decode",
    "discriminate_steps",
]

N_SAT = 3
N_SENT = 3
N_TASKS = 2  # feature-origin classes: 0 = satisfaction stream, 1 = sentiment stream

_GATES = ("r", "z", "h")


def param_specs(K: int, H: int, use_aux: bool,
                use_td: bool) -> list[tuple[str, tuple[int, int]]]:
    specs = [
        ("use.W_u", (K, H)),
        ("use.b_u", (1, H)),
        ("use.U_u", (H, 1)),
        ("use.W_o", (2 * K, N_SAT)),
        ("use.b_o", (1, N_SAT)),
    ]
    if use_aux:
        specs += [("sa.W", (K, N_SENT)), ("sa.b", (1, N_SENT))]
    if use_td:
        for g in _GATES:
            specs += [(f"td.W_{g}", (K, K)), (f"td.U_{g}", (K, K)),
                      (f"td.b_{g}", (1, K))]
        specs += [("td.W_o", (K, N_TASKS)), ("td.b_o", (1, N_TASKS))]
    return specs


def use_decode_steps(P: dict, H_m: ad.Node, counts, keep=None):
    """Attention-pooled satisfaction logits for a batch.

    H_m: the (N, K) states in the packed layout of the step counts
    ``counts``. keep: the (N,) rows eligible for attention (the user
    utterances when the role mask is on), or None for every row.
    Returns (z_m (B, 3), dialogues in packed order; the (N, 1) attention
    weights, row-aligned with H_m).
    """
    n = np.asarray(counts)
    B = n[0]
    scores = ad.matmul(ad.tanh(ad.add_bias(ad.matmul(H_m, P["use.W_u"]),
                                           P["use.b_u"])), P["use.U_u"])
    alpha = ad.packed_softmax(scores, n, keep)
    pooled = ad.packed_sum(ad.scale_columns(H_m, alpha), n)
    # dialogue i's final row: its last step's offset plus its rank
    last = (np.cumsum(n) - n)[(n[:, None] > np.arange(B)).sum(axis=0) - 1]
    final = ad.gather_rows(H_m, last + np.arange(B))
    o = ad.hstack([pooled, final])
    return ad.add_bias(ad.matmul(o, P["use.W_o"]), P["use.b_o"]), alpha


def sa_decode(P: dict, H_a: ad.Node) -> ad.Node:
    """Sentiment logits of every state, one (N, 3) node."""
    return ad.add_bias(ad.matmul(H_a, P["sa.W"]), P["sa.b"])


def discriminate_steps(P: dict, X_m: ad.Node, X_a: ad.Node, counts) -> ad.Node:
    """The discriminator GRU over both task-feature streams ((N, K) each,
    in the packed layout of the step counts ``counts``) as one interleaved
    recurrence, then the logits of the two task classes at every step of
    each. Returns one (2N, 2) node in the interleave of its input: row
    2r + i is row r of stream i."""
    # step t is the 2 * counts[t] rows of its dialogues, both streams
    N, K = X_m.value.shape
    X = ad.reshape(ad.hstack([X_m, X_a]), 2 * N, K)
    H = ad.gru_seq(ad.matmul(X, interaction.gates(P, "td", "W")),
                   interaction.gates(P, "td", "U"),
                   interaction.gates(P, "td", "b"), 2 * np.asarray(counts))
    return ad.add_bias(ad.matmul(H, P["td.W_o"]), P["td.b_o"])
