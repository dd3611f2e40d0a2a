"""Decoders: role-masked attention USE head, per-utterance SA head, and
the task discriminator that tries to tell the two feature streams apart.

Every head reads a stream whole, as the (L*B, K) position-major matrix
the interaction layer emits (row t*B + b is step t of dialogue b), and
the per-utterance heads return one (L*B, C) distribution matrix. The
discriminator applies one parameter set to both task streams, so it runs
them as one recurrence over the two streams' rows interleaved, and
returns both streams' distributions side by side.
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


def use_decode_steps(P: dict, H_m: ad.Node, keep: np.ndarray, last: np.ndarray):
    """Attention-pooled satisfaction distribution for a batch.

    H_m: the (L*B, K) position-major states. keep: (B, L) positions
    eligible for attention (user-only when the role mask is on, every real
    utterance otherwise; padding never). last: (B,) index of each
    dialogue's final real utterance. Returns (p_m (B,3), alpha (B,L)).
    """
    B, L = keep.shape
    scores = ad.matmul(ad.tanh(ad.add_bias(ad.matmul(H_m, P["use.W_u"]),
                                           P["use.b_u"])), P["use.U_u"])
    # cell (b, t) of the (B, L) grid reads row t*B + b of the scores, and
    # row t*B + b of the weight column reads cell (b, t) back
    cell = np.arange(L) * B + np.arange(B)[:, None]
    back = np.arange(B) * L + np.arange(L)[:, None]
    alpha = ad.masked_softmax(
        ad.reshape(ad.gather_rows(scores, cell.reshape(-1)), B, L), keep)
    w = ad.gather_rows(ad.reshape(alpha, B * L, 1), back.reshape(-1))
    pooled = ad.packed_sum(ad.scale_columns(H_m, w), [B] * L)
    final = ad.gather_rows(H_m, last * B + np.arange(B))
    o = ad.hstack([pooled, final])
    p_m = ad.softmax_rows(ad.add_bias(ad.matmul(o, P["use.W_o"]), P["use.b_o"]))
    return p_m, alpha


def sa_decode(P: dict, H_a: ad.Node) -> ad.Node:
    """Sentiment distributions of every state, one (L*B, 3) node."""
    return ad.softmax_rows(ad.add_bias(ad.matmul(H_a, P["sa.W"]), P["sa.b"]))


def discriminate_steps(P: dict, X_m: ad.Node, X_a: ad.Node, B: int, L: int,
                       K: int) -> ad.Node:
    """The discriminator GRU over both task-feature streams (position-major
    (L*B, K) each) as one interleaved recurrence, then a softmax over the
    two task classes at every step of each. Returns one (L*B, 4) node: row
    t*B + b holds stream m's two class probabilities, then stream a's."""
    # row 2r + i is row r of stream i, so step t is the 2B rows from 2tB
    X = ad.reshape(ad.hstack([X_m, X_a]), 2 * L * B, K)
    H = ad.gru_seq(ad.matmul(X, interaction.gates(P, "td", "W")),
                   interaction.gates(P, "td", "U"),
                   interaction.gates(P, "td", "b"), [2 * B] * L)
    probs = ad.softmax_rows(ad.add_bias(ad.matmul(H, P["td.W_o"]), P["td.b_o"]))
    # rows 2r and 2r + 1 side by side are row r of stream m and of stream a
    return ad.reshape(probs, L * B, 2 * N_TASKS)
