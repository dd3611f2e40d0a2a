"""Decoders: role-masked attention USE head, per-utterance SA head, and
the task discriminator that tries to tell the two feature streams apart.
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


def use_decode_steps(P: dict, H_m: list, keep: np.ndarray,
                     last_onehot: np.ndarray):
    """Attention-pooled satisfaction distribution for a batch.

    H_m: per-step (B, K) nodes. keep: (B, L) positions eligible for
    attention (user-only when the role mask is on, every real utterance
    otherwise; padding never). last_onehot: (B, L) with a single 1 at each
    dialogue's final real utterance. Returns (p_m (B,3), alpha (B,L)).
    """
    scores = ad.hstack([
        ad.matmul(ad.tanh(ad.add_bias(ad.matmul(h, P["use.W_u"]), P["use.b_u"])),
                  P["use.U_u"])
        for h in H_m
    ])
    alpha = ad.masked_softmax(scores, keep)
    pooled = None
    last = None
    for t, h in enumerate(H_m):
        p_term = ad.scale_columns(h, ad.slice_cols(alpha, t, t + 1))
        l_term = ad.scale_columns(h, ad.constant(last_onehot[:, t : t + 1]))
        pooled = p_term if pooled is None else ad.add(pooled, p_term)
        last = l_term if last is None else ad.add(last, l_term)
    o = ad.hstack([pooled, last])
    p_m = ad.softmax_rows(ad.add_bias(ad.matmul(o, P["use.W_o"]), P["use.b_o"]))
    return p_m, alpha


def sa_decode(P: dict, H_a: list) -> list:
    """Per-step sentiment distributions, one (B, 3) node per state."""
    return [ad.softmax_rows(ad.add_bias(ad.matmul(h, P["sa.W"]), P["sa.b"]))
            for h in H_a]


def discriminate_steps(P: dict, X: ad.Node, B: int, L: int, K: int) -> list:
    """GRU over one task-feature stream (position-major X), per-step
    softmax over the two task classes. Returns L nodes of shape (B, 2)."""
    H = ad.gru_seq(ad.matmul(X, interaction.gates(P, "td", "W")),
                   interaction.gates(P, "td", "U"),
                   interaction.gates(P, "td", "b"), [B] * L)
    probs = ad.softmax_rows(ad.add_bias(ad.matmul(H, P["td.W_o"]), P["td.b_o"]))
    return [ad.slice_rows(probs, t * B, (t + 1) * B) for t in range(L)]
