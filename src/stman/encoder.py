"""Shared utterance encoder: BiLSTM over tokens with additive tanh
attention pooling, producing one vector of width 2E per utterance.

The batched forward flattens a (B dialogues x L utterances) grid into
R = L*B rows, position-major (row = t*B + b), so downstream recurrences
over utterance positions can slice contiguous row blocks. Token padding
is always trailing, and both LSTM directions zero h and c on pad steps:
the forward direction reaches them only after every real step, and the
backward direction starts from them, so it enters each utterance's last
real token from the zero state. Attention excludes pad steps, so an
all-pad row pools to the zero vector and is flagged for downstream
exclusion.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = ["param_specs", "encode_grid"]


def param_specs(vocab_size: int, D: int, E: int) -> list[tuple[str, tuple[int, int]]]:
    """Names and shapes, in allocation order. Gate layout i|f|o|g."""
    return [
        ("enc.emb", (vocab_size, D)),
        ("enc.lstm_f.W", (D, 4 * E)),
        ("enc.lstm_f.U", (E, 4 * E)),
        ("enc.lstm_f.b", (1, 4 * E)),
        ("enc.lstm_b.W", (D, 4 * E)),
        ("enc.lstm_b.U", (E, 4 * E)),
        ("enc.lstm_b.b", (1, 4 * E)),
        ("enc.att.w", (2 * E, 1)),
        ("enc.att.b", (1, 1)),
    ]


def _lstm_cell(xw, h, c, U, b, E):
    pre = ad.add_bias(ad.add(xw, ad.matmul(h, U)), b)
    i = ad.sigmoid(ad.slice_cols(pre, 0, E))
    f = ad.sigmoid(ad.slice_cols(pre, E, 2 * E))
    o = ad.sigmoid(ad.slice_cols(pre, 2 * E, 3 * E))
    g = ad.tanh(ad.slice_cols(pre, 3 * E, 4 * E))
    c_new = ad.add(ad.hadamard(f, c), ad.hadamard(i, g))
    h_new = ad.hadamard(o, ad.tanh(c_new))
    return h_new, c_new


def _lstm_run(XW, U, b, mask, E, steps):
    """One LSTM direction over the token steps in the given order; h and
    c are zeroed on pad steps. Returns the hidden state of each step."""
    R, T = mask.shape
    h = c = ad.constant(np.zeros((R, E)))
    out = [None] * T
    for j in steps:
        xw = ad.slice_rows(XW, j * R, (j + 1) * R)
        h, c = _lstm_cell(xw, h, c, U, b, E)
        m_col = ad.constant(mask[:, j : j + 1].astype(np.float64))
        h, c = ad.scale_columns(h, m_col), ad.scale_columns(c, m_col)
        out[j] = h
    return out


def encode_grid(P: dict, ids: np.ndarray, tok_valid: np.ndarray, E: int,
                dropout_rate: float = 0.0, rng=None) -> ad.Node:
    """Encode every utterance of a (B, L, T) id grid.

    Returns an (L*B, 2E) node, row t*B + b holding dialogue b's utterance
    t. All-pad rows come out exactly zero.
    """
    B, L, T = ids.shape
    R = L * B
    grid = ids.transpose(1, 0, 2).reshape(R, T)
    mask = tok_valid.transpose(1, 0, 2).reshape(R, T)

    # one gather + one matmul per direction covers every token position;
    # rows of the gathered block are ordered (token step, utterance row)
    flat_ids = grid.T.reshape(-1)
    X = ad.gather_rows(P["enc.emb"], flat_ids)
    fwd = _lstm_run(ad.matmul(X, P["enc.lstm_f.W"]), P["enc.lstm_f.U"],
                    P["enc.lstm_f.b"], mask, E, range(T))
    bwd = _lstm_run(ad.matmul(X, P["enc.lstm_b.W"]), P["enc.lstm_b.U"],
                    P["enc.lstm_b.b"], mask, E, range(T - 1, -1, -1))

    states = [ad.hstack([fwd[j], bwd[j]]) for j in range(T)]
    scores = ad.hstack([
        ad.tanh(ad.add_bias(ad.matmul(states[j], P["enc.att.w"]), P["enc.att.b"]))
        for j in range(T)
    ])
    betas = ad.masked_softmax(scores, mask)

    v = None
    for j in range(T):
        term = ad.scale_columns(states[j], ad.slice_cols(betas, j, j + 1))
        v = term if v is None else ad.add(v, term)

    if dropout_rate > 0.0:
        if rng is None:
            raise ad.ContractError("dropout requires an rng")
        v = ad.dropout(v, dropout_rate, rng)
    return v

