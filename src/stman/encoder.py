"""Shared utterance encoder: BiLSTM over tokens with additive tanh
attention pooling, producing one vector of width 2E per utterance.

The batched forward flattens a (B dialogues x L utterances) grid into
R = L*B rows, position-major (row = t*B + b), so downstream recurrences
over utterance positions can slice contiguous row blocks. Trailing token
padding is handled by masks: the forward LSTM direction may run past an
utterance's end (those states never reach the pooled output because
attention excludes them), while the backward direction uses
masked-identity state updates so real positions never see pad garbage.
An all-pad row pools to the zero vector and is flagged for downstream
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


def _masked_update(prev, new, m_col):
    # prev + m * (new - prev): rows with m=0 keep their state untouched
    return ad.add(prev, ad.scale_columns(ad.sub(new, prev), m_col))


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
    XWf = ad.matmul(X, P["enc.lstm_f.W"])
    XWb = ad.matmul(X, P["enc.lstm_b.W"])

    zeros = ad.constant(np.zeros((R, E)))
    h, c = zeros, zeros
    fwd = []
    for j in range(T):
        xw = ad.slice_rows(XWf, j * R, (j + 1) * R)
        h, c = _lstm_cell(xw, h, c, P["enc.lstm_f.U"], P["enc.lstm_f.b"], E)
        fwd.append(h)

    h, c = zeros, zeros
    bwd = [None] * T
    for j in range(T - 1, -1, -1):
        xw = ad.slice_rows(XWb, j * R, (j + 1) * R)
        h_new, c_new = _lstm_cell(xw, h, c, P["enc.lstm_b.U"], P["enc.lstm_b.b"], E)
        m_col = ad.constant(mask[:, j : j + 1].astype(np.float64))
        h = _masked_update(h, h_new, m_col)
        c = _masked_update(c, c_new, m_col)
        bwd[j] = h

    states = [ad.hconcat(fwd[j], bwd[j]) for j in range(T)]
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

