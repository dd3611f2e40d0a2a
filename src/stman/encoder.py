"""Shared utterance encoder: BiLSTM over tokens with additive tanh
attention pooling, producing one vector of width 2E per utterance.

The batched forward flattens a (B dialogues x L utterances) grid into
R = L*B rows, position-major (row = t*B + b), so downstream recurrences
over utterance positions can slice contiguous row blocks. Token padding
must be trailing, and pad tokens are never encoded. The rows with real
tokens are sorted by length, longest first (a stable sort, so ties keep
grid order), and their tokens packed step-major: step j holds the rows
still running at j, a prefix of the sorted rows. Each LSTM direction is
one ``ad.lstm_seq`` node over that packing; the backward direction
enters each utterance at its last real token from the zero state. The
input projections are made once per distinct token of the batch and
then gathered to one row per token, so the embedding gradient and the
input-weight gradients are sums over distinct tokens rather than over
every token. This pays on batches that repeat tokens (a synthetic batch
holds about 40 distinct ids among 1400-1800 tokens); on a batch without
repeats it costs a sort and two row gathers more than projecting every
token.
Attention pools each sorted row over its real tokens, and the pooled
rows go back to their grid rows. An all-pad row comes out exactly zero
and is flagged for downstream exclusion.
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
    lengths = mask.sum(axis=1)
    if not np.array_equal(mask, np.arange(T) < lengths[:, None]):
        raise ad.ContractError("encode_grid: token padding must be trailing")

    # real rows, longest first; the stable sort keeps grid order among ties
    real = np.flatnonzero(lengths)
    order = real[np.argsort(-lengths[real], kind="stable")]
    if order.size == 0:
        v = ad.constant(np.zeros((R, 2 * E)))
    else:
        v = _encode_sorted(P, grid[order], mask[order], E)
        # back to grid rows; pad rows read row 0 and are zeroed by the mask
        back = np.zeros(R, dtype=np.intp)
        back[order] = np.arange(order.size)
        keep = (lengths > 0).astype(np.float64).reshape(R, 1)
        v = ad.scale_columns(ad.gather_rows(v, back), ad.constant(keep))

    if dropout_rate > 0.0:
        if rng is None:
            raise ad.ContractError("dropout requires an rng")
        v = ad.dropout(v, dropout_rate, rng)
    return v


def _encode_sorted(P: dict, grid: np.ndarray, mask: np.ndarray, E: int) -> ad.Node:
    """Encode (R', T) id rows sorted longest first, with no all-pad row,
    to (R', 2E). Tokens are packed step-major: step j holds the rows
    still running at j, which are a prefix of the rows."""
    Rs, T = grid.shape
    steps, rows = np.nonzero(mask.T)
    counts = np.bincount(steps)
    # input projections of the distinct tokens only, then one row per token
    distinct, inv = np.unique(grid[rows, steps], return_inverse=True)
    order = np.argsort(inv, kind="stable")
    X = ad.gather_rows(P["enc.emb"], distinct)
    XW = {d: ad.gather_rows(ad.matmul(X, P[f"enc.lstm_{d}.W"]), inv, order)
          for d in "fb"}
    fwd = ad.lstm_seq(XW["f"], P["enc.lstm_f.U"], P["enc.lstm_f.b"], counts)
    bwd = ad.lstm_seq(XW["b"], P["enc.lstm_b.U"], P["enc.lstm_b.b"], counts,
                      reverse=True)
    states = ad.hstack([fwd, bwd])
    scores = ad.tanh(ad.add_bias(ad.matmul(states, P["enc.att.w"]), P["enc.att.b"]))

    # attention weights over the (R', T) grid; pad cells read packed row
    # 0 and are excluded by the mask
    cell = np.zeros((Rs, T), dtype=np.intp)
    cell[rows, steps] = np.arange(rows.size)
    betas = ad.masked_softmax(
        ad.reshape(ad.gather_rows(scores, cell.reshape(-1)), Rs, T), mask)
    beta = ad.gather_rows(ad.reshape(betas, Rs * T, 1), rows * T + steps)
    return ad.packed_sum(ad.scale_columns(states, beta), counts)
