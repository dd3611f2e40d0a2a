"""Shared utterance encoder: BiLSTM over tokens with additive tanh
attention pooling, producing one vector of width 2E per utterance.

The batched forward flattens a (B dialogues x L utterances) grid into
R = L*B rows, position-major (row = t*B + b), and returns the vectors of
the grid rows its caller lists, in that order: the training forwards
ask for the real utterances in the packed layout ``ad.pack`` gives the
batch's utterance mask, the one the recurrences above run on. Every
asked row needs a token; a padded utterance is never asked for. Dropout
is drawn over the whole grid in grid order, so a draw does not depend on
the rows asked for.

The asked rows' tokens are packed by ``ad.pack`` too, from the rows in
grid order: utterances longest first (a stable sort, so ties keep grid
order), step j holding the utterances still running at j. Each LSTM
direction is one ``ad.lstm_seq`` node over that packing; the backward
direction enters each utterance at its last token from the zero state.
The input projections are made once per distinct token of the batch and
then gathered to one row per token, so the embedding gradient and the
input-weight gradients are sums over distinct tokens rather than over
every token. This pays on batches that repeat tokens (a synthetic batch
holds about 40 distinct ids among 1400-1800 tokens). A batch without
repeats is the worst case: with 1621 distinct ids from a 20000-row table
(D=100, E=16; 2 vCPU, one BLAS thread) the forward+backward measured
11.5 ms against 10.6 ms for projecting every token.
Attention pools each utterance over its tokens in the packed layout
(``ad.packed_softmax``, then ``ad.packed_sum``), and one gather puts the
pooled rows in the asked order.
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
                rows, dropout_rate: float = 0.0, rng=None) -> ad.Node:
    """Encode the utterances of a (B, L, T) id grid.

    ``rows`` lists the grid rows to return, in order, row t*B + b holding
    dialogue b's utterance t; each must have a first token, and token
    padding must be trailing (``ad.pack``'s contract). Returns a
    (len(rows), 2E) node. A non-zero ``dropout_rate`` applies inverted
    dropout drawn from ``rng`` over the whole (L*B, 2E) grid in grid
    order, so the draw does not depend on ``rows``.
    """
    B, L, T = ids.shape
    R = L * B
    # the asked rows in grid order, then longest first: the stable sort
    # keeps grid order among ties, so the rows that share a step (and a
    # matrix product) do not depend on the order they were asked in
    asked, inv = np.unique(rows, return_inverse=True)
    grid = ids.transpose(1, 0, 2).reshape(R, T)[asked]
    tok = ad.pack(tok_valid.transpose(1, 0, 2).reshape(R, T)[asked])
    # input projections of the distinct tokens only, then one row per token
    distinct, at = np.unique(tok.take(grid), return_inverse=True)
    X = ad.gather_rows(P["enc.emb"], distinct)
    states = ad.hstack([_direction(P, X, at, tok.counts, d) for d in "fb"])
    scores = ad.tanh(ad.add_bias(ad.matmul(states, P["enc.att.w"]), P["enc.att.b"]))
    beta = ad.packed_softmax(scores, tok.counts)
    v = ad.packed_sum(ad.scale_columns(states, beta), tok.counts)
    # from longest first to the asked order
    rank = np.empty(asked.size, dtype=np.intp)
    rank[tok.order] = np.arange(asked.size)
    v = ad.gather_rows(v, rank[inv])

    if dropout_rate:
        if rng is None or not 0.0 < dropout_rate < 1.0:
            raise ad.ContractError(f"dropout requires an rng and a rate in [0, 1), "
                                   f"got {dropout_rate}")
        # inverted dropout: kept entries scale by 1/(1-rate), so evaluation
        # needs no rescaling
        drop = (rng.random((R, 2 * E)) >= dropout_rate) / (1.0 - dropout_rate)
        v = ad.hadamard(v, ad.constant(drop[rows]))
    return v


def _direction(P: dict, X: ad.Node, inv: np.ndarray, counts, d: str) -> ad.Node:
    """LSTM direction ``d`` ("f" or "b") over the packed tokens, from the
    distinct tokens' embeddings ``X`` and each token's index ``inv`` in
    them. One direction at a time: this direction's (N, 4E) input
    projections are freed before the next one's are made, with a tape
    too, since ``lstm_seq``'s backward does not read them."""
    XW = ad.gather_rows(ad.matmul(X, P[f"enc.lstm_{d}.W"]), inv)
    return ad.lstm_seq(XW, P[f"enc.lstm_{d}.U"], P[f"enc.lstm_{d}.b"], counts,
                       reverse=d == "b")
