"""Tape helpers that only the tests need, built from the package's ops."""

import numpy as np

import stman.autodiff as ad


def sum_all(x):
    """Every entry of ``x`` summed into a (1, 1) node, as two matmuls with
    constant ones, so the gradient reaching ``x`` is exactly the upstream
    value on every entry."""
    rows, cols = x.value.shape
    return ad.matmul(ad.matmul(ad.constant(np.ones((1, rows))), x),
                     ad.constant(np.ones((cols, 1))))


def softmax(z):
    """Row softmax of a logits array, to read the heads as distributions."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)
