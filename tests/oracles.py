"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way (scalar loops, mpmath,
counting) and must not import model code beyond what a test hands in.
Keeping these separate from the library is the point: a bug would have
to be made twice, in two different styles, to go unnoticed.
"""

import math

import mpmath
import numpy as np

GRAD_H = 1e-5
GRAD_TOL = 1e-4

# Floor for the relative-error denominator. Central differences at
# h=1e-5 on unit-scale losses carry ~1e-10 of roundoff, so coordinates
# where both gradients are near zero would otherwise report pure noise.
# With this floor an absolute error above 1e-8 on such coordinates still
# trips the 1e-4 threshold.
REL_ERR_FLOOR = 1e-4


def rel_err(analytic, numeric, floor=REL_ERR_FLOOR):
    """Worst-case relative disagreement between two gradient arrays."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    assert a.shape == n.shape, f"shape mismatch {a.shape} vs {n.shape}"
    denom = np.maximum(np.abs(a) + np.abs(n), floor)
    return float(np.max(np.abs(a - n) / denom))


def numeric_grad(f, arrays, h=GRAD_H):
    """Central-difference gradients of the scalar f() w.r.t. each array.

    f must read the arrays' current contents on every call; entries are
    perturbed in place and restored afterwards.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def softmax_rows_mp(x, keep=None, dps=50):
    """Row softmax at 50 significant digits; optional boolean keep mask.

    Excluded entries are exactly 0; a row with nothing kept is all zero.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if keep is None:
        keep = np.ones(x.shape, dtype=bool)
    keep = np.asarray(keep, dtype=bool).reshape(x.shape)
    out = np.zeros_like(x)
    with mpmath.workdps(dps):
        for r in range(x.shape[0]):
            cols = [c for c in range(x.shape[1]) if keep[r, c]]
            if not cols:
                continue
            exps = [mpmath.e ** mpmath.mpf(x[r, c]) for c in cols]
            total = mpmath.fsum(exps)
            for c, e in zip(cols, exps):
                out[r, c] = float(e / total)
    return out


def packed_softmax_ref(scores, counts, keep=None):
    """Softmax of packed (N,) scores one sequence at a time, by
    ``softmax_rows_mp``: sequence r holds row offs[j] + r of every step j
    with counts[j] > r."""
    offs = _offsets(counts)
    out = np.zeros(len(scores))
    for r in range(int(counts[0])):
        rows = [offs[j] + r for j in range(len(counts)) if counts[j] > r]
        kept = None if keep is None else [keep[i] for i in rows]
        out[rows] = softmax_rows_mp([scores[i] for i in rows], kept)[0]
    return out


def sigmoid_ref(x):
    # classic form on purpose (library uses the tanh identity)
    return 1.0 / (1.0 + math.exp(-x))


def turn_flags_ref(roles):
    """One dialogue's turn flags by a scalar loop: the first is 0, and the
    bit flips wherever the role changes from the previous utterance."""
    roles = list(roles)
    flags = [0]
    for prev, cur in zip(roles, roles[1:]):
        flags.append(flags[-1] ^ (prev != cur))
    return flags


def confusion_oracle(y_true, y_pred, n_classes):
    """Confusion counts by explicit pair counting. cm[t][p] layout."""
    cm = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(y_true, y_pred, strict=True):
        cm[t][p] += 1
    return cm


def accuracy_oracle(y_true, y_pred):
    hits = sum(1 for t, p in zip(y_true, y_pred, strict=True) if t == p)
    return hits / len(y_true)


def macro_f1_oracle(y_true, y_pred, n_classes):
    """Macro F1 from first principles; empty classes contribute 0."""
    cm = confusion_oracle(y_true, y_pred, n_classes)
    f1s = []
    for k in range(n_classes):
        tp = cm[k][k]
        fp = sum(cm[t][k] for t in range(n_classes)) - tp
        fn = sum(cm[k][p] for p in range(n_classes)) - tp
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        f1s.append(f1)
    return sum(f1s) / n_classes


def lstm_cell_ref(x, h_prev, c_prev, W, U, b, E):
    """One LSTM step as scalar-friendly numpy; gate order i, f, o, g."""
    z = x @ W + h_prev @ U + b
    i = 1.0 / (1.0 + np.exp(-z[:, 0 * E : 1 * E]))
    f = 1.0 / (1.0 + np.exp(-z[:, 1 * E : 2 * E]))
    o = 1.0 / (1.0 + np.exp(-z[:, 2 * E : 3 * E]))
    g = np.tanh(z[:, 3 * E : 4 * E])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def encoder_ref(token_ids, params, E):
    """Unbatched BiLSTM + additive tanh attention over one utterance.

    token_ids: list of int vocabulary ids (no padding). Returns the
    pooled 2E-wide row vector. Parameter names follow the library's
    checkpoint keys but are consumed as plain arrays here.
    """
    emb = params["enc.emb"]
    T = len(token_ids)
    xs = [emb[t : t + 1] for t in token_ids]

    h = np.zeros((1, E))
    c = np.zeros((1, E))
    fwd = []
    for x in xs:
        h, c = lstm_cell_ref(x, h, c, params["enc.lstm_f.W"], params["enc.lstm_f.U"],
                             params["enc.lstm_f.b"], E)
        fwd.append(h)
    h = np.zeros((1, E))
    c = np.zeros((1, E))
    bwd = [None] * T
    for i in range(T - 1, -1, -1):
        h, c = lstm_cell_ref(xs[i], h, c, params["enc.lstm_b.W"], params["enc.lstm_b.U"],
                             params["enc.lstm_b.b"], E)
        bwd[i] = h
    states = [np.hstack([fwd[i], bwd[i]]) for i in range(T)]

    scores = [float(np.tanh(s @ params["enc.att.w"] + params["enc.att.b"])[0, 0])
              for s in states]
    mx = max(scores)
    exps = [math.exp(s - mx) for s in scores]
    z = sum(exps)
    betas = [e / z for e in exps]
    v = np.zeros((1, 2 * E))
    for beta, s in zip(betas, states):
        v = v + beta * s
    return v


def gru_shared_ref(x, h_prev, params, prefix="gru_s"):
    """Standard GRU step with biases (the shared interaction layer)."""
    p = {k.split(".", 1)[1]: v for k, v in params.items() if k.startswith(prefix + ".")}
    r = 1.0 / (1.0 + np.exp(-(x @ p["W_r"] + h_prev @ p["U_r"] + p["b_r"])))
    z = 1.0 / (1.0 + np.exp(-(x @ p["W_z"] + h_prev @ p["U_z"] + p["b_z"])))
    hh = np.tanh(x @ p["W_h"] + (h_prev * r) @ p["U_h"] + p["b_h"])
    return (1.0 - z) * h_prev + z * hh


def gru_task_ref(x, h_prev, hs, params, prefix):
    """Task-variant GRU step: nine weight groups, no biases, shared-state
    input hs enters every gate through its own U^s matrix."""
    p = {k.split(".", 1)[1]: v for k, v in params.items() if k.startswith(prefix + ".")}
    r = 1.0 / (1.0 + np.exp(-(x @ p["W_r"] + h_prev @ p["U_r"] + hs @ p["Us_r"])))
    z = 1.0 / (1.0 + np.exp(-(x @ p["W_z"] + h_prev @ p["U_z"] + hs @ p["Us_z"])))
    hh = np.tanh(x @ p["W_h"] + (h_prev * r) @ p["U_h"] + hs @ p["Us_h"])
    return (1.0 - z) * h_prev + z * hh


def softmax_list(xs):
    exps = [math.exp(v) for v in xs]
    total = sum(exps)
    return [e / total for e in exps]


def dialogue_forward_ref(params, token_ids, roles, turn_flags, sat_id, sent_ids,
                         *, E, K, use_st, use_mask, use_aux, use_td):
    """Whole-model scalar reference on ONE dialogue, no batching and no
    padding anywhere. token_ids: list per utterance of int id lists.

    Returns dict with V (L x 2E), X_m/X_a, H_m/H_a, p_m, sa_probs,
    task_loss, and (with use_td) the discriminator streams and adv_value.
    """
    L = len(token_ids)
    V = np.vstack([encoder_ref(ids, params, E) for ids in token_ids])

    X_m = np.tanh(V @ params["proj.m.W"] + params["proj.m.b"])
    X_a = (np.tanh(V @ params["proj.a.W"] + params["proj.a.b"])
           if (use_aux or use_td) else None)

    def task_stream(X, prefix):
        h_s = np.zeros((1, K))
        h_k = np.zeros((1, K))
        rows = []
        for t in range(L):
            x_t = X[t : t + 1]
            h_s = gru_shared_ref(x_t, h_s, params)
            if use_st:
                c_t = params["turn.emb"][turn_flags[t] : turn_flags[t] + 1]
                x_aug = np.hstack([x_t, c_t])
            else:
                x_aug = x_t
            h_k = gru_task_ref(x_aug, h_k, h_s, params, prefix)
            rows.append(h_k)
        return np.vstack(rows)

    H_m = task_stream(X_m, "gru_m")
    H_a = task_stream(X_a, "gru_a") if use_aux else None

    # satisfaction head: additive attention over user rows (or all rows)
    scores = []
    for t in range(L):
        u = np.tanh(H_m[t : t + 1] @ params["use.W_u"] + params["use.b_u"])
        scores.append(float((u @ params["use.U_u"])[0, 0]))
    keep = [r == "user" for r in roles] if use_mask else [True] * L
    alpha = np.zeros(L)
    kept = [t for t in range(L) if keep[t]]
    if kept:
        sm = softmax_list([scores[t] for t in kept])
        for t, a in zip(kept, sm):
            alpha[t] = a
    pooled = sum(alpha[t] * H_m[t] for t in range(L))
    o = np.hstack([pooled, H_m[L - 1]])
    p_m = np.array(softmax_list((o @ params["use.W_o"] + params["use.b_o"])[0]))

    task_loss = -math.log(p_m[sat_id])
    sa_probs = None
    if use_aux:
        sa_probs = []
        sa_term = 0.0
        for t in range(L):
            p_t = np.array(softmax_list(
                (H_a[t : t + 1] @ params["sa.W"] + params["sa.b"])[0]))
            sa_probs.append(p_t)
            sa_term -= math.log(p_t[sent_ids[t]])
        task_loss += sa_term / L

    out = {"V": V, "X_m": X_m, "X_a": X_a, "H_m": H_m, "H_a": H_a,
           "alpha": alpha, "p_m": p_m, "sa_probs": sa_probs,
           "task_loss": task_loss}

    if use_td:
        def td_stream(X):
            h = np.zeros((1, K))
            rows = []
            for t in range(L):
                h = gru_shared_ref(X[t : t + 1], h, params, prefix="td")
                rows.append(softmax_list((h @ params["td.W_o"] + params["td.b_o"])[0]))
            return rows
        pk_m = td_stream(X_m)
        pk_a = td_stream(X_a)
        adv = sum(math.log(p[0]) for p in pk_m) + sum(math.log(p[1]) for p in pk_a)
        out["pk_m"] = pk_m
        out["pk_a"] = pk_a
        out["adv_value"] = adv / (2.0 * L)
    return out


def _offsets(counts):
    offs = [0]
    for n in counts:
        offs.append(offs[-1] + int(n))
    return offs


def lstm_seq_ref(xw, u, b, counts, dH, reverse=False):
    """A packed LSTM direction and its BPTT, step by step over whole-length
    state arrays: the forward copies each step's start state into
    ``h_prev``/``c_prev`` rows and computes every gate with fresh
    temporaries. Returns (H, dXW, dU, db) for the upstream gradient
    ``dH``; ``ad.lstm_seq`` must agree bit for bit."""
    E = u.shape[0]
    offs = _offsets(counts)
    N, T = xw.shape[0], len(offs) - 1
    steps = range(T - 1, -1, -1) if reverse else range(T)
    acts = np.empty((N, 4 * E))
    h_prev = np.zeros((N, E))
    c_prev = np.zeros((N, E))
    tanh_c = np.empty((N, E))
    H = np.empty((N, E))
    C = np.empty((N, E))
    last = None
    for j in steps:
        lo, hi = offs[j], offs[j + 1]
        if last is not None:
            k = min(hi - lo, last[1] - last[0])
            h_prev[lo : lo + k] = H[last[0] : last[0] + k]
            c_prev[lo : lo + k] = C[last[0] : last[0] + k]
        pre = xw[lo:hi] + h_prev[lo:hi] @ u
        pre += b
        a = acts[lo:hi]
        a[:, : 3 * E] = 0.5 * (np.tanh(0.5 * pre[:, : 3 * E]) + 1.0)
        a[:, 3 * E :] = np.tanh(pre[:, 3 * E :])
        C[lo:hi] = a[:, E : 2 * E] * c_prev[lo:hi] + a[:, :E] * a[:, 3 * E :]
        tanh_c[lo:hi] = np.tanh(C[lo:hi])
        H[lo:hi] = a[:, 2 * E : 3 * E] * tanh_c[lo:hi]
        last = (lo, hi)

    deriv = acts * (1.0 - acts)
    deriv[:, 3 * E :] = 1.0 - acts[:, 3 * E :] ** 2
    dpre = np.empty((N, 4 * E))
    dh_next = dc_next = np.zeros((0, E))
    for j in reversed(steps):
        lo, hi = offs[j], offs[j + 1]
        a, tc = acts[lo:hi], tanh_c[lo:hi]
        dh = dH[lo:hi].copy()
        k = min(hi - lo, dh_next.shape[0])
        dh[:k] += dh_next[:k]
        dc = dh * a[:, 2 * E : 3 * E] * (1.0 - tc * tc)
        dc[:k] += dc_next[:k]
        dp = dpre[lo:hi]
        dp[:, :E] = dc * a[:, 3 * E :]
        dp[:, E : 2 * E] = dc * c_prev[lo:hi]
        dp[:, 2 * E : 3 * E] = dh * tc
        dp[:, 3 * E :] = dc * a[:, :E]
        dp *= deriv[lo:hi]
        dh_next = dp @ u.T
        dc_next = dc * a[:, E : 2 * E]
    return H, dpre, h_prev.T @ dpre, dpre.sum(axis=0, keepdims=True)


def gru_seq_ref(xw, u, b, counts, dH):
    """A packed GRU and its BPTT, step by step over whole-length state
    arrays with fresh temporaries for every gate. Returns
    (H, dXW, dU, db) for the upstream gradient ``dH``; ``ad.gru_seq``
    must agree bit for bit."""
    K = u.shape[0]
    offs = _offsets(counts)
    N, T = xw.shape[0], len(offs) - 1
    u_rz, u_h = u[:, : 2 * K], u[:, 2 * K :]
    acts = np.empty((N, 3 * K))
    h_prev = np.zeros((N, K))
    hr = np.empty((N, K))
    H = np.empty((N, K))
    for j in range(T):
        lo, hi = offs[j], offs[j + 1]
        if j:
            h_prev[lo:hi] = H[offs[j - 1] : offs[j - 1] + hi - lo]
        hp, a = h_prev[lo:hi], acts[lo:hi]
        pre = xw[lo:hi, : 2 * K] + hp @ u_rz
        pre += b[:, : 2 * K]
        a[:, : 2 * K] = 0.5 * (np.tanh(0.5 * pre) + 1.0)
        np.multiply(hp, a[:, :K], out=hr[lo:hi])
        pre = xw[lo:hi, 2 * K :] + hr[lo:hi] @ u_h
        pre += b[:, 2 * K :]
        np.tanh(pre, out=a[:, 2 * K :])
        z = a[:, K : 2 * K]
        H[lo:hi] = hp - z * hp + z * a[:, 2 * K :]

    dpre = np.empty((N, 3 * K))
    dh_next = np.zeros((0, K))
    for j in range(T - 1, -1, -1):
        lo, hi = offs[j], offs[j + 1]
        a, hp = acts[lo:hi], h_prev[lo:hi]
        r, z, c = a[:, :K], a[:, K : 2 * K], a[:, 2 * K :]
        dh = dH[lo:hi].copy()
        dh[: dh_next.shape[0]] += dh_next
        dp = dpre[lo:hi]
        dp[:, 2 * K :] = dh * z * (1.0 - c * c)
        dhr = dp[:, 2 * K :] @ u_h.T
        dp[:, :K] = dhr * hp * r * (1.0 - r)
        dp[:, K : 2 * K] = dh * (c - hp) * z * (1.0 - z)
        dh_next = dh - dh * z + dhr * r + dp[:, : 2 * K] @ u_rz.T
    dU = np.empty((K, 3 * K))
    np.matmul(h_prev.T, dpre[:, : 2 * K], out=dU[:, : 2 * K])
    np.matmul(hr.T, dpre[:, 2 * K :], out=dU[:, 2 * K :])
    return H, dpre, dU, dpre.sum(axis=0, keepdims=True)
