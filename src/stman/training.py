"""Training: losses, momentum optimizer, the two-phase adversarial epoch,
variant configuration, checkpoints, and evaluation of trained parameters.

Epoch structure with the discriminator enabled: Phase 1 walks the
mini-batches and, per batch, takes one minimization step of the
adversarial objective on the encoder parameters followed by one
maximization step on the discriminator and the task-specific dense
parameters; Phase 2 walks the mini-batches minimizing the task loss for
every trainable parameter except the discriminator's. Without the
discriminator only Phase 2 runs.

All randomness is drawn from named streams ("init", "shuffle",
"dropout", "adv-sample", "split") derived from the one config seed, so
identical configs replay bit-identically.
"""

from __future__ import annotations

import copy
import gc
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from . import corpus as cp
from . import encoder, heads, interaction, rngs

__all__ = [
    "ModelConfig",
    "VARIANTS",
    "TrainResult",
    "TrainingDiverged",
    "apply_lr_decay",
    "param_specs",
    "init_params",
    "as_leaves",
    "fingerprint",
    "group_names",
    "momentum_step",
    "task_loss",
    "adv_loss",
    "forward_task",
    "forward_discriminator",
    "forward_adv",
    "discriminator_accuracy",
    "train",
    "train_epoch",
    "predict",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
    "gradient_check",
]

CHECKPOINT_FORMAT = "stman-checkpoint-v1"

# config keys of retired schedule options, which older checkpoints carry
_RETIRED_CONFIG_KEYS = {"adv_theta_k", "adv_phase1"}

# accepted value types per ModelConfig field annotation; a float field
# also takes an int
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}


@dataclass
class ModelConfig:
    """Hyperparameters and variant flags. Defaults are the full model's
    published settings; all four flags on selects the complete system."""

    K: int = 100
    Z: int = 100
    H: int = 50
    D: int = 100
    E: int = 50
    dropout: float = 0.2
    lr: float = 0.1
    lr_decay: float = 0.8
    momentum_mu: float = 0.9
    batch: int = 32
    epochs: int = 30
    seed: int = 0
    use_td: bool = True
    use_st: bool = True
    use_mask: bool = True
    use_aux: bool = True
    min_count: int = 1
    # fraction of training dialogues participating in Phase 1; 0 skips it
    adv_fraction: float = 1.0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass: only bool fields may hold one
            if (not isinstance(value, _FIELD_TYPES[f.type])
                    or isinstance(value, bool) != (f.type == "bool")):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("K", "Z", "H", "D", "E", "batch", "epochs", "min_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not 0.0 <= self.momentum_mu < 1.0:
            raise ValueError(f"momentum_mu must be in [0, 1), got {self.momentum_mu}")
        if not 0.0 <= self.adv_fraction <= 1.0:
            raise ValueError(f"adv_fraction must be in [0, 1], got {self.adv_fraction}")


# Ablation variants: which flags each named configuration flips.
VARIANTS = {
    "basic": dict(use_td=False, use_st=False, use_mask=True, use_aux=True),
    "basic-mask": dict(use_td=False, use_st=False, use_mask=False, use_aux=True),
    "basic-aux": dict(use_td=False, use_st=False, use_mask=True, use_aux=False),
    "basic+td": dict(use_td=True, use_st=False, use_mask=True, use_aux=True),
    "basic+st": dict(use_td=False, use_st=True, use_mask=True, use_aux=True),
    "stman": dict(use_td=True, use_st=True, use_mask=True, use_aux=True),
}


def variant_config(base: ModelConfig, name: str) -> ModelConfig:
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}")
    return replace(base, **VARIANTS[name])


def apply_lr_decay(lr0: float, lr_decay: float, epoch_index: int) -> float:
    if epoch_index < 0:
        raise ValueError(f"epoch_index must be >= 0, got {epoch_index}")
    return lr0 * lr_decay**epoch_index


# -------------------------------------------------------------- parameters


def param_specs(cfg: ModelConfig, vocab_size: int) -> list[tuple[str, tuple[int, int]]]:
    return (encoder.param_specs(vocab_size, cfg.D, cfg.E)
            + interaction.param_specs(cfg.E, cfg.K, cfg.Z, cfg.use_st,
                                      cfg.use_aux, cfg.use_td)
            + heads.param_specs(cfg.K, cfg.H, cfg.use_aux, cfg.use_td))


def init_params(cfg: ModelConfig, vocab_size: int) -> dict[str, np.ndarray]:
    """Deterministic uniform init from the "init" stream, drawn in
    allocation order so a (config, seed) pair always produces the same
    weights.

    Bias rows start in U(-0.01, 0.01); weight matrices use the fan-scaled
    range U(-l, l) with l = sqrt(6 / (rows + cols)). A flat tiny range for
    the matrices leaves every dialogue mapped to nearly identical features,
    and once the output biases absorb the class priors the remaining
    gradients are proportional to that vanishing feature variance, so
    training stalls on the prior plateau; fan-scaled matrices keep early
    forward signals at unit order and avoid the trap."""
    rng = rngs.stream(cfg.seed, "init")
    out = {}
    for name, shape in param_specs(cfg, vocab_size):
        rows, cols = shape
        limit = 0.01 if rows == 1 else np.sqrt(6.0 / (rows + cols))
        out[name] = rng.uniform(-limit, limit, size=shape)
    return out


def as_leaves(params: dict[str, np.ndarray]) -> dict[str, ad.Node]:
    """Fresh leaf nodes sharing the parameter arrays (one set per forward)."""
    return {name: ad.leaf(arr) for name, arr in params.items()}


def fingerprint(params: dict[str, np.ndarray], prefixes=("",)) -> str:
    """Order-independent content hash of every parameter matching any of
    the prefixes; used to assert what an update phase did not touch."""
    h = rngs._sha256()
    for name in sorted(params):
        if any(name.startswith(p) for p in prefixes):
            h.update(name.encode())
            h.update(params[name].tobytes())
    return h.hexdigest()


def group_names(params: dict, group: str) -> list[str]:
    """Parameter-name selectors for the update phases; "theta_k" is the
    task-specific dense layers that Phase 1 maximizes with the
    discriminator."""
    names = sorted(params)
    if group == "enc":
        return [n for n in names if n.startswith("enc.")]
    if group == "td":
        return [n for n in names if n.startswith("td.")]
    if group == "theta_k":
        return [n for n in names if n.startswith("proj.")]
    if group == "task":
        return [n for n in names if not n.startswith("td.")]
    raise ValueError(f"unknown parameter group {group!r}")


def momentum_step(params: dict, velocities: dict, grads: dict, lr: float,
                  mu: float, names) -> None:
    """v <- mu v - lr g; theta <- theta + v, applied in place. Parameters
    whose gradient is absent (objective does not reach them) are left
    untouched, velocity included."""
    for name in names:
        g = grads.get(name)
        if g is None:
            continue
        v = velocities[name]
        v *= mu
        v -= lr * g
        params[name] += v


# ------------------------------------------------------------------ losses


def _row_shares(pk: ad.Packing) -> np.ndarray:
    """1 / (B * utterances of its dialogue), for each packed row: the
    weight that makes a loss the batch mean of per-dialogue means."""
    B = pk.order.size
    dialogue = pk.rows % B  # grid row t*B + b is dialogue b's
    return 1.0 / (np.bincount(dialogue, minlength=B)[dialogue] * B)


def task_loss(z_m: ad.Node, sat: np.ndarray, z_sa, sent: np.ndarray,
              pk: ad.Packing, use_aux: bool) -> ad.Node:
    """Batch-mean task loss from the heads' logits.

    Per dialogue: cross-entropy of the satisfaction prediction, plus the
    per-utterance sentiment cross-entropies averaged over that dialogue's
    real utterances. ``z_m`` is in batch order; ``z_sa`` has the rows of
    the packing ``pk``, and ``sent`` is the (B, L) class grid.
    """
    B = sat.shape[0]
    w_m = np.zeros((B, heads.N_SAT))
    w_m[np.arange(B), sat] = 1.0 / B
    loss = ad.log_softmax_sum(z_m, -w_m)
    if not use_aux:
        return loss
    share = _row_shares(pk)
    w_sa = np.zeros((share.size, heads.N_SENT))
    w_sa[np.arange(share.size), pk.take(sent)] = share
    return ad.add(loss, ad.log_softmax_sum(z_sa, -w_sa))


def adv_loss(zk: ad.Node, pk: ad.Packing) -> ad.Node:
    """Discriminator log-likelihood J: per dialogue, mean log-probability
    of the true origin over the 2L feature rows (L from each stream),
    then batch-mean. ``zk`` is the (2N, 2) logits output of
    ``heads.discriminate_steps`` over the rows of the packing ``pk``.
    Maximization ascends it, minimization descends it."""
    w = 0.5 * _row_shares(pk)
    # row 2r + i is row r of stream i, whose true class is i
    weights = np.zeros((2 * w.size, heads.N_TASKS))
    weights[0::2, 0] = w
    weights[1::2, 1] = w
    return ad.log_softmax_sum(zk, weights)


# ---------------------------------------------------------------- forwards


def forward_task(P: dict, batch: cp.Batch, cfg: ModelConfig,
                 train_mode: bool = False, drop_rng=None):
    """Full task forward on one batch. Returns (loss, z_m, z_sa): z_m
    holds the (B, 3) satisfaction logits in batch order, z_sa the (N, 3)
    sentiment logits of the rows of ``ad.pack(batch.utt_valid)``,
    or None without the auxiliary head."""
    pk = ad.pack(batch.utt_valid)
    rate = cfg.dropout if train_mode else 0.0
    V = encoder.encode_grid(P, batch.ids, batch.tok_valid, cfg.E, pk.rows, rate,
                            drop_rng)
    H_m, H_a = interaction.run_interaction(P, V, pk.take(batch.turn), pk.counts,
                                           cfg.use_st, cfg.use_aux)
    keep = pk.take(batch.is_user) if cfg.use_mask else None
    z_m, _ = heads.use_decode_steps(P, H_m, pk.counts, keep)
    # packed dialogue order back to batch order
    z_m = ad.gather_rows(z_m, np.argsort(pk.order))
    z_sa = heads.sa_decode(P, H_a) if cfg.use_aux else None
    loss = task_loss(z_m, batch.sat, z_sa, batch.sent, pk, cfg.use_aux)
    return loss, z_m, z_sa


def forward_discriminator(P: dict, batch: cp.Batch, cfg: ModelConfig,
                          pk: ad.Packing, train_mode: bool = False,
                          drop_rng=None):
    """Encoder, both dense projections, and the discriminator over both
    streams. Returns the (2N, 2) origin logits: row 2r + i is row r of
    the batch's packing ``pk`` in stream i."""
    rate = cfg.dropout if train_mode else 0.0
    V = encoder.encode_grid(P, batch.ids, batch.tok_valid, cfg.E, pk.rows, rate,
                            drop_rng)
    X_m = interaction.project(P, V, "m")
    X_a = interaction.project(P, V, "a")
    return heads.discriminate_steps(P, X_m, X_a, pk.counts)


def forward_adv(P: dict, batch: cp.Batch, cfg: ModelConfig,
                train_mode: bool = False, drop_rng=None) -> ad.Node:
    """Adversarial objective J on one batch."""
    pk = ad.pack(batch.utt_valid)
    zk = forward_discriminator(P, batch, cfg, pk, train_mode, drop_rng)
    return adv_loss(zk, pk)


def discriminator_accuracy(params: dict, dialogues: list, vocab: cp.Vocabulary,
                           cfg: ModelConfig) -> float:
    """Per-utterance accuracy of the discriminator at naming each feature
    row's stream of origin, over both streams' real utterances, by the
    argmax of its logits. Batches of ``cfg.batch`` dialogues are formed
    in length order, as in ``predict``; the counts are integers, so the
    result does not depend on the batching."""
    counts = np.array([len(d.utterances) for d in dialogues], dtype=np.intp)
    correct = 0
    total = 0
    for _, batch in _length_sorted_batches(dialogues, counts, vocab, cfg.batch):
        zk = forward_discriminator(as_leaves(params), batch, cfg,
                                   ad.pack(batch.utt_valid)).value
        # (row, stream) argmax classes; stream i's true class is i
        preds = np.argmax(zk, axis=1).reshape(-1, heads.N_TASKS)
        correct += int(np.sum(preds == np.arange(heads.N_TASKS)))
        total += preds.size
    if total == 0:
        raise ValueError("discriminator_accuracy: no utterance to score")
    return correct / total


# ----------------------------------------------------------------- training


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    config: ModelConfig
    vocab: cp.Vocabulary
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1


def _grads_of(params: dict, build, names=None):
    """One forward/backward pass; returns (name -> gradient, loss value).
    Only ``names`` (default: every parameter) are leaves; the rest enter
    as constants, so the tape records no node that reaches none of them
    and no gradient of theirs is computed. The gradient is None where
    the objective never touched the parameter."""
    if names is None:
        names = list(params)
    P = as_leaves({name: params[name] for name in names})
    P.update((name, ad.constant(arr)) for name, arr in params.items()
             if name not in P)
    with ad.Tape() as tape:
        loss = build(P)
        tape.backward(loss)
    return {name: P[name].grad for name in names}, float(loss.value[0, 0])


class TrainingDiverged(ArithmeticError):
    """A training objective became non-finite; the message names the
    epoch, the batch, the phase and the value."""


def _check_finite(value: float, epoch: int, index: int, phase: str) -> None:
    if not math.isfinite(value):
        raise TrainingDiverged(f"epoch {epoch}, batch {index}, {phase}: "
                               f"objective is {value}")


def train_epoch(params: dict, velocities: dict, train_dialogues: list,
                adv_ids: set, vocab: cp.Vocabulary, cfg: ModelConfig,
                epoch: int, shuffle_rng, drop_rng) -> dict:
    """One epoch in place; returns the epoch's loss summary. A batch
    whose objective value is not finite raises ``TrainingDiverged``
    before its momentum step."""
    lr = apply_lr_decay(cfg.lr, cfg.lr_decay, epoch)
    perm = shuffle_rng.permutation(len(train_dialogues))
    ordered = [train_dialogues[i] for i in perm]
    batches = cp.batchify(ordered, vocab, cfg.batch)

    adv_value = None
    if cfg.use_td and cfg.adv_fraction > 0.0:
        adv_dialogues = [d for d in ordered if d.id in adv_ids]
        # with every dialogue sampled, Phase 1 walks Phase 2's batches
        adv_batches = (batches if len(adv_dialogues) == len(ordered)
                       else cp.batchify(adv_dialogues, vocab, cfg.batch))
        descend = group_names(params, "enc")
        ascend = group_names(params, "td") + group_names(params, "theta_k")
        total = 0.0
        seen = 0
        for index, batch in enumerate(adv_batches):
            grads, value = _grads_of(params, lambda P: forward_adv(
                P, batch, cfg, train_mode=True, drop_rng=drop_rng), descend)
            _check_finite(value, epoch, index, "phase 1 descent")
            momentum_step(params, velocities, grads, lr, cfg.momentum_mu, descend)
            grads, value = _grads_of(params, lambda P: forward_adv(
                P, batch, cfg, train_mode=True, drop_rng=drop_rng), ascend)
            _check_finite(value, epoch, index, "phase 1 ascent")
            ascent = {n: None if g is None else -g for n, g in grads.items()}
            momentum_step(params, velocities, ascent, lr, cfg.momentum_mu, ascend)
            total += value * batch.size
            seen += batch.size
        adv_value = total / seen if seen else None

    total = 0.0
    for index, batch in enumerate(batches):
        grads, value = _grads_of(params, lambda P: forward_task(
            P, batch, cfg, train_mode=True, drop_rng=drop_rng)[0])
        _check_finite(value, epoch, index, "phase 2")
        momentum_step(params, velocities, grads, lr, cfg.momentum_mu,
                      group_names(params, "task"))
        total += value * batch.size
    return {"epoch": epoch, "lr": lr,
            "task_loss": total / len(train_dialogues),
            "adv_value": adv_value}


def train(split: cp.CorpusSplit, cfg: ModelConfig) -> TrainResult:
    """Full run: init, epochs, per-epoch dev scoring, best-checkpoint
    selection by dev satisfaction Macro F1."""
    cfg.validate()
    if not split.train:
        raise ValueError("empty training split")
    vocab = cp.build_vocab(split.train, cfg.min_count)
    params = init_params(cfg, len(vocab))
    velocities = {name: np.zeros_like(arr) for name, arr in params.items()}
    shuffle_rng = rngs.stream(cfg.seed, "shuffle")
    drop_rng = rngs.stream(cfg.seed, "dropout")

    adv_ids: set = set()
    if cfg.use_td and cfg.adv_fraction > 0.0:
        n_adv = int(np.floor(cfg.adv_fraction * len(split.train)))
        pick = rngs.stream(cfg.seed, "adv-sample").permutation(len(split.train))[:n_adv]
        adv_ids = {split.train[i].id for i in pick}

    result = TrainResult(params=params, config=cfg, vocab=vocab)
    best_f1 = -1.0
    best_params = None
    # A finished tape is freed by reference counting alone, so the cyclic
    # collector's automatic passes, triggered by the tape's allocations,
    # find nothing; they are paused for the run and one full collection
    # at each epoch's end bounds any cyclic garbage instead.
    collector_was_on = gc.isenabled()
    gc.disable()
    try:
        for epoch in range(cfg.epochs):
            summary = train_epoch(params, velocities, split.train, adv_ids, vocab,
                                  cfg, epoch, shuffle_rng, drop_rng)
            if split.dev:
                dev = evaluate(params, split.dev, vocab, cfg)
                summary["dev_use_acc"] = dev["use"]["accuracy"]
                summary["dev_use_macro_f1"] = dev["use"]["macro_f1"]
                if cfg.use_aux:
                    summary["dev_sa_acc"] = dev["sa"]["accuracy"]
                    summary["dev_sa_macro_f1"] = dev["sa"]["macro_f1"]
                if dev["use"]["macro_f1"] > best_f1:
                    best_f1 = dev["use"]["macro_f1"]
                    best_params = copy.deepcopy(params)
                    result.best_epoch = epoch
            result.history.append(summary)
            gc.collect()
    finally:
        if collector_was_on:
            gc.enable()
    if best_params is not None:
        result.params = best_params
    return result


# --------------------------------------------------------------- inference


def _length_sorted_batches(dialogues: list, counts: np.ndarray, vocab: cp.Vocabulary,
                           batch_size: int):
    """Yields (corpus indices, batch) over the dialogues sorted by
    descending utterance count ``counts``, a stable sort so that ties
    keep corpus order. Neighbours in that order have nearly equal
    lengths, so each batch pads to its own dialogues' L, not to the
    longest of a random handful. Each batch is built only when it is
    asked for, so one batch's arrays are alive at a time, however long
    the corpus."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.argsort(-counts, kind="stable")
    for start in range(0, order.size, batch_size):
        indices = order[start:start + batch_size]
        (batch,) = cp.batchify([dialogues[i] for i in indices], vocab, batch_size)
        yield indices, batch


def predict(params: dict, dialogues: list, vocab: cp.Vocabulary,
            cfg: ModelConfig, batch_size: int | None = None):
    """Argmax predictions in evaluation mode (no dropout). Returns
    (use_preds, sa_preds) with use_preds in corpus order and sa_preds
    flattened over real utterances in corpus order, or None without the
    auxiliary head. Ties break toward the lowest class index.

    Batches of ``batch_size`` dialogues (default ``cfg.batch``) are
    formed in descending order of utterance count, so a batch runs only
    as many recurrence steps as its own longest dialogue; each batch
    writes its predictions straight to their corpus-order positions,
    and they equal those of ``batch_size=1``."""
    counts = np.array([len(d.utterances) for d in dialogues], dtype=np.intp)
    # index of each dialogue's first utterance in the flat SA predictions
    first = np.cumsum(counts) - counts
    use_preds = np.zeros(len(dialogues), dtype=np.intp)
    sa_preds = np.zeros(counts.sum(), dtype=np.intp)
    batch_size = cfg.batch if batch_size is None else batch_size
    for indices, batch in _length_sorted_batches(dialogues, counts, vocab, batch_size):
        P = as_leaves(params)
        _, z_m, z_sa = forward_task(P, batch, cfg, train_mode=False)
        use_preds[indices] = np.argmax(z_m.value, axis=1)
        if cfg.use_aux:
            # packed row = grid cell t*B + b: utterance t of dialogue b
            step, b = np.divmod(ad.pack(batch.utt_valid).rows, batch.size)
            sa_preds[first[indices[b]] + step] = np.argmax(z_sa.value, axis=1)
    return use_preds.tolist(), sa_preds.tolist() if cfg.use_aux else None


def evaluate(params: dict, dialogues: list, vocab: cp.Vocabulary,
             cfg: ModelConfig) -> dict:
    """Metrics report for both tasks on a dialogue list."""
    # deferred import: evalcli imports this module for its CLI surface
    from .evalcli import score_labels

    use_preds, sa_preds = predict(params, dialogues, vocab, cfg)
    sat_index = {s: i for i, s in enumerate(cp.SATISFACTIONS)}
    use_truth = [sat_index[d.satisfaction] for d in dialogues]
    report = {"use": score_labels(use_preds, use_truth, len(cp.SATISFACTIONS))}
    if cfg.use_aux:
        sent_index = {s: i for i, s in enumerate(cp.SENTIMENTS)}
        sa_truth = [sent_index[u.sentiment] for d in dialogues for u in d.utterances]
        report["sa"] = score_labels(sa_preds, sa_truth, len(cp.SENTIMENTS))
    return report


# -------------------------------------------------------------- checkpoints


def save_checkpoint(path, params: dict, cfg: ModelConfig, vocab_size: int) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(cfg),
        "vocab_size": vocab_size,
        "params": {
            name: {"shape": list(arr.shape), "values": arr.reshape(-1).tolist()}
            for name, arr in params.items()
        },
    }
    with cp.atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path):
    """Returns (params, config, vocab_size). The config must hold every
    ModelConfig field and no other key but a retired one; every shape is
    validated against what the config says the model must contain, and
    every value must be a finite number; an error names the parameter or
    field."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint must be a JSON object, got {type(payload).__name__}")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {payload.get('format')!r}")
    for key in ("config", "vocab_size", "params"):
        if key not in payload:
            raise ValueError(f"checkpoint has no {key!r} field")
    for key in ("config", "params"):
        if not isinstance(payload[key], dict):
            raise ValueError(f"{key} must be a JSON object, "
                             f"got {type(payload[key]).__name__}")
    stored = payload["config"]
    known = {f.name for f in fields(ModelConfig)}
    unknown = sorted(set(stored) - known - _RETIRED_CONFIG_KEYS)
    missing = sorted(known - set(stored))
    if unknown or missing:
        raise ValueError(f"checkpoint config mismatch: unknown {unknown}, missing {missing}")
    cfg = ModelConfig(**{k: v for k, v in stored.items() if k in known})
    cfg.validate()
    vocab_size = payload["vocab_size"]
    if not isinstance(vocab_size, int) or isinstance(vocab_size, bool) or vocab_size < 1:
        raise ValueError(f"vocab_size must be an int >= 1, got {vocab_size!r}")
    expected = dict(param_specs(cfg, vocab_size))
    got = payload["params"]
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        raise ValueError(f"checkpoint parameter mismatch: missing {missing}, extra {extra}")
    params = {}
    for name, spec in expected.items():
        entry = got[name]
        if not isinstance(entry, dict) or not {"shape", "values"} <= entry.keys():
            raise ValueError(f"{name}: entry must be an object with 'shape' and 'values'")
        if entry["shape"] != list(spec):
            raise ValueError(f"{name}: shape {entry['shape']} != expected {list(spec)}")
        size = spec[0] * spec[1]
        try:
            values = np.asarray(entry["values"])
        except ValueError:  # ragged nesting
            values = None
        if values is None or values.dtype.kind not in "iuf" or values.shape != (size,):
            raise ValueError(f"{name}: values must be a flat list of {size} "
                             f"numbers for shape {list(spec)}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name}: non-finite value in the checkpoint")
        params[name] = values.astype(np.float64, copy=False).reshape(spec)
    return params, cfg, vocab_size


# --------------------------------------------------------------- grad check


def gradient_check(cfg: ModelConfig, dialogues: list, vocab: cp.Vocabulary,
                   h: float = 1e-5) -> dict[str, float]:
    """Central-difference check of every parameter gradient for both the
    task loss and the adversarial objective, in evaluation mode (dropout
    off so the losses are deterministic functions of the parameters).
    Returns the worst relative error per parameter name."""
    (batch,) = cp.batchify(dialogues, vocab, max(len(dialogues), 1))
    params = init_params(cfg, len(vocab))

    builders = [lambda P: forward_task(P, batch, cfg)[0]]
    if cfg.use_td:
        builders.append(lambda P: forward_adv(P, batch, cfg))

    worst: dict[str, float] = {name: 0.0 for name in params}
    for build in builders:
        grads, _ = _grads_of(params, build)
        for name, arr in params.items():
            if grads[name] is None:
                continue
            analytic = grads[name]
            flat = arr.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = float(build(as_leaves(params)).value[0, 0])
                flat[i] = orig - h
                down = float(build(as_leaves(params)).value[0, 0])
                flat[i] = orig
                numeric[i] = (up - down) / (2.0 * h)
            numeric = numeric.reshape(arr.shape)
            denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-4)
            err = float(np.max(np.abs(analytic - numeric) / denom))
            worst[name] = max(worst[name], err)
    return worst
