"""Metrics, heuristic sentiment-mapping baselines, correlation analysis,
training-fraction sweeps, ablations, and the command-line surface.

Subcommands: gen-data, train, eval, ablate, sweep, analyze, grad-check.
Config files are flat key=value text matching ModelConfig field names;
the STMAN_SEED environment variable overrides the config seed, and an
explicit --seed flag overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import fields, replace

import numpy as np

from . import corpus as cp
from . import training
from .training import ModelConfig, VARIANTS, variant_config

__all__ = [
    "confusion",
    "score_labels",
    "heuristic_baseline",
    "correlation_table",
    "fraction_sweep",
    "ablate",
    "toy_setup",
    "load_config",
    "main",
]


# ----------------------------------------------------------------- metrics


def confusion(preds, truths, n_classes: int) -> np.ndarray:
    """Count matrix indexed [true, predicted] of integer labels
    0..n_classes-1; any other label is an error. One ``np.bincount``
    counts the (true, predicted) cells."""
    if len(preds) != len(truths):
        raise ValueError("confusion needs equal-length label sequences")
    labels = np.asarray((truths, preds), dtype=np.float64)
    bad = labels[(labels != np.floor(labels)) | (labels < 0) | (labels >= n_classes)]
    if bad.size:
        raise ValueError(f"label {bad[0]:g} outside 0..{n_classes - 1}")
    t, p = labels.astype(np.intp)
    k = n_classes
    return np.bincount(t * k + p, minlength=k * k).reshape(k, k)


def per_class_prf(cm: np.ndarray) -> list[dict]:
    out = []
    for k in range(cm.shape[0]):
        tp = cm[k, k]
        pred_k = cm[:, k].sum()
        true_k = cm[k, :].sum()
        p = tp / pred_k if pred_k else 0.0
        r = tp / true_k if true_k else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        out.append({"precision": float(p), "recall": float(r), "f1": float(f1)})
    return out


def score_labels(preds, truths, n_classes: int) -> dict:
    """Accuracy, macro F1, per-class precision/recall/F1 and the
    confusion matrix of labels 0..n_classes-1, from one count pass."""
    if len(truths) == 0:
        raise ValueError("score_labels needs non-empty label sequences")
    cm = confusion(preds, truths, n_classes)
    prf = per_class_prf(cm)
    return {
        "n": len(truths),
        "accuracy": int(np.trace(cm)) / int(cm.sum()),
        # unweighted class mean; a class absent from both predictions and
        # truths contributes F1 = 0 (pessimistic, deterministic)
        "macro_f1": sum(entry["f1"] for entry in prf) / len(prf),
        "per_class": prf,
        "confusion": cm.tolist(),
    }


# --------------------------------------------------------------- baselines


def _user_sentiment(dialogue: cp.Dialogue, mode: str) -> str | None:
    utts = dialogue.utterances if mode == "initial" else reversed(dialogue.utterances)
    for u in utts:
        if u.speaker == "user":
            return u.sentiment
    return None


def heuristic_baseline(mode: str, dialogues: list[cp.Dialogue]) -> dict:
    """Predict satisfaction from the initial or final user utterance's
    sentiment via the canonical mapping. Dialogues without any user
    utterance are skipped and counted."""
    if mode not in ("initial", "final"):
        raise ValueError(f"mode must be 'initial' or 'final', got {mode!r}")
    preds, truths = [], []
    skipped = 0
    for d in dialogues:
        sentiment = _user_sentiment(d, mode)
        if sentiment is None:
            skipped += 1
            continue
        preds.append(cp.SATISFACTIONS.index(cp.canonical_satisfaction(sentiment)))
        truths.append(cp.SATISFACTIONS.index(d.satisfaction))
    if not truths:
        raise ValueError("no dialogue with a user utterance")
    report = score_labels(preds, truths, len(cp.SATISFACTIONS))
    report["mode"] = mode
    report["skipped"] = skipped
    return report


def correlation_table(dialogues: list[cp.Dialogue]) -> dict:
    """Joint empirical proportions over (user sentiment, satisfaction)
    pairs, one 3x3 table per mode; rows are sentiments, columns are
    satisfaction labels, each table sums to 1."""
    tables = {}
    skipped = 0
    for mode in ("initial", "final"):
        counts = np.zeros((len(cp.SENTIMENTS), len(cp.SATISFACTIONS)))
        used = 0
        for d in dialogues:
            sentiment = _user_sentiment(d, mode)
            if sentiment is None:
                if mode == "initial":
                    skipped += 1
                continue
            counts[cp.SENTIMENTS.index(sentiment),
                   cp.SATISFACTIONS.index(d.satisfaction)] += 1
            used += 1
        if used == 0:
            raise ValueError("no dialogue with a user utterance")
        tables[mode] = (counts / used).tolist()
    return {"initial": tables["initial"], "final": tables["final"],
            "skipped": skipped, "sentiments": list(cp.SENTIMENTS),
            "satisfactions": list(cp.SATISFACTIONS)}


# ------------------------------------------------------- experiment drivers


def _median(values):
    return float(statistics.median(values))


def _run_and_score(split: cp.CorpusSplit, cfg: ModelConfig) -> dict:
    result = training.train(split, cfg)
    report = training.evaluate(result.params, split.test, result.vocab, cfg)
    entry = {
        "seed": cfg.seed,
        "best_epoch": result.best_epoch,
        "use_accuracy": report["use"]["accuracy"],
        "use_macro_f1": report["use"]["macro_f1"],
        "loss_curve": [h["task_loss"] for h in result.history],
    }
    if cfg.use_aux:
        entry["sa_accuracy"] = report["sa"]["accuracy"]
        entry["sa_macro_f1"] = report["sa"]["macro_f1"]
    return entry


def _seeded(base: ModelConfig, n_seeds: int) -> list[ModelConfig]:
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    return [replace(base, seed=base.seed + i) for i in range(n_seeds)]


def _seed_runs(split: cp.CorpusSplit, configs) -> dict:
    """Train and score each config; per-run numbers plus seed medians."""
    runs = [_run_and_score(split, cfg) for cfg in configs]
    entry = {"runs": runs}
    keys = ["use_accuracy", "use_macro_f1"]
    if all("sa_macro_f1" in r for r in runs):
        keys += ["sa_accuracy", "sa_macro_f1"]
    for key in keys:
        entry[f"median_{key}"] = _median([r[key] for r in runs])
    return entry


def ablate(split: cp.CorpusSplit, base: ModelConfig, n_seeds: int,
           variants=None) -> dict:
    """Train every variant on the same split with the same per-run seeds
    so differences reflect the variant only; report per-run numbers plus
    seed medians."""
    seeded = _seeded(base, n_seeds)
    return {"n_seeds": n_seeds, "variants": {
        name: _seed_runs(split, [variant_config(cfg, name) for cfg in seeded])
        for name in variants or list(VARIANTS)}}


def _check_fractions(fractions) -> None:
    for f in fractions:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fractions must lie in [0, 1], got {f}")


def fraction_sweep(split: cp.CorpusSplit, fractions, base: ModelConfig,
                   n_seeds: int) -> dict:
    """Adversarial-training fraction sweep: fraction 0 means the
    discriminator stays untrained (Phase 1 skipped); 1 is a plain run."""
    _check_fractions(fractions)
    seeded = _seeded(base, n_seeds)
    return {"n_seeds": n_seeds, "fractions": [
        {"fraction": f, **_seed_runs(split, [replace(cfg, use_td=True, adv_fraction=f)
                                             for cfg in seeded])}
        for f in fractions]}


# ------------------------------------------------------------ toy fixtures


def toy_setup(seed: int = 0):
    """Tiny full-model setup (all flags on) for gradient diagnostics:
    one 3-utterance dialogue of 3-token utterances over a micro vocab."""
    d = cp.Dialogue("toy-000000", "met", [
        cp.Utterance("user", ["slow", "broken", "refund"], "negative"),
        cp.Utterance("staff", ["checking", "order", "status"], "neutral"),
        cp.Utterance("user", ["thanks", "works", "great"], "positive"),
    ])
    vocab = cp.build_vocab([d])
    cfg = ModelConfig(K=4, Z=3, H=3, D=5, E=4, dropout=0.0, batch=1,
                      epochs=1, seed=seed)
    return cfg, [d], vocab


# ------------------------------------------------------------ config files


_BOOL_STRINGS = {"true": True, "1": True, "yes": True,
                 "false": False, "0": False, "no": False}


def load_config(path) -> ModelConfig:
    """Flat key=value text; keys are ModelConfig field names, each at most
    once. Blank lines and lines starting with # are ignored."""
    types = {f.name: f.type for f in fields(ModelConfig)}
    values = {}
    first_line = {}
    with open(path, encoding="utf-8") as fh, cp._naming(path):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            if key not in types:
                raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in first_line:
                raise ValueError(f"{path}: line {lineno}: duplicate key {key!r} "
                                 f"(first on line {first_line[key]})")
            first_line[key] = lineno
            values[key] = _coerce(key, value, types[key], f"{path}: line {lineno}")
    cfg = ModelConfig(**values)
    cfg.validate()
    return cfg


def _coerce(key: str, value: str, type_name: str, where: str):
    base = {"int": int, "float": float, "bool": bool}[type_name]
    if base is bool:
        if value.lower() not in _BOOL_STRINGS:
            raise ValueError(f"{where}: {key} expects true/false, got {value!r}")
        return _BOOL_STRINGS[value.lower()]
    try:
        return base(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {key} expects {type_name}, got {value!r}") from exc


def _resolve_config(args) -> ModelConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else ModelConfig()
    env_seed = os.environ.get("STMAN_SEED")
    if env_seed is not None:
        try:
            cfg = replace(cfg, seed=int(env_seed))
        except ValueError as exc:
            raise ValueError(f"STMAN_SEED must be an integer, got {env_seed!r}") from exc
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "variant", None):
        cfg = variant_config(cfg, args.variant)
    cfg.validate()
    return cfg


# ----------------------------------------------------------------- reports


def _dump_json(payload, path=None) -> str:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path:
        with cp.atomic_write(path) as fh:
            fh.write(text)
    return text


def _table(headers: list[str], rows: list[list]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    def fmt(row):
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(r) for r in cells]
    return "\n".join(lines)


def _fmt(x: float) -> str:
    return f"{x:.4f}"


# --------------------------------------------------------------------- CLI


def _split_for(args, cfg: ModelConfig) -> cp.CorpusSplit:
    return cp.split_corpus(cp.parse_corpus(args.corpus), cfg.seed)


def _check_seeds_flag(args) -> None:
    # before any file is read, so a bad count fails at once
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")


def cmd_gen_data(args) -> int:
    dialogues = cp.generate_synthetic(args.n, args.q, args.seed)
    cp.write_corpus(dialogues, args.out)
    print(f"wrote {len(dialogues)} dialogues to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    split = _split_for(args, cfg)
    result = training.train(split, cfg)
    training.save_checkpoint(args.out, result.params, cfg, len(result.vocab))
    cp.save_vocab(result.vocab, args.out + ".vocab")
    _dump_json({"best_epoch": result.best_epoch, "history": result.history},
               args.out + ".history.json")
    last = result.history[-1]
    print(f"trained {cfg.epochs} epochs; final task loss {_fmt(last['task_loss'])}; "
          f"best epoch {result.best_epoch}; checkpoint {args.out}")
    return 0


def cmd_eval(args) -> int:
    try:
        params, cfg, vocab_size = training.load_checkpoint(args.ckpt)
    except ValueError as exc:
        raise ValueError(f"{args.ckpt}: {exc}") from exc
    vocab_path = args.vocab or args.ckpt + ".vocab"
    vocab = cp.load_vocab(vocab_path)
    if len(vocab) != vocab_size:
        # a vocabulary of another size maps tokens to other embedding rows
        raise ValueError(f"{vocab_path}: vocabulary size {len(vocab)} does not "
                         f"match the checkpoint's vocab_size {vocab_size}")
    dialogues = cp.parse_corpus(args.corpus)
    if args.split != "all":
        dialogues = getattr(cp.split_corpus(dialogues, cfg.seed), args.split)
    if not dialogues:
        raise ValueError(f"split {args.split!r} is empty")
    report = training.evaluate(params, dialogues, vocab, cfg)
    report["split"] = args.split
    report["n_dialogues"] = len(dialogues)
    text = _dump_json(report, args.out)
    sys.stdout.write(text)
    return 0


def cmd_ablate(args) -> int:
    _check_seeds_flag(args)
    cfg = _resolve_config(args)
    split = _split_for(args, cfg)
    report = ablate(split, cfg, args.seeds)
    _dump_json(report, args.out)
    headers = ["variant", "use_acc", "use_macro_f1", "sa_macro_f1"]
    rows = []
    for name, entry in report["variants"].items():
        rows.append([name, _fmt(entry["median_use_accuracy"]),
                     _fmt(entry["median_use_macro_f1"]),
                     _fmt(entry["median_sa_macro_f1"]) if "median_sa_macro_f1" in entry
                     else "-"])
    print(_table(headers, rows))
    return 0


def cmd_sweep(args) -> int:
    _check_seeds_flag(args)
    try:
        fractions = [float(x) for x in args.fractions.split(",") if x.strip() != ""]
        _check_fractions(fractions)
    except ValueError as exc:
        raise ValueError(f"--fractions: {exc}") from None
    if not fractions:
        raise ValueError("--fractions: no fractions given")
    cfg = _resolve_config(args)
    split = _split_for(args, cfg)
    report = fraction_sweep(split, fractions, cfg, args.seeds)
    _dump_json(report, args.out)
    rows = [[f"{e['fraction']:g}", _fmt(e["median_use_accuracy"]),
             _fmt(e["median_use_macro_f1"])] for e in report["fractions"]]
    print(_table(["fraction", "use_acc", "use_macro_f1"], rows))
    return 0


def cmd_analyze(args) -> int:
    dialogues = cp.parse_corpus(args.corpus)
    report = {"n_dialogues": len(dialogues),
              "correlation": correlation_table(dialogues),
              "baseline_initial": heuristic_baseline("initial", dialogues),
              "baseline_final": heuristic_baseline("final", dialogues)}
    _dump_json(report, args.out)
    for mode in ("initial", "final"):
        base = report[f"baseline_{mode}"]
        print(f"{mode}-user-sentiment baseline: accuracy {_fmt(base['accuracy'])} "
              f"macro_f1 {_fmt(base['macro_f1'])} (skipped {base['skipped']})")
        rows = [[sent] + [_fmt(x) for x in row]
                for sent, row in zip(cp.SENTIMENTS, report["correlation"][mode])]
        print(_table(["sentiment \\ satisfaction", *cp.SATISFACTIONS], rows))
    return 0


def cmd_grad_check(args) -> int:
    cfg, dialogues, vocab = toy_setup(args.seed)
    # a shorter dialogue first: the checked batch's packing puts it after
    # the toy dialogue and leaves out its padded utterance
    short = cp.Dialogue("toy-000001", "unsatisfied", [
        cp.Utterance("user", ["broken", "refund"], "negative"),
        cp.Utterance("staff", ["checking"], "neutral"),
    ])
    worst = training.gradient_check(cfg, [short, *dialogues], vocab)
    overall = max(worst.values())
    for name in sorted(worst):
        print(f"{worst[name]:.3e}  {name}")
    print(f"worst relative error: {overall:.3e} (tolerance {args.tol:g})")
    return 0 if overall <= args.tol else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stman",
        description="Joint dialogue satisfaction and sentiment: data, training, "
                    "evaluation, ablations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=float, required=True,
                   help="final-user-sentiment/satisfaction correlation in [0,1]")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one configuration")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--variant", choices=sorted(VARIANTS))
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", help="vocabulary file (default: <ckpt>.vocab)")
    p.add_argument("--split", choices=["train", "dev", "test", "all"], default="test")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train every variant over several seeds")
    p.add_argument("--corpus", required=True)
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="adversarial-fraction sweep")
    p.add_argument("--corpus", required=True)
    p.add_argument("--fractions", required=True, help="comma-separated, e.g. 0,0.5,1")
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", help="sentiment/satisfaction correlation report")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("grad-check", help="finite-difference check on a toy model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, training.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
