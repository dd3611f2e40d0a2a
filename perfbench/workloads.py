"""The workloads: inputs made from the seed, the set-up a user pays
before the timed call, the timed call itself, and the checks on its
outputs.

Each workload is closed-loop: one caller runs the timed call, waits for
it to return, and starts the next. The package only ever sees the
generated corpus files and the checkpoint written from them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from stman import corpus as cp
from stman import evalcli, training

# the acceptance config
ACCEPT = dict(K=32, E=16, Z=32, D=100, H=50)
SMOKE = dict(K=4, E=3, Z=3, D=5, H=3, batch=8)

# Full-size inputs, and the tiny ones the schema smoke test runs.
SIZES = {
    False: {
        "train-stman": dict(n=600, epochs=2),
        "eval-stman": dict(n=600, n_eval=4000, ckpt_epochs=2),
        "grid-ablate": dict(n=300, epochs=1),
    },
    True: {
        "train-stman": dict(n=40, epochs=1),
        "eval-stman": dict(n=40, n_eval=50, ckpt_epochs=1),
        "grid-ablate": dict(n=40, epochs=1),
    },
}

# dialogues of the eval corpus come from their own seed range
EVAL_SEED_OFFSET = 1_000_000
CHECK_SAMPLE = 48
LOSS_SAMPLE = 2000
ORACLE_TOL = 1e-10


def _config(seed: int, smoke: bool, variant: str, epochs: int):
    cfg = training.ModelConfig(seed=seed, epochs=epochs, **(SMOKE if smoke else ACCEPT))
    return training.variant_config(cfg, variant)


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class Check:
    """Outcome counts of the output checks of one run."""

    def __init__(self):
        self.made = 0
        self.failed: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.made += 1
        if not ok:
            self.failed.append(what)


def _oracle(check: Check, params, dialogues, vocab, cfg) -> None:
    """The batched task loss and adversarial objective of one batch equal
    the mean of its dialogues' single-dialogue values (and so B x them,
    their sum)."""
    (batch,) = cp.batchify(dialogues[:cfg.batch], vocab, cfg.batch)
    forwards = [("task", lambda P, b: training.forward_task(P, b, cfg)[0]),
                ("adv", lambda P, b: training.forward_adv(P, b, cfg))]
    for name, forward in forwards:
        batched = forward(training.as_leaves(params), batch).value[0, 0]
        singles = [forward(training.as_leaves(params),
                           cp.batchify([d], vocab, 1)[0]).value[0, 0]
                   for d in dialogues[:cfg.batch]]
        gap = abs(batched - float(np.mean(singles)))
        check(gap <= ORACLE_TOL, f"{name} batched loss off the single-dialogue mean by {gap:.3g}")


class Workload:
    name = ""
    step_kind = "train"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.size = SIZES[smoke][self.name]

    def make_inputs(self) -> None:
        """Writes the input files; not timed."""

    def setup(self):
        """What a user pays before the timed call; returns its state."""
        raise NotImplementedError

    def call(self, state):
        raise NotImplementedError

    def dialogues_per_call(self, state) -> int:
        raise NotImplementedError

    def loss_after_n(self, state, result) -> float:
        raise NotImplementedError

    def check(self, check: Check, state, results: list) -> None:
        raise NotImplementedError


class TrainStman(Workload):
    name = "train-stman"

    def make_inputs(self):
        cp.write_corpus(cp.generate_synthetic(self.size["n"], 0.9, self.seed),
                        self.workdir / "corpus.jsonl")

    def setup(self):
        # train builds the vocabulary and initial parameters itself, inside
        # the timed call
        cfg = _config(self.seed, self.smoke, "stman", self.size["epochs"])
        split = cp.split_corpus(cp.parse_corpus(self.workdir / "corpus.jsonl"), cfg.seed)
        return cfg, split

    def call(self, state):
        cfg, split = state
        return training.train(split, cfg)

    def dialogues_per_call(self, state):
        cfg, split = state
        return len(split.train) * cfg.epochs

    def loss_after_n(self, state, result):
        return result.history[-1]["task_loss"]

    def check(self, check, state, results):
        cfg, split = state
        first = results[0]
        for h in first.history:
            check(_finite(h["task_loss"], h["adv_value"]),
                  f"non-finite loss in epoch {h['epoch']}")
        digest = training.fingerprint(first.params)
        for r in results[1:]:
            check(training.fingerprint(r.params) == digest and r.history == first.history,
                  "repeated train call gave different parameters or history")
        _oracle(check, first.params, split.train, first.vocab, cfg)


class EvalStman(Workload):
    name = "eval-stman"
    step_kind = "predict"

    def make_inputs(self):
        """Trains the checkpoint with the stman CLI in a child process, so
        that its memory peak stays out of this process's."""
        cp.write_corpus(cp.generate_synthetic(self.size["n"], 0.9, self.seed),
                        self.workdir / "train.jsonl")
        cp.write_corpus(cp.generate_synthetic(self.size["n_eval"], 0.9,
                                              self.seed + EVAL_SEED_OFFSET),
                        self.workdir / "eval.jsonl")
        cfg = _config(self.seed, self.smoke, "stman", self.size["ckpt_epochs"])
        lines = [f"{k}={v}" for k, v in
                 ((f, getattr(cfg, f)) for f in ("K", "E", "Z", "D", "H", "batch",
                                                 "epochs"))]
        (self.workdir / "model.cfg").write_text("\n".join(lines) + "\n")
        src = Path(training.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, "-c",
             "import sys, stman.evalcli as ev; sys.exit(ev.main())",
             "train", "--corpus", str(self.workdir / "train.jsonl"),
             "--out", str(self.workdir / "model.json"),
             "--config", str(self.workdir / "model.cfg"), "--variant", "stman",
             "--seed", str(cfg.seed)],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=150)

    def setup(self):
        params, cfg, _ = training.load_checkpoint(self.workdir / "model.json")
        vocab = cp.load_vocab(self.workdir / "model.json.vocab")
        dialogues = cp.parse_corpus(self.workdir / "eval.jsonl")
        return params, cfg, vocab, dialogues

    def call(self, state):
        params, cfg, vocab, dialogues = state
        return training.evaluate(params, dialogues, vocab, cfg)

    def dialogues_per_call(self, state):
        return len(state[3])

    def loss_after_n(self, state, result):
        params, cfg, vocab, dialogues = state
        sample = dialogues[:LOSS_SAMPLE]
        total = 0.0
        for batch in cp.batchify(sample, vocab, cfg.batch):
            loss = training.forward_task(training.as_leaves(params), batch, cfg)[0]
            total += loss.value[0, 0] * batch.size
        return total / len(sample)

    def check(self, check, state, results):
        params, cfg, vocab, dialogues = state
        sample = dialogues[:CHECK_SAMPLE]
        batched = training.predict(params, sample, vocab, cfg)
        single = training.predict(params, sample, vocab, cfg, batch_size=1)
        check(batched == single, "batched predictions differ from batch_size=1")
        first = results[0]
        check(all(0.0 <= first[t]["accuracy"] <= 1.0 for t in ("use", "sa")),
              "accuracy outside [0, 1]")
        for r in results[1:]:
            check(r == first, "repeated evaluate call gave a different report")


class GridAblate(TrainStman):
    """Same corpus and set-up as train-stman; ablate applies each
    variant's flags to the stman base config."""

    name = "grid-ablate"

    def call(self, state):
        cfg, split = state
        return evalcli.ablate(split, cfg, 1)

    def dialogues_per_call(self, state):
        cfg, split = state
        return len(training.VARIANTS) * len(split.train) * cfg.epochs

    def loss_after_n(self, state, result):
        finals = [v["runs"][0]["loss_curve"][-1] for v in result["variants"].values()]
        return float(np.mean(finals))

    def check(self, check, state, results):
        first = results[0]
        check(sorted(first["variants"]) == sorted(training.VARIANTS),
              "grid is missing variants")
        for name, entry in first["variants"].items():
            run = entry["runs"][0]
            check(_finite(*run["loss_curve"]), f"non-finite loss in {name}")
            check(0.0 <= run["use_accuracy"] <= 1.0, f"{name} accuracy outside [0, 1]")
        text = json.dumps(first, sort_keys=True)
        for r in results[1:]:
            check(json.dumps(r, sort_keys=True) == text,
                  "repeated ablate call gave a different report")


WORKLOADS = {w.name: w for w in (TrainStman, EvalStman, GridAblate)}
