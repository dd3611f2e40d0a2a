"""Instrumentation of the stman package from outside it, by replacing
module attributes while a probe is installed.

Untraced, a probe is only a step clock: it timestamps the start of each
step (``training.as_leaves``: every training step and every ``predict``
batch begins with one) and its end (the return of ``momentum_step`` for
a training step, the next batch or the return of ``predict`` for an
evaluation batch). That costs two clock reads per step.

Traced, it also records a span around each public function listed in
``TRACED``: name, start, end, parent span and the step it ran in. The
change in ``len(tape.nodes)`` across a call is its node count, and the
backward rules of the nodes a call created are wrapped so that backward
time is charged to the layer that recorded them. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

from stman import autodiff as ad
from stman import corpus as cp
from stman import encoder, evalcli, heads, interaction, training

now = time.perf_counter

# (owner, attribute, layer) for every function the traced run wraps.
TRACED = [
    (cp, "batchify", "corpus.batchify"),
    (encoder, "encode_grid", "encoder"),
    (interaction, "run_interaction", "interaction"),
    (interaction, "project", "interaction"),
    (heads, "use_decode_steps", "heads.task"),
    (heads, "sa_decode", "heads.task"),
    (heads, "discriminate_steps", "heads.td"),
    (training, "task_loss", "training.loss"),
    (training, "adv_loss", "training.loss"),
    (training, "momentum_step", "training.momentum"),
    (training, "train", "training.train"),
    (training, "evaluate", "training.evaluate"),
    (training, "predict", "training.predict"),
    (training, "load_checkpoint", "training.ckpt_load"),
    (evalcli, "score_labels", "evalcli.score"),
    (evalcli, "ablate", "evalcli.grid"),
    (ad.Tape, "backward", "autodiff.backward"),
]

# layers whose forward and backward time and node counts are per step
FWD_LAYERS = ("encoder", "interaction", "heads.task", "heads.td", "training.loss")

_NAME, _START, _END, _PARENT, _STEP, _NODES = range(6)


class _TimedRule:
    """A node's backward rule, charging its run time to one layer."""

    __slots__ = ("rule", "layer", "totals")

    def __init__(self, rule, layer, totals):
        self.rule = rule
        self.layer = layer
        self.totals = totals

    def __call__(self):
        t0 = now()
        self.rule()
        self.totals[self.layer] += now() - t0


class Probe:
    """Install with ``with probe:``; the package is restored on exit."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.steps: list[list] = []  # [kind, start, end]
        self.spans: list[list] = []  # [name, start, end, parent, step, nodes]
        self.bwd_s: dict[str, float] = defaultdict(float)
        self.tape_nodes = 0
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self.slots = {"tok_real": 0, "tok": 0, "utt_real": 0, "utt": 0}
        self._open: int | None = None
        self._predict_depth = 0
        self._stack: list[int] = []
        self._tapes: list = []
        self._gc_t0 = 0.0
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ steps

    def _start_step(self, *_args):
        t = now()
        kind = "predict" if self._predict_depth else "train"
        if self._open is not None:
            self.steps[self._open][2] = t
        self.steps.append([kind, t, t])
        self._open = len(self.steps) - 1

    def _end_step(self, *_args):
        if self._open is not None:
            self.steps[self._open][2] = now()
            self._open = None

    def _enter_predict(self, *_args):
        self._end_step()
        self._predict_depth += 1

    def _leave_predict(self, *_args):
        self._end_step()
        self._predict_depth -= 1

    # ------------------------------------------------------------ hooks

    def _count_slots(self, batches):
        for b in batches:
            self.slots["tok_real"] += int(b.tok_valid.sum())
            self.slots["tok"] += b.tok_valid.size
            self.slots["utt_real"] += int(b.utt_valid.sum())
            self.slots["utt"] += b.utt_valid.size

    def _count_tape(self, tape, *_args):
        self.tape_nodes += len(tape.nodes)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = now()
        else:
            self.gc_s += now() - self._gc_t0
            self.gc_gen2 += info["generation"] == 2

    def _tape_enter(self, orig):
        def enter(tape):
            self._tapes.append(tape)
            return orig(tape)
        return enter

    def _tape_exit(self, orig):
        def exit_(tape, *exc):
            self._tapes.pop()
            return orig(tape, *exc)
        return exit_

    # ----------------------------------------------------------- wrappers

    def _plain(self, orig, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            try:
                return orig(*args, **kwargs)
            finally:
                if after is not None:
                    after()
        return wrapper

    def _span(self, orig, layer, before=None, after=None, on_result=None):
        spans, stack, tapes = self.spans, self._stack, self._tapes
        totals = self.bwd_s

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            tape = tapes[-1] if tapes else None
            n0 = len(tape.nodes) if tape is not None else 0
            span = [layer, now(), 0.0, stack[-1] if stack else -1, self._open, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = orig(*args, **kwargs)
            finally:
                span[_END] = now()
                stack.pop()
                if after is not None:
                    after()
            if tape is not None:
                created = tape.nodes[n0:]
                span[_NODES] = len(created)
                for node in created:
                    rule = node.backward_rule
                    if rule is not None and not isinstance(rule, _TimedRule):
                        node.backward_rule = _TimedRule(rule, layer, totals)
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Probe":
        hooks = {
            "momentum_step": (None, self._end_step),
            "predict": (self._enter_predict, self._leave_predict),
        }
        self._patch(training, "as_leaves",
                    self._plain(training.as_leaves, before=self._start_step))
        if not self.traced:
            for attr, (before, after) in hooks.items():
                self._patch(training, attr,
                            self._plain(getattr(training, attr), before, after))
            return self
        hooks["backward"] = (self._count_tape, None)
        for owner, attr, layer in TRACED:
            before, after = hooks.get(attr, (None, None))
            on_result = self._count_slots if attr == "batchify" else None
            self._patch(owner, attr, self._span(owner.__dict__[attr], layer,
                                                before, after, on_result))
        self._patch(ad.Tape, "__enter__", self._tape_enter(ad.Tape.__enter__))
        self._patch(ad.Tape, "__exit__", self._tape_exit(ad.Tape.__exit__))
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> bool:
        if self.traced:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False

    # ------------------------------------------------------------ results

    def step_ms(self, kind: str) -> list[float]:
        return [(end - start) * 1e3 for k, start, end in self.steps if k == kind]

    def layer_metrics(self, kind: str, n_calls: int, n_setups: int) -> dict:
        """Per-layer values from the recorded spans; see layers.py for
        the normalisation of each."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        child_n = [0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_s[s[_PARENT]] += s[_END] - s[_START]
                child_n[s[_PARENT]] += s[_NODES]
        step_self = defaultdict(float)
        step_nodes = defaultdict(int)
        total = defaultdict(float)
        self_total = defaultdict(float)
        for i, s in enumerate(spans):
            dur = s[_END] - s[_START]
            total[s[_NAME]] += dur
            self_total[s[_NAME]] += dur - child_s[i]
            if s[_STEP] is not None and self.steps[s[_STEP]][0] == kind:
                step_self[s[_NAME]] += dur - child_s[i]
                step_nodes[s[_NAME]] += s[_NODES] - child_n[i]

        n_steps = max(len(self.step_ms(kind)), 1)
        n_calls = max(n_calls, 1)
        per_step = 1e3 / n_steps
        per_call = 1e3 / n_calls
        out = {}
        for layer in FWD_LAYERS:
            out[f"{layer}.fwd_ms"] = step_self[layer] * per_step
            out[f"{layer}.bwd_ms"] = self.bwd_s[layer] * per_step
            out[f"{layer}.nodes"] = step_nodes[layer] / n_steps
        out["corpus.batchify_ms"] = total["corpus.batchify"] * per_call
        slots = self.slots
        out["corpus.tok_real_share"] = slots["tok_real"] / max(slots["tok"], 1)
        out["corpus.utt_real_share"] = slots["utt_real"] / max(slots["utt"], 1)
        out["autodiff.backward_ms"] = step_self["autodiff.backward"] * per_step
        out["autodiff.nodes_per_step"] = self.tape_nodes / n_steps
        out["autodiff.gc_ms"] = self.gc_s * per_call
        out["autodiff.gc_gen2"] = self.gc_gen2 / n_calls
        out["training.momentum_ms"] = step_self["training.momentum"] * per_step
        out["training.dev_eval_ms"] = total["training.evaluate"] * per_call
        out["training.predict_ms"] = total["training.predict"] * per_call
        out["evalcli.score_ms"] = total["evalcli.score"] * per_call
        out["training.ckpt_load_ms"] = total["training.ckpt_load"] * 1e3 / max(n_setups, 1)
        out["evalcli.grid_self_ms"] = self_total["evalcli.grid"] * per_call
        return out

    def span_records(self) -> list[dict]:
        return [{"name": s[_NAME], "start": s[_START], "end": s[_END],
                 "parent": s[_PARENT], "step": s[_STEP], "nodes": s[_NODES]}
                for s in self.spans]
