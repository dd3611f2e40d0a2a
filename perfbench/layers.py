"""What the benchmark measures, and which end-to-end metric each layer
metric should move on which workload.

Every workload reports every end-to-end metric; one name covers the same
quantity on each workload:

- ``dlg_per_s``: dialogues handled per second of timed calls, over all
  the calls of a run. On the training workloads that is training
  dialogues x epochs over ``train`` wall time; on ``eval-stman``
  evaluated dialogues over ``evaluate`` wall time; on ``grid-ablate``
  training dialogues x epochs x variants over ``ablate`` wall time.
- ``step_ms_p50`` / ``step_ms_p90``: one step. In training (``train-*``
  and every run of the grid) a step is one forward, backward and
  momentum update on one batch: Phase-1 minimization, Phase-1
  maximization and Phase-2 steps each count once. On ``eval-stman`` it
  is one evaluation batch inside ``predict``.
- ``loss_after_n``: mean task loss of the last epoch (training
  workloads), mean of the six variants' last-epoch task losses
  (``grid-ablate``), or the checkpoint's mean task loss on the fixed
  check sample (``eval-stman``). Deterministic for a seed.
- ``peak_rss_mb``: the process's peak resident set size. Only one
  set-up's state is alive at a time, however often a run sets up.
- ``setup_s``: median of several set-ups in one run: corpus load and
  split on the training workloads (``train`` builds the vocabulary and
  initial parameters itself, so they are timed in the call), checkpoint,
  vocabulary and corpus load on ``eval-stman``.

Failed output checks and non-finite losses are the ``failed`` count of
the result line, over ``attempted`` (steps run plus checks made).

Layer metrics come from the traced run. ``per`` says how a value is
normalised: ``step`` values are totals over the run's steps divided by
the number of steps, ``call`` values are totals divided by the number of
timed calls, ``setup`` values by the number of set-ups. A layer that does
no work on a workload reads 0 there; ``not_on`` lists where that is the
prediction, and the schema test checks that every metric reads non-zero
on each workload of its ``on`` list and zero on each of its ``not_on``.
"""

from __future__ import annotations

WORKLOADS = ("train-stman", "eval-stman", "grid-ablate")

DEFAULT_SEED = 0
# Seed kept out of tuning: a later speed claim must also hold on it.
HELDOUT_SEED = 7919

_TRAIN = ["train-stman", "grid-ablate"]
_STEP = ["step_ms_p50", "step_ms_p90"]


def _layer(unit, better, per, moves, on, not_on=()):
    return {"unit": unit, "better": better, "per": per, "moves": list(moves),
            "on": list(on), "not_on": list(not_on)}


def _fwd_bwd_nodes(prefix, moves, on, not_on=()):
    # evaluation runs the forward without a tape: it records no nodes and
    # runs no backward
    taped = [w for w in on if w != "eval-stman"]
    untaped = [w for w in WORKLOADS if w in not_on or w in on and w not in taped]
    return {
        f"{prefix}.fwd_ms": _layer("ms", "lower", "step", moves, on, not_on),
        f"{prefix}.bwd_ms": _layer("ms", "lower", "step", moves, taped, untaped),
        f"{prefix}.nodes": _layer("count", "lower", "step", moves, taped, untaped),
    }


_GRID_ON = (["dlg_per_s"], ["grid-ablate"], ["train-stman", "eval-stman"])

LAYERS = {
    "corpus.batchify_ms": _layer("ms", "lower", "call", ["dlg_per_s"], WORKLOADS),
    "corpus.tok_real_share": _layer("ratio", "higher", "call", ["dlg_per_s"], WORKLOADS),
    "corpus.utt_real_share": _layer("ratio", "higher", "call", ["dlg_per_s"], WORKLOADS),
    **_fwd_bwd_nodes("encoder", _STEP + ["dlg_per_s"], WORKLOADS),
    **_fwd_bwd_nodes("interaction", _STEP, WORKLOADS),
    # use_decode_steps + sa_decode
    **_fwd_bwd_nodes("heads.task", _STEP, WORKLOADS),
    # discriminate_steps; evaluation never runs the discriminator
    **_fwd_bwd_nodes("heads.td", ["dlg_per_s"], _TRAIN, ["eval-stman"]),
    # task_loss + adv_loss; predict builds a loss it never uses
    **_fwd_bwd_nodes("training.loss", _STEP, WORKLOADS),
    "autodiff.backward_ms": _layer("ms", "lower", "step", _STEP, _TRAIN, ["eval-stman"]),
    "autodiff.nodes_per_step": _layer("count", "lower", "step", _STEP, _TRAIN,
                                      ["eval-stman"]),
    # collections seen through gc.callbacks during the timed calls
    "autodiff.gc_ms": _layer("ms", "lower", "call", ["peak_rss_mb", "step_ms_p90"],
                             _TRAIN, ["eval-stman"]),
    "autodiff.gc_gen2": _layer("count", "lower", "call", ["peak_rss_mb", "step_ms_p90"],
                               _TRAIN, ["eval-stman"]),
    "training.momentum_ms": _layer("ms", "lower", "step", _STEP, _TRAIN, ["eval-stman"]),
    "training.dev_eval_ms": _layer("ms", "lower", "call", ["dlg_per_s"], WORKLOADS),
    "training.predict_ms": _layer("ms", "lower", "call", ["dlg_per_s"], WORKLOADS),
    "evalcli.score_ms": _layer("ms", "lower", "call", ["dlg_per_s"], WORKLOADS),
    "training.ckpt_load_ms": _layer("ms", "lower", "setup", ["setup_s"], ["eval-stman"],
                                    _TRAIN),
    # ablate's own time, outside the trainings and evaluations it runs
    "evalcli.grid_self_ms": _layer("ms", "lower", "call", *_GRID_ON),
    # process plus child CPU time over wall time x cores, untraced call
    "evalcli.grid_cpu_share": _layer("ratio", "higher", "call", *_GRID_ON),
    # traced call wall time over untraced call wall time, minus one
    "trace.overhead_share": _layer("ratio", "lower", "call", [], WORKLOADS),
}

# Per-workload names for the end-to-end metrics: the metric of this
# benchmark that carries each, and on which workloads. grid_s is
# 6 x training dialogues x epochs / dlg_per_s; fail_share is
# failed / attempted of the result line.
METRIC_ALIASES = {
    "train_dlg_per_s": ("dlg_per_s", ["train-stman"]),
    "eval_dlg_per_s": ("dlg_per_s", ["eval-stman"]),
    "step_ms_p50": ("step_ms_p50", _TRAIN),
    "step_ms_p90": ("step_ms_p90", _TRAIN),
    "eval_batch_ms_p50": ("step_ms_p50", ["eval-stman"]),
    "eval_batch_ms_p90": ("step_ms_p90", ["eval-stman"]),
    "grid_s": ("dlg_per_s", ["grid-ablate"]),
    "loss_after_n": ("loss_after_n", ["train-stman"]),
    "peak_rss_mb": ("peak_rss_mb", WORKLOADS),
    "setup_s": ("setup_s", WORKLOADS),
    "fail_share": (None, WORKLOADS),
}
