"""Every name in a stman module's __all__ is an attribute of the module,
so a star import never fails on a stale entry; every autodiff op has a
caller in the package; and the task and adversarial forwards record a
tape whose size does not grow with the dialogue length."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import stman
import stman.autodiff as ad
import stman.corpus as cp
import stman.training as tr

MODULES = sorted(m.name for m in pkgutil.iter_modules(stman.__path__))

# the tape, the node types and the errors are no ops
NOT_OPS = {"Tape", "Node", "leaf", "constant", "ShapeError", "ContractError"}


def test_every_module_is_listed():
    assert {"autodiff", "corpus", "encoder", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"stman.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_autodiff_op_is_called_by_another_module():
    source = "".join(Path(importlib.import_module(f"stman.{name}").__file__).read_text()
                     for name in MODULES if name != "autodiff")
    ops = [n for n in ad.__all__ if n not in NOT_OPS]
    assert [op for op in ops if not re.search(rf"\bad\.{op}\(", source)] == []


def _dialogue(did, n_utterances):
    speakers = [cp.SPEAKERS[t % 2] for t in range(n_utterances)]
    utts = [cp.Utterance(sp, ["w", str(t)], "neutral")
            for t, sp in enumerate(speakers)]
    return cp.Dialogue(did, "met", utts)


@pytest.mark.parametrize("forward", ["forward_task", "forward_adv"])
def test_forward_tape_size_does_not_grow_with_dialogue_length(forward):
    cfg = tr.ModelConfig(K=3, Z=2, H=2, D=2, E=2)
    short = [_dialogue("a", 2), _dialogue("b", 3)]
    long = [_dialogue("c", 2), _dialogue("d", 12)]
    vocab = cp.build_vocab(short + long)
    params = tr.init_params(cfg, len(vocab))
    sizes = []
    for dialogues in (short, long):
        (batch,) = cp.batchify(dialogues, vocab, 2)
        with ad.Tape() as tape:
            getattr(tr, forward)(tr.as_leaves(params), batch, cfg)
        sizes.append((batch.utt_valid.shape[1], len(tape.nodes)))
    assert [L for L, _ in sizes] == [3, 12]
    assert sizes[0][1] == sizes[1][1]
