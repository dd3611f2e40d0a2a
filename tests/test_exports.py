"""Every name in a stman module's __all__ is an attribute of the module,
so a star import never fails on a stale entry, and is used by code
outside the tests; every autodiff op has a caller in the package; and
the task and adversarial forwards record a tape whose size does not
grow with the dialogue length; importing the evaluation and training
modules does not load ``numpy.random``; and importing the package does
not load OpenSSL, while its sha256 digests stay those of ``hashlib``."""

import ast
import hashlib
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stman
import stman.autodiff as ad
import stman.corpus as cp
import stman.rngs as rngs
import stman.training as tr

MODULES = sorted(m.name for m in pkgutil.iter_modules(stman.__path__))

# the tape, the node and layout types and the errors are no ops
NOT_OPS = {"Tape", "Node", "Record", "Packing", "leaf", "constant", "ShapeError",
           "ContractError"}


def test_every_module_is_listed():
    assert {"autodiff", "corpus", "encoder", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"stman.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# public names whose first caller outside the tests is still to come
NO_CALLER_YET = {
    # its first planned caller is the training telemetry (ROADMAP item 1)
    ("training", "discriminator_accuracy"),
}


def test_every_public_name_has_a_caller_outside_the_tests():
    repo = Path(__file__).resolve().parents[1]
    files = [*(repo / "src" / "stman").glob("*.py"),
             *(p for p in (repo / "perfbench").glob("*.py")
               if not p.name.startswith("test_"))]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [(name, n) for name in MODULES
              for n in importlib.import_module(f"stman.{name}").__all__
              if n not in used and (name, n) not in NO_CALLER_YET]
    assert unused == []


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


def test_importing_the_evaluation_and_training_modules_leaves_numpy_random_unloaded():
    """numpy loads ``numpy.random`` lazily; a process that only evaluates
    draws no random number and should not pay for it."""
    src = str(Path(stman.__file__).resolve().parents[1])
    code = ("import sys, stman.evalcli, stman.training; "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "False"


def test_importing_the_package_leaves_openssl_unloaded():
    """``hashlib`` loads OpenSSL (``_hashlib``), a few MB of resident
    memory; the package hashes with the interpreter's own sha256. A fresh
    interpreter, since the test runner has loaded ``hashlib`` itself."""
    src = str(Path(stman.__file__).resolve().parents[1])
    code = "import sys, stman.evalcli; print('_hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "False"


def test_the_package_sha256_gives_hashlib_digests():
    for data in (b"", b"init", bytes(range(256)) * 9):
        assert rngs._sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    h = rngs._sha256()
    h.update(b"enc.")
    h.update(b"W")
    assert h.digest() == hashlib.sha256(b"enc.W").digest()
