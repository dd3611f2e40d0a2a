"""Metrics, baselines, config files, and the command-line surface."""

import json
import os

import numpy as np
import pytest

import stman.corpus as cp
import stman.evalcli as ev
import stman.training as tr
from oracles import accuracy_oracle, confusion_oracle, macro_f1_oracle


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert isinstance(report, dict)
    return report


# ----------------------------------------------------------------- metrics


def test_confusion_fixture_and_errors():
    cm = ev.confusion([0, 1, 2, 2], [0, 1, 1, 2], 3)
    assert cm.tolist() == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
    # a label outside 0..2 is named, on either side and at either end
    for preds, truths, bad in (([3], [0], "3"), ([0], [-1], "-1"), ([0, 1], [1, 5], "5"),
                               ([0.5], [0], "0.5")):
        with pytest.raises(ValueError, match=f"label {bad} outside"):
            ev.confusion(preds, truths, 3)
    with pytest.raises(ValueError):
        ev.confusion([0, 1], [0], 2)


def test_accuracy_fixture():
    assert ev.score_labels([0, 1, 2, 0], [0, 1, 1, 0], 3)["accuracy"] == pytest.approx(0.75)
    assert ev.score_labels([1], [1], 2)["accuracy"] == 1.0
    with pytest.raises(ValueError):
        ev.score_labels([], [], 3)
    with pytest.raises(ValueError):
        ev.score_labels([0], [0, 1], 3)


def test_macro_f1_fixtures():
    def macro_f1(preds, truths, k):
        return ev.score_labels(preds, truths, k)["macro_f1"]

    assert macro_f1([0, 1, 2], [0, 1, 2], 3) == pytest.approx(1.0)
    # class 1 half-recalled, class 2 half-precise, class 0 perfect
    assert macro_f1([0, 1, 2, 2], [0, 1, 1, 2], 3) == pytest.approx(7.0 / 9.0)
    assert macro_f1([0, 1, 2, 0], [0, 1, 1, 0], 3) == pytest.approx(5.0 / 9.0)
    # a class with no support contributes zero
    assert macro_f1([0, 0], [0, 0], 2) == pytest.approx(0.5)
    assert macro_f1([1], [1], 2) == pytest.approx(0.5)
    # total miss
    assert macro_f1([0, 0], [1, 1], 2) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        ev.score_labels([], [], 3)


def test_random_predictions_score_near_chance():
    rng = np.random.default_rng(0)
    truths = rng.integers(0, 3, size=10000).tolist()
    preds = rng.integers(0, 3, size=10000).tolist()
    assert abs(ev.score_labels(preds, truths, 3)["accuracy"] - 1.0 / 3.0) < 0.02


def assert_score_labels_matches_oracles(preds, truths, k):
    report = ev.score_labels(preds, truths, k)
    assert report["n"] == len(truths)
    assert report["confusion"] == confusion_oracle(truths, preds, k)
    assert report["accuracy"] == accuracy_oracle(truths, preds)
    assert report["macro_f1"] == pytest.approx(
        macro_f1_oracle(truths, preds, k), abs=1e-12)
    assert ev.score_labels(np.array(preds), np.array(truths), k) == report


def test_score_labels_agrees_with_counting_oracles():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        k = int(rng.integers(2, 6))
        # a narrow label range on one side leaves classes absent from it
        truths = rng.integers(0, int(rng.integers(1, k + 1)), size=n).tolist()
        preds = rng.integers(int(rng.integers(0, k)), k, size=n).tolist()
        assert_score_labels_matches_oracles(preds, truths, k)


def test_metrics_agree_with_counting_oracles():
    # labels drawn from every class on both sides
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(2, 5))
        truths = rng.integers(0, k, size=n).tolist()
        preds = rng.integers(0, k, size=n).tolist()
        assert np.array_equal(ev.confusion(preds, truths, k),
                              confusion_oracle(truths, preds, k))
        assert_score_labels_matches_oracles(preds, truths, k)


def test_score_labels_counts_narrow_integer_dtypes_without_overflow():
    # 19 * 20 + 19 wraps in uint8; the class indices are counted as intp
    truths = np.array([19, 19, 0, 7], dtype=np.uint8)
    preds = np.array([19, 3, 0, 7], dtype=np.int8)
    report = ev.score_labels(preds, truths, 20)
    assert report["confusion"] == confusion_oracle(truths.tolist(), preds.tolist(), 20)
    assert report["accuracy"] == 0.75
    mixed = ev.score_labels(preds.astype(np.int64), truths.astype(np.uint64), 20)
    assert mixed == report


@pytest.mark.parametrize("preds, truths, message", [
    ([0, 3], [0, 1], "outside"),
    ([0, 1], [0, -1], "outside"),
    ([0, 1], [0], "equal-length"),
    ([], [], "non-empty"),
    ([0.5, 1], [0, 1], "outside"),
])
def test_score_labels_rejects_bad_label_sequences(preds, truths, message):
    with pytest.raises(ValueError, match=message):
        ev.score_labels(preds, truths, 3)


def test_score_labels_is_internally_consistent():
    report = ev.score_labels([0, 1, 2, 2], [0, 1, 1, 2], 3)
    cm = np.array(report["confusion"])
    assert report["n"] == 4
    assert report["accuracy"] == pytest.approx(cm.trace() / cm.sum())
    assert len(report["per_class"]) == 3
    assert report["macro_f1"] == pytest.approx(
        sum(e["f1"] for e in report["per_class"]) / 3)


# --------------------------------------------------------------- baselines


def dialogue(did, sat, triples):
    return cp.Dialogue(did, sat, [cp.Utterance(s, ["word"], e)
                                  for s, e in triples])


def test_heuristic_baseline_uses_the_requested_end():
    d = dialogue("x", "well_satisfied",
                 [("user", "negative"), ("staff", "neutral"),
                  ("user", "positive")])
    initial = ev.heuristic_baseline("initial", [d])
    final = ev.heuristic_baseline("final", [d])
    # canonical map: negative -> unsatisfied, positive -> well_satisfied
    assert initial["accuracy"] == 0.0
    assert final["accuracy"] == 1.0
    assert initial["skipped"] == final["skipped"] == 0
    with pytest.raises(ValueError, match="mode"):
        ev.heuristic_baseline("middle", [d])


def test_heuristic_baseline_skips_userless_dialogues():
    with_user = dialogue("a", "met", [("user", "neutral")])
    staff_only = dialogue("b", "met", [("staff", "neutral")])
    report = ev.heuristic_baseline("final", [with_user, staff_only])
    assert report["n"] == 1
    assert report["skipped"] == 1
    with pytest.raises(ValueError, match="user"):
        ev.heuristic_baseline("final", [staff_only])


def test_final_sentiment_tracks_satisfaction_on_synthetic_data():
    dialogues = cp.generate_synthetic(600, correlation_q=0.9, seed=7)
    final = ev.heuristic_baseline("final", dialogues)
    initial = ev.heuristic_baseline("initial", dialogues)
    assert final["accuracy"] > 0.8  # generator couples these at rate q
    assert final["accuracy"] > initial["accuracy"]


def test_correlation_table_sums_and_placement():
    d = dialogue("x", "met", [("user", "positive")])
    table = ev.correlation_table([d])
    for mode in ("initial", "final"):
        cell = np.array(table[mode])
        assert cell.sum() == pytest.approx(1.0)
        assert cell[cp.SENTIMENTS.index("positive"),
                    cp.SATISFACTIONS.index("met")] == 1.0
    assert table["skipped"] == 0
    assert table["sentiments"] == list(cp.SENTIMENTS)


def test_correlation_table_matches_direct_recount():
    dialogues = cp.generate_synthetic(120, correlation_q=0.7, seed=9)
    table = ev.correlation_table(dialogues)
    counts = np.zeros((3, 3))
    for d in dialogues:
        last = [u for u in d.utterances if u.speaker == "user"][-1]
        counts[cp.SENTIMENTS.index(last.sentiment),
               cp.SATISFACTIONS.index(d.satisfaction)] += 1
    assert np.allclose(table["final"], counts / counts.sum())


# ----------------------------------------------------------- configuration


def test_load_config_parses_types_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "K = 8\n"
        "dropout=0.1\n"
        "use_td = false\n"
        "adv_fraction = 0.5\n"
        "seed=3\n")
    cfg = ev.load_config(path)
    assert cfg.K == 8 and cfg.dropout == 0.1 and cfg.seed == 3
    assert cfg.use_td is False
    assert cfg.adv_fraction == 0.5
    assert cfg.E == tr.ModelConfig().E  # untouched fields keep defaults


@pytest.mark.parametrize("line,fragment", [
    ("nonsense", "key=value"),
    ("width=8", "unknown key"),
    ("K=large", "expects int"),
    ("use_td=maybe", "true/false"),
    ("dropout=2.0", "dropout"),
    ("lr = inf", "lr must be finite"),
])
def test_load_config_rejects_bad_lines(tmp_path, line, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=fragment):
        ev.load_config(path)


def test_load_config_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("lr=0.1\nK=8\nlr=0.5\n")
    with pytest.raises(ValueError) as err:
        ev.load_config(path)
    assert str(err.value) == f"{path}: line 3: duplicate key 'lr' (first on line 1)"


def test_seed_precedence(tmp_path, monkeypatch):
    import argparse
    path = tmp_path / "run.cfg"
    path.write_text("seed=5\n")
    ns = lambda **kw: argparse.Namespace(config=str(path), seed=None,
                                         variant=None, **kw)
    monkeypatch.delenv("STMAN_SEED", raising=False)
    assert ev._resolve_config(ns()).seed == 5
    monkeypatch.setenv("STMAN_SEED", "7")
    assert ev._resolve_config(ns()).seed == 7
    args = ns()
    args.seed = 9
    assert ev._resolve_config(args).seed == 9  # flag beats the environment
    monkeypatch.setenv("STMAN_SEED", "many")
    with pytest.raises(ValueError, match="STMAN_SEED"):
        ev._resolve_config(ns())


def test_variant_flag_applies_after_config(tmp_path):
    import argparse
    path = tmp_path / "run.cfg"
    path.write_text("use_td=true\nuse_st=true\n")
    args = argparse.Namespace(config=str(path), seed=None, variant="basic")
    cfg = ev._resolve_config(args)
    assert cfg.use_td is False and cfg.use_st is False


def test_toy_setup_is_consistent():
    cfg, dialogues, vocab = ev.toy_setup()
    cfg.validate()
    assert len(dialogues) == 1
    assert len(vocab) == 9 + 2  # nine distinct tokens after UNK and PAD
    token_ids = dict(vocab.items())
    for u in dialogues[0].utterances:
        for tok in u.tokens:
            assert token_ids[tok] >= 2


# ------------------------------------------------------ experiment drivers


def tiny_config(**kw):
    base = dict(K=5, Z=3, H=3, D=5, E=3, dropout=0.0, lr=0.05, batch=8,
                epochs=1, seed=0)
    base.update(kw)
    return tr.ModelConfig(**base)


def test_ablate_reports_each_variant():
    corpus = cp.generate_synthetic(30, correlation_q=0.9, seed=11)
    split = cp.split_corpus(corpus, seed=11)
    report = ev.ablate(split, tiny_config(), n_seeds=2,
                       variants=["basic", "basic-aux"])
    assert set(report["variants"]) == {"basic", "basic-aux"}
    basic = report["variants"]["basic"]
    assert len(basic["runs"]) == 2
    assert {r["seed"] for r in basic["runs"]} == {0, 1}
    assert "median_sa_macro_f1" in basic
    assert "median_sa_macro_f1" not in report["variants"]["basic-aux"]
    with pytest.raises(ValueError):
        ev.ablate(split, tiny_config(), n_seeds=0)


def test_fraction_sweep_covers_zero_and_one():
    corpus = cp.generate_synthetic(30, correlation_q=0.9, seed=12)
    split = cp.split_corpus(corpus, seed=12)
    report = ev.fraction_sweep(split, [0.0, 1.0], tiny_config(), n_seeds=1)
    assert [e["fraction"] for e in report["fractions"]] == [0.0, 1.0]
    for entry in report["fractions"]:
        assert 0.0 <= entry["median_use_accuracy"] <= 1.0
    with pytest.raises(ValueError, match="fractions"):
        ev.fraction_sweep(split, [1.5], tiny_config(), n_seeds=1)
    with pytest.raises(ValueError, match="n_seeds"):
        ev.fraction_sweep(split, [0.5], tiny_config(), n_seeds=0)


# --------------------------------------------------------------------- CLI


def write_tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text("K=5\nZ=3\nH=3\nD=5\nE=3\ndropout=0.0\nlr=0.05\n"
                    "batch=8\nepochs=2\n")
    return str(path)


def test_cli_gen_data_is_reproducible(tmp_path, capsys):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert ev.main(["gen-data", "--n", "30", "--q", "0.8", "--seed", "1",
                    "--out", a]) == 0
    assert ev.main(["gen-data", "--n", "30", "--q", "0.8", "--seed", "1",
                    "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert len(cp.parse_corpus(a)) == 30
    assert "30 dialogues" in capsys.readouterr().out


def test_cli_train_eval_roundtrip(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STMAN_SEED", raising=False)
    corpus = str(tmp_path / "c.jsonl")
    ev.main(["gen-data", "--n", "40", "--q", "0.9", "--seed", "2",
             "--out", corpus])
    ckpt = str(tmp_path / "model.json")
    code = ev.main(["train", "--corpus", corpus, "--out", ckpt,
                    "--config", write_tiny_cfg(tmp_path), "--variant", "basic"])
    assert code == 0
    assert "best epoch" in capsys.readouterr().out
    params, cfg, _ = tr.load_checkpoint(ckpt)
    assert cfg.use_td is False and cfg.epochs == 2
    history = load_report(ckpt + ".history.json")
    assert len(history["history"]) == 2

    report_path = str(tmp_path / "report.json")
    code = ev.main(["eval", "--ckpt", ckpt, "--corpus", corpus,
                    "--out", report_path])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    stored = load_report(report_path)
    assert printed == stored
    assert stored["split"] == "test"
    assert stored["n_dialogues"] == 4
    assert 0.0 <= stored["use"]["accuracy"] <= 1.0
    assert ev.main(["eval", "--ckpt", ckpt, "--corpus", corpus,
                    "--split", "all"]) == 0


def test_cli_eval_rejects_vocabulary_of_another_size(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STMAN_SEED", raising=False)
    corpus = str(tmp_path / "c.jsonl")
    ev.main(["gen-data", "--n", "20", "--q", "0.9", "--seed", "4", "--out", corpus])
    ckpt = str(tmp_path / "model.json")
    assert ev.main(["train", "--corpus", corpus, "--out", ckpt,
                    "--config", write_tiny_cfg(tmp_path), "--variant", "basic"]) == 0
    _, _, vocab_size = tr.load_checkpoint(ckpt)
    grown = str(tmp_path / "grown.vocab")
    with open(ckpt + ".vocab", encoding="utf-8") as fh:
        text = fh.read()
    with open(grown, "w", encoding="utf-8") as fh:
        fh.write(text + f"zzz-extra\t{vocab_size}\n")
    capsys.readouterr()
    assert ev.main(["eval", "--ckpt", ckpt, "--corpus", corpus, "--vocab", grown]) == 1
    err = capsys.readouterr().err
    assert "grown.vocab" in err
    assert f"{vocab_size + 1}" in err and f"vocab_size {vocab_size}" in err
    # the vocabulary written beside the checkpoint still evaluates
    assert ev.main(["eval", "--ckpt", ckpt, "--corpus", corpus]) == 0


@pytest.mark.parametrize("payload, field", [
    ({"format": tr.CHECKPOINT_FORMAT}, "'config'"),
    (["not", "an", "object"], "JSON object"),
], ids=["format-only", "list"])
def test_cli_eval_reports_malformed_checkpoint_as_error(tmp_path, capsys, payload, field):
    corpus = str(tmp_path / "c.jsonl")
    ev.main(["gen-data", "--n", "10", "--q", "0.9", "--seed", "4", "--out", corpus])
    ckpt = tmp_path / "model.json"
    ckpt.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert ev.main(["eval", "--ckpt", str(ckpt), "--corpus", corpus]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ") and field in err
    assert "Traceback" not in err


def test_cli_train_reports_divergence_as_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STMAN_SEED", raising=False)
    corpus = str(tmp_path / "c.jsonl")
    ev.main(["gen-data", "--n", "20", "--q", "0.9", "--seed", "4", "--out", corpus])
    real_init = tr.init_params

    def nan_init(cfg, vocab_size):
        params = real_init(cfg, vocab_size)
        params["sa.b"][...] = np.nan
        return params

    monkeypatch.setattr(tr, "init_params", nan_init)
    ckpt = tmp_path / "model.json"
    capsys.readouterr()
    assert ev.main(["train", "--corpus", corpus, "--out", str(ckpt),
                    "--config", write_tiny_cfg(tmp_path), "--variant", "basic"]) == 1
    err = capsys.readouterr().err
    assert err == "error: epoch 0, batch 0, phase 2: objective is nan\n"
    assert not ckpt.exists()


def test_cli_ablate_and_sweep_and_analyze(tmp_path, capsys):
    corpus = str(tmp_path / "c.jsonl")
    ev.main(["gen-data", "--n", "30", "--q", "0.9", "--seed", "3",
             "--out", corpus])
    cfg = write_tiny_cfg(tmp_path)

    out = str(tmp_path / "ablate.json")
    assert ev.main(["ablate", "--corpus", corpus, "--seeds", "1",
                    "--config", cfg, "--out", out]) == 0
    table = capsys.readouterr().out
    for name in tr.VARIANTS:
        assert name in table
    assert set(load_report(out)["variants"]) == set(tr.VARIANTS)

    out = str(tmp_path / "sweep.json")
    assert ev.main(["sweep", "--corpus", corpus, "--fractions", "0,1",
                    "--seeds", "1", "--config", cfg, "--out", out]) == 0
    assert "fraction" in capsys.readouterr().out
    assert len(load_report(out)["fractions"]) == 2

    out = str(tmp_path / "analyze.json")
    assert ev.main(["analyze", "--corpus", corpus, "--out", out]) == 0
    assert "baseline" in capsys.readouterr().out
    report = load_report(out)
    assert report["n_dialogues"] == 30
    assert "correlation" in report and "baseline_final" in report


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--fractions", "0,x", "--seeds", "1"],
     "--fractions: could not convert string to float: 'x'"),
    (["sweep", "--fractions", "0,1.5", "--seeds", "1"],
     "--fractions: fractions must lie in [0, 1], got 1.5"),
    (["sweep", "--fractions", ",", "--seeds", "1"], "--fractions: no fractions given"),
    (["sweep", "--fractions", "0,1", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["ablate", "--seeds", "0"], "--seeds must be >= 1, got 0"),
], ids=["sweep-fraction-not-a-number", "sweep-fraction-above-one", "sweep-no-fraction",
        "sweep-no-seed", "ablate-no-seed"])
def test_cli_rejects_bad_flags_before_reading_the_corpus(tmp_path, capsys, argv, message):
    # the corpus does not exist: a check made after reading it would name the file
    corpus = str(tmp_path / "missing.jsonl")
    assert ev.main([*argv, "--corpus", corpus]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_rejects_unknown_arguments():
    with pytest.raises(SystemExit) as err:
        ev.main(["train", "--corpus", "x", "--out", "y", "--fast"])
    assert err.value.code == 2


def test_cli_reports_missing_files_as_errors(tmp_path, capsys):
    assert ev.main(["analyze", "--corpus", str(tmp_path / "nope.jsonl")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_grad_check_passes_at_tolerance(capsys, monkeypatch):
    checked = []
    real_batchify = cp.batchify

    def spy(*args):
        batches = real_batchify(*args)
        checked.extend(batches)
        return batches

    monkeypatch.setattr(cp, "batchify", spy)
    assert ev.main(["grad-check", "--seed", "0", "--tol", "1e-4"]) == 0
    out = capsys.readouterr().out
    assert "worst relative error" in out
    # one batch whose first dialogue is the shorter: packing reorders the
    # dialogues and leaves out a padded utterance
    (batch,) = checked
    lengths = batch.utt_valid.sum(axis=1)
    assert lengths[0] < lengths[1]


@pytest.mark.parametrize("command, args", [
    ("train", ["--out", "model.json"]),
    ("ablate", ["--seeds", "1"]),
    ("sweep", ["--fractions", "0", "--seeds", "1"]),
    ("analyze", []),
])
def test_cli_corpus_parse_error_names_the_file(tmp_path, capsys, command, args):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("{not json\n")
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    assert ev.main([command, "--corpus", str(corpus), *args]) == 1
    assert capsys.readouterr().err.startswith(f"error: {corpus}: line 1: invalid JSON: ")


def test_cli_eval_parse_errors_name_the_file(tmp_path, capsys):
    ckpt = str(tmp_path / "model.json")
    tr.save_checkpoint(ckpt, *_tiny_params(), 5)
    vocab = tmp_path / "good.vocab"
    vocab.write_text("a\t2\nb\t3\nc\t4\n")
    bad_vocab = tmp_path / "bad.vocab"
    bad_vocab.write_text("a\t2\nb\n")
    corpus = tmp_path / "c.jsonl"
    cp.write_corpus(cp.generate_synthetic(2, 0.5, seed=1), corpus)
    bad_corpus = tmp_path / "bad.jsonl"
    bad_corpus.write_text(corpus.read_text() + "{not json\n")

    argv = ["eval", "--ckpt", ckpt, "--split", "all"]
    assert ev.main([*argv, "--corpus", str(corpus), "--vocab", str(bad_vocab)]) == 1
    assert capsys.readouterr().err == f"error: {bad_vocab}: line 2: expected token<TAB>id\n"
    assert ev.main([*argv, "--corpus", str(bad_corpus), "--vocab", str(vocab)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad_corpus}: line 3: invalid JSON: ")
    assert ev.main([*argv, "--corpus", str(corpus), "--vocab", str(vocab)]) == 0


# ------------------------------------------------------------- artifacts


def _tiny_params():
    cfg = tr.ModelConfig(K=2, Z=2, H=2, D=2, E=2)
    return tr.init_params(cfg, 5), cfg


ARTIFACT_WRITERS = {
    "write_corpus": lambda path: cp.write_corpus(
        cp.generate_synthetic(2, 0.5, seed=1), path),
    "save_vocab": lambda path: cp.save_vocab(
        cp.build_vocab(cp.generate_synthetic(2, 0.5, seed=1)), path),
    "save_checkpoint": lambda path: tr.save_checkpoint(path, *_tiny_params(), 5),
    "_dump_json": lambda path: ev._dump_json({"a": 1}, path),
}


@pytest.mark.parametrize("writer", sorted(ARTIFACT_WRITERS))
def test_artifact_writer_failing_leaves_old_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact"
    path.write_bytes(b"old\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        ARTIFACT_WRITERS[writer](str(path))
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    monkeypatch.undo()
    ARTIFACT_WRITERS[writer](str(path))
    assert path.read_bytes() != b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
