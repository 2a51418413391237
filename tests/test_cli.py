"""End-to-end command-line behavior: transform, train, eval, gradcheck."""

import hashlib
import json
import math

import numpy as np
import pytest

from twistnet.cli import main, normalize_approach, parse_run_config
from twistnet.data import Dataset, load_csv, save_csv, stratified_split, synth_interaction
from twistnet.errors import ConfigError
from twistnet.featcomb import (
    MULTIPLICATIVE,
    PAIRWISE_SUM,
    CombinationSpec,
    transform_dataset,
)
from twistnet.data import PRODUCT_SIGN
from twistnet.ndcore import Rng


@pytest.fixture
def train_csv(tmp_path):
    ds = synth_interaction(60, 4, PRODUCT_SIGN, 0.1, Rng(0))
    path = tmp_path / "train.csv"
    save_csv(ds, path)
    return path


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# run-config overrides that between them take every preprocessing branch
RUN_VARIANTS = {
    "default": {},
    "raw": {"combination": None},
    "pairwise_m3": {"combination": {"m": 3, "approach": "pairwise", "augment_original": True,
                                    "append_global_interaction": True}},
}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_normalize_approach_tokens():
    assert normalize_approach("mult") == MULTIPLICATIVE
    assert normalize_approach("multiplicative") == MULTIPLICATIVE
    assert normalize_approach("pairwise") == PAIRWISE_SUM
    assert normalize_approach("pairwise_sum") == PAIRWISE_SUM
    with pytest.raises(ConfigError):
        normalize_approach("cartesian")


def test_parse_run_config_defaults():
    rc = parse_run_config({"dataset": "d.csv", "label_column": "label"})
    assert rc.kind == "tcn" and rc.seed == 0 and rc.output_dir == "."
    assert rc.combination == CombinationSpec()  # combining is the default
    assert rc.model.hidden1 == 20 and rc.train.max_epochs == 200


def test_parse_run_config_null_combination():
    rc = parse_run_config({"dataset": "d.csv", "label_column": 0, "combination": None})
    assert rc.combination is None


def test_parse_run_config_seed_propagates():
    rc = parse_run_config({"dataset": "d.csv", "label_column": "y", "seed": 9})
    assert rc.seed == 9 and rc.model.seed == 9 and rc.train.seed == 9


def test_parse_run_config_collects_every_problem():
    doc = {
        "dataset": "d.csv",
        "label_column": "y",
        "kind": "svm",
        "model": {"hiden1": 5},
        "train": {"learning_rat": 0.01, "batch_size": "ten"},
    }
    with pytest.raises(ConfigError) as exc:
        parse_run_config(doc)
    msg = str(exc.value)
    assert "hiden1" in msg and "did you mean 'hidden1'" in msg
    assert "learning_rat" in msg and "did you mean 'learning_rate'" in msg
    assert "batch_size" in msg and "int" in msg
    assert "svm" in msg


def test_parse_run_config_requires_dataset_and_label():
    with pytest.raises(ConfigError) as exc:
        parse_run_config({"train": {}})
    msg = str(exc.value)
    assert "dataset" in msg and "label_column" in msg
    with pytest.raises(ConfigError):
        parse_run_config(["not", "an", "object"])


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def test_transform_default_header_and_values(tmp_path, train_csv):
    out = tmp_path / "combined.csv"
    assert main(["transform", "--input", str(train_csv), "--output", str(out),
                 "--label-column", "label"]) == 0
    ds = load_csv(train_csv, "label")
    back = load_csv(out, "label")
    assert back.feature_names == [
        "comb_0_1", "comb_0_2", "comb_0_3", "comb_1_2", "comb_1_3", "comb_2_3",
    ]
    want = transform_dataset(ds.features, CombinationSpec(m=2)).values
    assert np.array_equal(back.features, want)  # repr round trip is exact
    assert back.labels.tolist() == ds.labels.tolist()
    assert back.class_names == ds.class_names


def test_transform_pairwise_m3(tmp_path, train_csv):
    out = tmp_path / "pair.csv"
    assert main(["transform", "--input", str(train_csv), "--output", str(out),
                 "--label-column", "label", "--m", "3", "--approach", "pairwise"]) == 0
    ds = load_csv(train_csv, "label")
    back = load_csv(out, "label")
    assert len(back.feature_names) == math.comb(4, 3)
    want = transform_dataset(
        ds.features, CombinationSpec(m=3, approach=PAIRWISE_SUM)
    ).values
    assert np.array_equal(back.features, want)


def test_transform_augment_original(tmp_path, train_csv):
    out = tmp_path / "aug.csv"
    assert main(["transform", "--input", str(train_csv), "--output", str(out),
                 "--label-column", "label", "--augment-original"]) == 0
    back = load_csv(out, "label")
    assert back.feature_names[-4:] == ["x0", "x1", "x2", "x3"]
    assert back.n_features == 6 + 4


def test_transform_m_too_large(tmp_path, train_csv, capsys):
    out = tmp_path / "never.csv"
    code = main(["transform", "--input", str(train_csv), "--output", str(out),
                 "--label-column", "label", "--m", "9"])
    assert code == 1
    assert "m" in capsys.readouterr().err
    assert not out.exists()


def test_transform_missing_input(tmp_path, capsys):
    code = main(["transform", "--input", str(tmp_path / "nope.csv"),
                 "--output", str(tmp_path / "o.csv"), "--label-column", "label"])
    assert code == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def run_train(tmp_path, train_csv, outdir, extra=None, argv_extra=()):
    doc = {
        "dataset": str(train_csv),
        "label_column": "label",
        "output_dir": str(tmp_path / outdir),
        "train": {"max_epochs": 12},
    }
    if extra:
        doc.update(extra)
    cfg = write_config(tmp_path, doc, name=f"{outdir}.json")
    code = main(["train", "--config", str(cfg), *argv_extra])
    return code, tmp_path / outdir


def test_train_writes_results_and_checkpoint(tmp_path, train_csv, capsys):
    code, outdir = run_train(tmp_path, train_csv, "run1")
    assert code == 0
    results = json.loads((outdir / "results.json").read_text())
    assert set(results) == {
        "config", "history", "final_metrics", "wall_time_seconds", "rng_algorithm",
    }
    assert results["rng_algorithm"] == "splitmix64"
    assert results["config"]["combination"]["m"] == 2
    assert results["config"]["train"]["max_epochs"] == 12
    assert "seed" not in results["config"]["train"]  # lives at top level only
    assert len(results["history"]) == results["final_metrics"]["stopped_epoch"]
    fm = results["final_metrics"]
    assert set(fm) == {
        "train_accuracy", "train_loss", "val_accuracy", "val_loss",
        "best_epoch", "stopped_epoch",
    }
    assert 0.0 <= fm["train_accuracy"] <= 1.0
    # the final-metrics line on stdout matches the file
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == fm
    ckpt = json.loads((outdir / "checkpoint.json").read_text())
    assert ckpt["kind"] == "tcn" and ckpt["rng_algorithm"] == "splitmix64"


def test_train_deterministic_outputs(tmp_path, train_csv):
    # same config, run twice into the same place: everything but the wall
    # clock must come out byte-identical
    code_a, outdir = run_train(tmp_path, train_csv, "det")
    assert code_a == 0
    first_ckpt = (outdir / "checkpoint.json").read_text()
    first_results = (outdir / "results.json").read_text()
    code_b, _ = run_train(tmp_path, train_csv, "det")
    assert code_b == 0
    assert (outdir / "checkpoint.json").read_text() == first_ckpt
    lines_a = first_results.splitlines()
    lines_b = (outdir / "results.json").read_text().splitlines()
    assert len(lines_a) == len(lines_b)
    diff = [(a, b) for a, b in zip(lines_a, lines_b) if a != b]
    for a, b in diff:
        assert "wall_time_seconds" in a and "wall_time_seconds" in b
    assert len(diff) <= 1


def test_train_seed_override_changes_model(tmp_path, train_csv):
    _, dir_a = run_train(tmp_path, train_csv, "seed0")
    _, dir_b = run_train(tmp_path, train_csv, "seed1", argv_extra=("--seed", "1"))
    results_b = json.loads((dir_b / "results.json").read_text())
    assert results_b["config"]["seed"] == 1
    assert (dir_a / "checkpoint.json").read_text() != (dir_b / "checkpoint.json").read_text()


def test_train_without_combination(tmp_path, train_csv):
    code, outdir = run_train(tmp_path, train_csv, "rawrun", extra={"combination": None})
    assert code == 0
    ckpt = json.loads((outdir / "checkpoint.json").read_text())
    assert ckpt["combination"] is None and ckpt["subsets"] is None
    assert ckpt["layers"][0]["shape"][0][1] == 4  # raw width, no expansion


def test_train_config_errors_exit_1(tmp_path, train_csv, capsys):
    cfg = write_config(tmp_path, {"dataset": str(train_csv), "label_column": "label",
                                  "train": {"learning_rat": 0.01}}, name="bad.json")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "learning_rate" in capsys.readouterr().err
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert main(["train", "--config", str(broken)]) == 1


def test_train_missing_dataset_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dataset": str(tmp_path / "ghost.csv"),
                                  "label_column": "label"}, name="ghost.json")
    assert main(["train", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def trained(tmp_path, train_csv):
    code, outdir = run_train(tmp_path, train_csv, "for_eval")
    assert code == 0
    return outdir / "checkpoint.json", json.loads((outdir / "results.json").read_text())


def test_eval_reproduces_training_metrics(tmp_path, train_csv, capsys):
    # train and eval share one preprocessing path, so the numbers agree bit for bit
    for variant, extra in RUN_VARIANTS.items():
        code, outdir = run_train(tmp_path, train_csv, variant, extra=extra)
        assert code == 0
        results = json.loads((outdir / "results.json").read_text())
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(outdir / "checkpoint.json"),
                     "--input", str(train_csv)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"accuracy", "mean_loss", "confusion"}
        fm = results["final_metrics"]
        assert report["accuracy"] == fm["train_accuracy"], variant
        assert report["mean_loss"] == fm["train_loss"], variant
        assert sum(sum(row) for row in report["confusion"]) == 60


# sha256 of checkpoint.json, of results.json less its wall_time_seconds line,
# and of eval's stdout on the training CSV, for each of RUN_VARIANTS trained
# 12 epochs on train_csv. Golden values: a change that is not meant to move
# the numerics must leave every one of these bytes as it is.
PINNED_SHA256 = {
    "default": (
        "7c65220b429b0429246041c5b7627f4ceaaaebf808693ba8749a2536f0eef72b",
        "11fbe5d6897bb349874a55688a949eb149dbd7bd4d4b5b9b9e0ef50ddd4ad924",
        "a6f727905db5f7757ac7d8cc69c58b10b065405d7ae5d78158b40790d4c9b26b",
    ),
    "raw": (
        "2f1349e48df3783d80a57d88f8bed4f496938dc7bb312077b06f1d088f1682a6",
        "80fb99d7b4390b84726007df27c6a00c8eb75468dbea13910f7218477627c5ac",
        "c386a105ac722bff68186a3f12780e6e487940fab4f181f1f2598f2104ebcb6b",
    ),
    "pairwise_m3": (
        "6471873644c276b1bab4e70706e028571f79aee8e463eeb2007b3b394c65d4e1",
        "d56d626e3c0d7b7c9ea7e54efb40a1151d6e3a8f29402af74efa57f4acd03375",
        "45d34f5387e80716075b30d3d5e939ea359f5dbef5a395853ec8c79ead73d8fe",
    ),
}


@pytest.mark.parametrize("variant", sorted(RUN_VARIANTS))
def test_outputs_match_pinned_bytes(tmp_path, train_csv, monkeypatch, capsys, variant):
    monkeypatch.chdir(tmp_path)  # relative paths keep results.json free of tmp_path
    cfg = write_config(tmp_path, {"dataset": train_csv.name, "label_column": "label",
                                  "output_dir": variant, "train": {"max_epochs": 12},
                                  **RUN_VARIANTS[variant]})
    assert main(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", f"{variant}/checkpoint.json",
                 "--input", train_csv.name]) == 0
    results = (tmp_path / variant / "results.json").read_bytes().splitlines(keepends=True)
    got = [
        (tmp_path / variant / "checkpoint.json").read_bytes(),
        b"".join(line for line in results if b'"wall_time_seconds"' not in line),
        capsys.readouterr().out.encode(),
    ]
    assert tuple(hashlib.sha256(b).hexdigest() for b in got) == PINNED_SHA256[variant]


def test_eval_accepts_permuted_columns(tmp_path, train_csv, capsys):
    ckpt, _ = trained(tmp_path, train_csv)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(train_csv)]) == 0
    base = capsys.readouterr().out
    ds = load_csv(train_csv, "label")
    perm = [2, 0, 3, 1]
    shuffled = Dataset(ds.features[:, perm], ds.labels, ds.class_names,
                       [ds.feature_names[i] for i in perm], label_name=ds.label_name)
    shuffled_csv = tmp_path / "shuffled.csv"
    save_csv(shuffled, shuffled_csv)
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(shuffled_csv)]) == 0
    assert capsys.readouterr().out == base


def test_eval_missing_column_exit_2(tmp_path, train_csv, capsys):
    ckpt, _ = trained(tmp_path, train_csv)
    ds = load_csv(train_csv, "label")
    narrowed = Dataset(ds.features[:, :3], ds.labels, ds.class_names,
                       ds.feature_names[:3], label_name=ds.label_name)
    narrow_csv = tmp_path / "narrow.csv"
    save_csv(narrowed, narrow_csv)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(narrow_csv)]) == 2
    assert "x3" in capsys.readouterr().err


def write_non_finite_csv(tmp_path, train_csv):
    """train_csv with its third data row's x1 cell set to nan."""
    lines = train_csv.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = "nan"
    lines[3] = ",".join(cells)
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_non_finite_cell_exits_2(tmp_path, train_csv, capsys):
    nan_csv = write_non_finite_csv(tmp_path, train_csv)
    code, outdir = run_train(tmp_path, nan_csv, "nanrun", extra={"combination": None})
    assert code == 2
    assert not (outdir / "results.json").exists()
    err = capsys.readouterr().err
    assert "row 4" in err and "'x1'" in err
    ckpt, _ = trained(tmp_path, train_csv)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(nan_csv)]) == 2
    assert "data error" in capsys.readouterr().err


def test_eval_checkpoint_missing_keys_exit_2(tmp_path, train_csv, capsys):
    ckpt, _ = trained(tmp_path, train_csv)
    doc = json.loads(ckpt.read_text())
    del doc["layers"], doc["class_names"]
    gutted = tmp_path / "gutted.json"
    gutted.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(gutted), "--input", str(train_csv)]) == 2
    err = capsys.readouterr().err
    assert "'layers'" in err and "'class_names'" in err


def test_eval_checkpoint_not_json_exit_2(tmp_path, train_csv, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind": "tcn", ', encoding="utf-8")
    assert main(["eval", "--checkpoint", str(broken), "--input", str(train_csv)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    broken.write_text("[1, 2]", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(broken), "--input", str(train_csv)]) == 2
    assert "not a JSON object" in capsys.readouterr().err


def test_eval_unknown_label_exit_2(tmp_path, train_csv, capsys):
    ckpt, _ = trained(tmp_path, train_csv)
    text = train_csv.read_text().replace("pos", "maybe", 1)
    odd_csv = tmp_path / "odd.csv"
    odd_csv.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(odd_csv)]) == 2
    assert "maybe" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_reports_each_layer_kind(tmp_path, train_csv, capsys):
    cfg = write_config(tmp_path, {"dataset": str(train_csv), "label_column": "label"})
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    prefixes = [ln.split(":")[0] for ln in out_lines]
    assert prefixes == ["dense", "residual", "batchnorm", "relu", "dropout",
                        "overall", "gradient check passed (threshold 1.0e-04)"]
    assert "relu: no parameters" in out_lines
    assert "dropout: no parameters" in out_lines
    overall = float(out_lines[5].split(":")[1])
    assert overall < 1e-4


def test_gradcheck_detects_corruption(tmp_path, train_csv, capsys):
    cfg = write_config(tmp_path, {"dataset": str(train_csv), "label_column": "label"})
    assert main(["gradcheck", "--config", str(cfg),
                 "--corrupt-gradient", "0.5"]) == 1
    captured = capsys.readouterr()
    assert "FAILED" in captured.err


def test_gradcheck_passes_where_a_bias_gradient_is_zero(tmp_path, capsys):
    # the quick-start data at seed 19: the batch norm after the residual block
    # cancels its output bias b2, so that gradient is exactly zero and the
    # difference quotient is rounding noise of the loss, not an error
    ds = synth_interaction(2000, 6, PRODUCT_SIGN, 0.1, Rng(19))
    train, _, _ = stratified_split(ds, (0.8, 0.0, 0.2), Rng(19))
    save_csv(train, tmp_path / "train.csv")
    cfg = write_config(tmp_path, {"dataset": str(tmp_path / "train.csv"),
                                  "label_column": "label", "seed": 19})
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    assert main(["gradcheck", "--config", str(cfg), "--corrupt-gradient", "0.5"]) == 1
    capsys.readouterr()


def test_gradcheck_capacity_exit_3(tmp_path, capsys):
    wide = synth_interaction(40, 12, PRODUCT_SIGN, 0.1, Rng(0))
    wide_csv = tmp_path / "wide.csv"
    save_csv(wide, wide_csv)
    cfg = write_config(tmp_path, {"dataset": str(wide_csv), "label_column": "label",
                                  "combination": {"m": 3}})
    assert main(["gradcheck", "--config", str(cfg)]) == 3
    assert "capacity" in capsys.readouterr().err


def test_gradcheck_logistic_baseline(tmp_path, train_csv, capsys):
    cfg = write_config(tmp_path, {"dataset": str(train_csv), "label_column": "label",
                                  "kind": "logistic", "combination": None})
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dense:")


# ---------------------------------------------------------------------------
# usage
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["transform"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "transform" in capsys.readouterr().out
