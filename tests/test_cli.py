"""End-to-end command-line behavior: transform, train, eval, gradcheck."""

import hashlib
import json
import math

import numpy as np
import pytest

from twistnet.cli import main, parse_run_config
from twistnet.data import (
    Dataset,
    Pipeline,
    load_csv,
    save_csv,
    stratified_split,
    synth_interaction,
)
from twistnet.errors import ConfigError
from twistnet.featcomb import PAIRWISE_SUM, CombinationSpec, transform_dataset
from twistnet.data import PRODUCT_SIGN
from twistnet.layers import Dropout
from twistnet.model import HIDDEN1, HIDDEN2
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
    "pairwise_m3": {"combination": {"m": 3, "approach": "pairwise_sum",
                                    "augment_original": True}},
    "mlp": {"kind": "mlp"},
    "cnn1d": {"kind": "cnn1d"},
    "logistic": {"kind": "logistic"},
}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_run_config_defaults():
    rc = parse_run_config({"dataset": "d.csv", "label_column": "label"})
    assert rc.kind == "tcn" and rc.seed == 0 and rc.output_dir == "."
    assert rc.combination == CombinationSpec()  # combining is the default
    assert (HIDDEN1, HIDDEN2, Dropout.rate) == (20, 10, 0.5) and rc.train.max_epochs == 200


def test_parse_run_config_null_combination():
    rc = parse_run_config({"dataset": "d.csv", "label_column": 0, "combination": None})
    assert rc.combination is None


def test_parse_run_config_seed_propagates():
    rc = parse_run_config({"dataset": "d.csv", "label_column": "y", "seed": 9})
    assert rc.seed == 9 and rc.train.seed == 9


def test_parse_run_config_collects_every_problem():
    doc = {
        "dataset": "d.csv",
        "label_column": "y",
        "kind": "svm",
        "seed": -1,
        "model": {"hiden1": 5},
        "train": {"learning_rat": 0.01, "early_stop_patience": "ten", "batch_size": 0},
        "combination": {"approach": "cartesian"},
    }
    with pytest.raises(ConfigError) as exc:
        parse_run_config(doc)
    msg = str(exc.value)
    assert "unknown key 'model'" in msg
    assert "learning_rat" in msg and "did you mean 'learning_rate'" in msg
    assert "train: 'early_stop_patience' must be int, got str" in msg
    assert "train: batch_size must be >= 1" in msg
    assert "svm" in msg
    assert "'seed' must be in [0, 2**64), got -1" in msg
    assert "unknown approach 'cartesian'" in msg


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
    assert "nope.csv" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def with_cells(tmp_path, train_csv, cells, name):
    """train_csv with the given {(data row, column): text} cells replaced;
    data rows count from 1, below the header."""
    lines = train_csv.read_text().splitlines()
    for (row, col), text in cells.items():
        parts = lines[row].split(",")
        parts[col] = text
        lines[row] = ",".join(parts)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.filterwarnings("error")  # the data error is the only report, no numpy warning
def test_transform_overflow_exits_2_and_writes_nothing(tmp_path, train_csv, capsys):
    big_csv = with_cells(tmp_path, train_csv, {(3, 0): "1e200", (3, 2): "1e200"}, "big.csv")
    out = tmp_path / "never.csv"
    assert main(["transform", "--input", str(big_csv), "--output", str(out),
                 "--label-column", "label"]) == 2
    err = capsys.readouterr().err
    assert "'comb_0_2'" in err and "data row 3" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def run_train(tmp_path, train_csv, outdir, extra=None):
    doc = {
        "dataset": str(train_csv),
        "label_column": "label",
        "output_dir": str(tmp_path / outdir),
        "train": {"max_epochs": 12},
    }
    if extra:
        doc.update(extra)
    cfg = write_config(tmp_path, doc, name=f"{outdir}.json")
    code = main(["train", "--config", str(cfg)])
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
    # a config's seed replaces the default seed 0, and the model follows it
    code_a, dir_a = run_train(tmp_path, train_csv, "seed0")
    code_b, dir_b = run_train(tmp_path, train_csv, "seed1", extra={"seed": 1})
    assert code_a == code_b == 0
    assert json.loads((dir_a / "results.json").read_text())["config"]["seed"] == 0
    assert json.loads((dir_b / "results.json").read_text())["config"]["seed"] == 1
    ckpt_b = json.loads((dir_b / "checkpoint.json").read_text())
    assert ckpt_b["seed"] == 1
    assert ckpt_b["layers"] != json.loads((dir_a / "checkpoint.json").read_text())["layers"]


# the run config is the only source of a run's seed and output directory
@pytest.mark.parametrize("argv", [["train", "--seed", "1"], ["train", "--output", "elsewhere"],
                                  ["gradcheck", "--seed", "1"]],
                         ids=["train-seed", "train-output", "gradcheck-seed"])
def test_override_flag_is_a_usage_error(tmp_path, train_csv, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"dataset": str(train_csv), "label_column": "label",
                                  "output_dir": str(tmp_path / "out")})
    before = set(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([argv[0], "--config", str(cfg), *argv[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {' '.join(argv[1:])}" in err
    assert set(tmp_path.rglob("*")) == before


def test_train_without_combination(tmp_path, train_csv):
    code, outdir = run_train(tmp_path, train_csv, "rawrun", extra={"combination": None})
    assert code == 0
    ckpt = json.loads((outdir / "checkpoint.json").read_text())
    assert ckpt["combination"] is None
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


@pytest.mark.parametrize("name, value", [
    ("learning_rate", math.nan), ("learning_rate", math.inf), ("l2_lambda", math.nan),
    ("beta1", 1.0), ("beta1", 1.5), ("beta1", -3.0), ("beta2", 1.0),
    ("adam_epsilon", 0.0), ("adam_epsilon", math.nan),
])
@pytest.mark.filterwarnings("error")  # refused before any arithmetic, so no numpy warning
def test_train_out_of_range_optimizer_setting_exits_1(tmp_path, train_csv, capsys,
                                                      name, value):
    # only the learning rate is settable; the other Adam and L2 values are
    # constants, so a config that sets one names an unknown key
    code, outdir = run_train(tmp_path, train_csv, "badopt",
                             extra={"train": {"max_epochs": 12, name: value}})
    assert code == 1
    err = capsys.readouterr().err
    assert (f"{name} must be" if name == "learning_rate" else f"unknown key '{name}'") in err
    assert not outdir.exists()


def test_train_shuffle_each_epoch_is_an_unknown_key(tmp_path, train_csv, capsys):
    code, outdir = run_train(tmp_path, train_csv, "noshuffle",
                             extra={"train": {"shuffle_each_epoch": False}})
    assert code == 1
    assert "unknown key 'shuffle_each_epoch'" in capsys.readouterr().err
    assert not outdir.exists()


# settings that are constants now, each with the value it is fixed at
REMOVED_SETTINGS = [
    ("train", "beta1", 0.9), ("train", "beta2", 0.999), ("train", "adam_epsilon", 1e-8),
    ("train", "l2_lambda", 1e-4), ("train", "val_fraction", 0.1),
    ("combination", "max_combined", 100000), ("combination", "append_global_interaction", False),
]


@pytest.mark.parametrize("section, name, value", REMOVED_SETTINGS,
                         ids=[name for _, name, _ in REMOVED_SETTINGS])
def test_train_removed_setting_is_an_unknown_key(tmp_path, train_csv, capsys,
                                                 section, name, value):
    code, outdir = run_train(tmp_path, train_csv, "removed",
                             extra={section: {name: value}})
    assert code == 1
    assert f"{section}: unknown key '{name}'" in capsys.readouterr().err
    assert not outdir.exists()


# the reference stack's shape is constants now, so the section is gone
@pytest.mark.parametrize("section", [{}, {"hidden1": 20, "hidden2": 10, "n_residual_blocks": 1,
                                          "dropout_rate": 0.5, "use_batchnorm": True}],
                         ids=["empty", "defaults"])
def test_train_model_section_is_an_unknown_key(tmp_path, train_csv, capsys, section):
    code, outdir = run_train(tmp_path, train_csv, "model", extra={"model": section})
    assert code == 1
    assert "unknown key 'model'" in capsys.readouterr().err
    assert not outdir.exists()


def test_train_empty_output_dir_exits_1(tmp_path, train_csv, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("twistnet.cli.load_csv", lambda *a: pytest.fail("read the data"))
    before = set(tmp_path.rglob("*"))
    code, _ = run_train(tmp_path, train_csv, "empty", extra={"output_dir": ""})
    assert code == 1
    assert "'output_dir'" in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == before | {tmp_path / "empty.json"}  # just the config


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_train_aliased_seed_exits_1(tmp_path, train_csv, capsys, seed):
    code, outdir = run_train(tmp_path, train_csv, "badseed", extra={"seed": seed})
    assert code == 1
    assert "'seed' must be in [0, 2**64)" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("command, corrupted, code", [
    ("transform", "csv", 2), ("eval", "csv", 2), ("eval", "checkpoint", 2),
    ("train", "config", 1),
])
def test_non_utf8_file_is_named(tmp_path, train_csv, capsys, command, corrupted, code):
    files = {"csv": train_csv,
             "config": write_config(tmp_path, {"dataset": str(train_csv), "label_column": "label",
                                               "output_dir": str(tmp_path / "out")})}
    if command == "eval":
        files["checkpoint"], _ = trained(tmp_path, train_csv)
    data = files[corrupted].read_bytes()
    broken = tmp_path / f"latin1{files[corrupted].suffix}"
    broken.write_bytes(data[:10] + b"\xff" + data[10:])
    files[corrupted] = broken
    argv = {
        "transform": ["transform", "--input", files["csv"], "--output", tmp_path / "t.csv",
                      "--label-column", "label"],
        "eval": ["eval", "--checkpoint", files.get("checkpoint"), "--input", files["csv"]],
        "train": ["train", "--config", files["config"]],
    }[command]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == code
    assert f"{broken} is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "out").exists()


def test_train_missing_dataset_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dataset": str(tmp_path / "ghost.csv"),
                                  "label_column": "label"}, name="ghost.json")
    assert main(["train", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_whole_config_is_checked_before_any_file_is_read(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {
        "dataset": str(tmp_path / "ghost.csv"), "label_column": "label",
        "output_dir": str(tmp_path / "out"), "colour": "red",
        "train": {"batch_size": 0, "max_epochs": 0}, "combination": {"m": 0},
    })
    assert main([command, "--config", str(cfg)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("twistnet: config error: invalid config: ")
    for problem in ("unknown key 'colour'", "train: batch_size must be >= 1",
                    "train: max_epochs must be >= 1", "combination: subset size m must be >= 1"):
        assert problem in line
    assert not (tmp_path / "out").exists()


# refusals of the combination or the training recipe, each a config error;
# the last three can only be found once the CSV's 4 features are known
CONFIG_REFUSALS = {
    "transform_m0": ["--m", "0"],
    "transform_m_past_n": ["--m", "9"],
    "transform_pairwise_m1": ["--approach", "pairwise", "--m", "1"],
    "m0": {"combination": {"m": 0}},
    "pairwise_m1": {"combination": {"m": 1, "approach": "pairwise_sum"}},
    "short_approach": {"combination": {"approach": "mult"}},
    "m_past_n": {"combination": {"m": 9}},
    "cnn1d_too_narrow": {"kind": "cnn1d", "combination": {"m": 4}},
    "diverged": {"train": {"max_epochs": 3, "learning_rate": 1e300}},
}


@pytest.mark.parametrize("case", list(CONFIG_REFUSALS))
def test_config_refusal_exits_1(tmp_path, train_csv, capsys, case):
    refusal = CONFIG_REFUSALS[case]
    if isinstance(refusal, list):
        code = main(["transform", "--input", str(train_csv), "--output",
                     str(tmp_path / "out"), "--label-column", "label", *refusal])
    else:
        code, _ = run_train(tmp_path, train_csv, "out", extra=refusal)
    assert code == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("twistnet: config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_learning_rate_past_float_range_exits_1(tmp_path, train_csv, capsys, command):
    cfg = write_config(tmp_path, {"dataset": str(train_csv), "label_column": "label",
                                  "output_dir": str(tmp_path / "out"),
                                  "train": {"learning_rate": 10**400}})
    assert main([command, "--config", str(cfg)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("twistnet: config error: invalid config: "
                           "train: learning_rate must be finite and > 0, got 1000")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["dataset", "output_dir"])
def test_path_with_a_nul_exits_1(tmp_path, train_csv, capsys, key):
    doc = {"dataset": str(train_csv), "label_column": "label", "output_dir": str(tmp_path)}
    doc[key] += "\0x"
    assert main(["train", "--config", str(write_config(tmp_path, doc))]) == 1
    assert f"'{key}' must not hold a NUL character" in capsys.readouterr().err


@pytest.mark.parametrize("command, code", [("train", 1), ("eval", 2)])
def test_integer_past_the_digit_limit_is_not_valid_json(tmp_path, train_csv, capsys,
                                                        command, code):
    huge = "1" + "0" * 5000  # json.loads refuses it with a plain ValueError
    if command == "eval":
        path, _ = trained(tmp_path, train_csv)
        path.write_text(path.read_text().replace('"seed": 0', f'"seed": {huge}'))
        argv = ["eval", "--checkpoint", str(path), "--input", str(train_csv)]
    else:
        path = tmp_path / "huge.json"
        path.write_text(f'{{"dataset": "d.csv", "label_column": "label", "seed": {huge}}}')
        argv = ["train", "--config", str(path)]
    capsys.readouterr()
    assert main(argv) == code
    assert f"{path} is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["transform", "train"])
def test_expansion_too_big_to_allocate_exits_3(tmp_path, train_csv, capsys, monkeypatch,
                                               command):
    # numpy raises MemoryError when the combined block cannot be allocated
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.7 GiB for an array with shape "
                          "(20000, 98770) and data type float64")

    if command == "transform":
        monkeypatch.setattr("twistnet.cli.combine", refuse)
        out = tmp_path / "never.csv"
        code = main(["transform", "--input", str(train_csv), "--output", str(out),
                     "--label-column", "label", "--m", "3"])
    else:
        monkeypatch.setattr(Pipeline, "fit", staticmethod(refuse))
        code, out = run_train(tmp_path, train_csv, "never")
    assert code == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "twistnet: capacity error: Unable to allocate 14.7 GiB for an array with shape "
        "(20000, 98770) and data type float64"]
    assert not out.exists()


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
        "4b855fd41d9e8e390d657f14113859d02252af5f42a380929ed17808db7f43b1",
        "494678647119e773b42812c560857bec86a04e0376e61a483952c3c8d84376a3",
        "a6f727905db5f7757ac7d8cc69c58b10b065405d7ae5d78158b40790d4c9b26b",
    ),
    "raw": (
        "b1713174d8a5b88ede92104171cc7e514f328bb522df81160e5ade4e86f833f9",
        "187de40e37485aa2451cb569c62468dcd4f9ebeffb7004aaad7345587b1491fc",
        "c386a105ac722bff68186a3f12780e6e487940fab4f181f1f2598f2104ebcb6b",
    ),
    "pairwise_m3": (
        "5728f1014ed0447ceccb91b7379102a717a89134d89dd871fd0c32275d97032c",
        "92645e6282e1184e15462755456269735ba35c6317bc12061154af74ae656123",
        "19529d74068a02073740f64af72805d9da896b42a7311a25f8b871e78f93367c",
    ),
    "mlp": (
        "c906f01034b76a9c5db076520a1e1b7594c7a119aabdea864480e0cbbd8c4a41",
        "3de4e9c4d33cd40db728ca160521c284a3e0c8e10023a877b13145032ca2922a",
        "b70dcdf5345ea4f4e5e596de721d8df075681c0791147cbca1c84eadd3793aef",
    ),
    "cnn1d": (
        "38c62c5cc6bdf860cdfe0bacf373173ef55199a017d9bfe7e31369a9d74f84d5",
        "2e0df3eebc1caffd8cc52f892dd222f8542946787eec674e99ad2862ba5b5def",
        "766c08a31e4787ea04d2cdf3e57ef71479a56a3edff8595e0cff607208ef232a",
    ),
    "logistic": (
        "a74f685b59008332fbb50a909846ca1415da9d72c3b0c194e66908c7203e8416",
        "0f7e7d2cdc2e4315bd91c254ef0da152360dc5453fc92d2a3ac304af9a53d95f",
        "ebbda172afafac206fb9df1fd0396769b2ccb4802b8a53241a52930553c62ad7",
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
    assert "data row 3" in err and "'x1'" in err
    ckpt, _ = trained(tmp_path, train_csv)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(nan_csv)]) == 2
    assert "data error" in capsys.readouterr().err


def test_repeated_header_name_exits_2(tmp_path, train_csv, capsys):
    lines = train_csv.read_text().splitlines()
    lines[0] = lines[0].replace("x1", "x0")
    dup_csv = tmp_path / "dup.csv"
    dup_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, outdir = run_train(tmp_path, dup_csv, "duprun")
    assert code == 2
    assert not (outdir / "results.json").exists()
    assert "'x0'" in capsys.readouterr().err
    ckpt, _ = trained(tmp_path, train_csv)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(dup_csv)]) == 2
    assert "'x0'" in capsys.readouterr().err


def test_header_only_csv_exits_2(tmp_path, train_csv, capsys):
    header_csv = tmp_path / "header.csv"
    header_csv.write_text(train_csv.read_text().splitlines()[0] + "\n", encoding="utf-8")
    code, _ = run_train(tmp_path, header_csv, "headerrun")
    assert code == 2
    cfg = write_config(tmp_path, {"dataset": str(header_csv), "label_column": "label"})
    assert main(["gradcheck", "--config", str(cfg)]) == 2
    ckpt, _ = trained(tmp_path, train_csv)
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(header_csv)]) == 2
    err = capsys.readouterr().err
    assert err.count("no data rows") == 3


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_one_class_csv_exits_2(tmp_path, train_csv, capsys, command):
    one_class_csv = tmp_path / "one_class.csv"
    one_class_csv.write_text(train_csv.read_text().replace(",neg\n", ",pos\n"), encoding="utf-8")
    outdir = tmp_path / "one_class"
    cfg = write_config(tmp_path, {"dataset": str(one_class_csv), "label_column": "label",
                                  "output_dir": str(outdir)})
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not outdir.exists()
    assert "data error" in err and "'label' holds 1 class" in err


def test_class_too_small_to_split_exits_2(tmp_path, train_csv, capsys):
    # one 'neg' row cannot fill both the fit and the validation slice
    header, *rows = train_csv.read_text().splitlines()
    negs = [i for i, row in enumerate(rows) if row.endswith(",neg")]
    kept = [row for i, row in enumerate(rows) if i not in negs[1:]]
    small_csv = tmp_path / "one_neg.csv"
    small_csv.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")
    outdir = tmp_path / "one_neg"
    cfg = write_config(tmp_path, {"dataset": str(small_csv), "label_column": "label",
                                  "output_dir": str(outdir)})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not outdir.exists()
    assert "data error" in err and "class 'neg' has 1 samples" in err


def test_too_few_rows_for_a_validation_slice_exits_2(tmp_path, capsys):
    # 5 rows a class: the largest-remainder split hands each class's half
    # row of validation quota to the fit slice, so no validation row is left
    ds = synth_interaction(10, 4, PRODUCT_SIGN, 0.1, Rng(0))
    assert np.bincount(ds.labels).tolist() == [5, 5]
    small_csv = tmp_path / "ten_rows.csv"
    save_csv(ds, small_csv)
    outdir = tmp_path / "ten_rows"
    cfg = write_config(tmp_path, {"dataset": str(small_csv), "label_column": "label",
                                  "output_dir": str(outdir)})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not outdir.exists()
    assert err.splitlines() == ["twistnet: data error: 10 training rows leave no validation "
                                "rows at VAL_FRACTION 0.1"]


@pytest.mark.parametrize("command", ["transform", "train"])
def test_label_only_csv_exits_2(tmp_path, capsys, command):
    label_only = tmp_path / "label_only.csv"
    label_only.write_text("label\npos\nneg\npos\nneg\n", encoding="utf-8")
    out_csv, outdir = tmp_path / "t.csv", tmp_path / "out"
    cfg = write_config(tmp_path, {"dataset": str(label_only), "label_column": "label",
                                  "output_dir": str(outdir)})
    argv = {"transform": ["transform", "--input", label_only, "--output", out_csv,
                          "--label-column", "label"],
            "train": ["train", "--config", cfg]}[command]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not out_csv.exists() and not outdir.exists()
    assert err.splitlines() == [f"twistnet: data error: {label_only}: no feature columns "
                                "besides the label column 'label'"]


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


def shorten_b1(doc):
    """The residual block's b1 one short, with its shape record to match."""
    residual = doc["layers"][2]
    residual["values"][1].pop()
    residual["shape"][1][0] -= 1


def narrow_batchnorm(doc):
    """Every batch-norm array one entry short, with its shape record to match."""
    norm = doc["layers"][3]
    for values, shape in zip(norm["values"], norm["shape"]):
        values.pop()
        shape[0] -= 1


def widen_head(doc):
    """One more row in the head dense layer, so it scores an extra class."""
    head = doc["layers"][-1]
    head["values"][0].append(head["values"][0][0])
    head["values"][1].append(0.0)
    head["shape"][0][0] += 1
    head["shape"][1][0] += 1


def setting(value, *keys):
    """An edit that sets doc[keys[0]][keys[1]]... to value."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


# number literals that Python's json reads but never writes: one it reads as
# inf, and an int past the float range; an edit stores one as a string, and
# the test unquotes it in the written text
OVERFLOW = "1e999"
HUGE_INT = "1" + "0" * 400

# edits of a trained tcn checkpoint (layers: dense, relu, residual, batchnorm,
# relu, dropout, dense, relu, dense), each with a word its error message must name
MALFORMED_CHECKPOINTS = {
    "layer_without_values": (lambda d: d["layers"][0].pop("values"), "'values'"),
    "combination_unknown_key": (lambda d: d["combination"].update(mm=2), "mm"),
    "combination_max_combined": (lambda d: d["combination"].update(max_combined=100000),
                                 "unknown key 'max_combined'"),
    "unknown_layer_type": (lambda d: d["layers"][4].update(type="pooling"), "pooling"),
    "batchnorm_three_arrays": (lambda d: (d["layers"][3]["values"].pop(),
                                          d["layers"][3]["shape"].pop()), "4 arrays"),
    "dense_bias_short": (lambda d: d["layers"][0]["values"][1].pop(), "'bias'"),
    "layers_not_a_list": (lambda d: d.update(layers=5), "'layers'"),
    "layer_not_an_object": (setting(1, "layers", 0), "'layers' must be a list of objects"),
    "ragged_weight_row": (lambda d: d["layers"][0]["values"][0][0].pop(), "'weights'"),
    "stats_without_std": (lambda d: d["normalization_stats"].pop("std"), "'std'"),
    "stats_not_an_object": (lambda d: d.update(normalization_stats=5),
                            "'normalization_stats'"),
    "stats_mean_short": (lambda d: d["normalization_stats"]["mean"].pop(),
                         "normalization stats"),
    "feature_names_not_a_list": (lambda d: d.update(feature_names=5), "'feature_names'"),
    "class_names_not_a_list": (lambda d: d.update(class_names=5), "'class_names'"),
    "combination_m_string": (lambda d: d["combination"].update(m="2"), "'m'"),
    "combination_bad_approach": (lambda d: d["combination"].update(approach="bogus"),
                                 "bogus"),
    "combination_m_past_features": (lambda d: d["combination"].update(m=5), "m=5"),
    "unknown_kind": (lambda d: d.update(kind="bogus"), "bogus"),
    "layer_unknown_key": (lambda d: d["layers"][0].update(colour="red"), "colour"),
    "residual_b1_short": (shorten_b1, "'b1'"),
    "batchnorm_narrower": (narrow_batchnorm, "batchnorm expects 19 columns, got 20"),
    "head_one_row_wider": (widen_head, "class scores"),
    "dense_weight_nan": (setting(math.nan, "layers", 0, "values", 0, 0, 0), "'weights'"),
    "residual_w2_infinity": (setting(math.inf, "layers", 2, "values", 2, 0, 0), "'w2'"),
    "head_bias_1e999": (setting(OVERFLOW, "layers", 8, "values", 1, 0), "'bias'"),
    "running_mean_nan": (setting(math.nan, "layers", 3, "values", 2, 0), "'running_mean'"),
    "running_var_negative": (setting(-1.0, "layers", 3, "values", 3, 0), "'running_var'"),
    "stats_std_zero": (setting(0.0, "normalization_stats", "std", 0), "'std'"),
    "stats_std_negative": (setting(-2.0, "normalization_stats", "std", 1), "'std'"),
    "stats_std_1e999": (setting(OVERFLOW, "normalization_stats", "std", 0), "'std'"),
    # finite and above 0, but below the least std a fit keeps; 1e-310 also
    # overflows the z-score if it loads
    "stats_std_1e-13": (setting(1e-13, "normalization_stats", "std", 0),
                        "'std' of column 'comb_0_1'"),
    "stats_std_1e-310": (setting(1e-310, "normalization_stats", "std", 0),
                         "'std' of column 'comb_0_1'"),
    "stats_mean_nan": (setting(math.nan, "normalization_stats", "mean", 0), "'mean'"),
    "stats_mean_infinity": (setting(-math.inf, "normalization_stats", "mean", 2), "'mean'"),
    "stats_mean_huge_int": (setting(HUGE_INT, "normalization_stats", "mean", 1), "'mean'"),
    "stats_null": (lambda d: d.update(normalization_stats=None), "'normalization_stats'"),
    # the keys older formats wrote: derived at load now, never read
    "parent_format": (lambda d: d.update(subsets=[[0, 1], [0, 2], [0, 3], [1, 2], [1, 3],
                                                  [2, 3]], input_dim=6, n_classes=2),
                      "unknown key 'input_dim'"),
    "config_copy": (lambda d: d.update(config={"hidden1": 20, "hidden2": 10,
                                               "n_residual_blocks": 1, "dropout_rate": 0.5,
                                               "use_batchnorm": True}),
                    "unknown key 'config'"),
    "batchnorm_with_epsilon": (setting(1e-5, "layers", 3, "epsilon"), "unknown key 'epsilon'"),
    # the settings older layer entries wrote: a rectifier is its own layer
    # now, and the dropout rate a constant of the class
    "dense_with_activation": (setting("relu", "layers", 0, "activation"),
                              "unknown key 'activation'"),
    "dropout_with_rate": (setting(0.5, "layers", 5, "rate"), "unknown key 'rate'"),
    "class_names_entry_object": (setting({}, "class_names", 0), "'class_names'"),
    "class_names_repeated": (lambda d: d.update(class_names=["neg", "neg"]), "'class_names'"),
    "feature_names_entry_number": (setting(5, "feature_names", 0), "'feature_names'"),
    "feature_names_repeated": (setting("x0", "feature_names", 1), "'feature_names'"),
    # a seed masked to 64 bits would alias another: 2**64 is 0, -1 is 2**64 - 1
    "seed_2_64": (lambda d: d.update(seed=2**64), "'seed'"),
    "seed_negative": (lambda d: d.update(seed=-1), "'seed'"),
}


@pytest.mark.parametrize("case", list(MALFORMED_CHECKPOINTS))
def test_eval_malformed_checkpoint_exit_2(tmp_path, train_csv, capsys, case):
    ckpt, _ = trained(tmp_path, train_csv)
    doc = json.loads(ckpt.read_text())
    edit, named = MALFORMED_CHECKPOINTS[case]
    edit(doc)
    broken = tmp_path / "broken.json"
    text = json.dumps(doc)
    for literal in (OVERFLOW, HUGE_INT):
        text = text.replace(f'"{literal}"', literal)
    broken.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(broken), "--input", str(train_csv)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and named in err


@pytest.mark.parametrize("cells, extra, named", [
    # one 1e200 cell: the combined values stay finite, their z-score std does not
    ({(2, 1): "1e200"}, {}, "'std' of column 'comb_0_1'"),
    ({(2, 1): "1e200"}, {"combination": None}, "'std' of column 'x1'"),
    # two in one row: a combined value overflows
    ({(2, 1): "1e200", (2, 3): "1e200"}, {}, "'comb_1_3' overflows at data row 2"),
])
@pytest.mark.filterwarnings("error")
def test_train_data_overflow_exits_2_and_writes_nothing(tmp_path, train_csv, capsys,
                                                        cells, extra, named):
    big_csv = with_cells(tmp_path, train_csv, cells, "big.csv")
    code, outdir = run_train(tmp_path, big_csv, "overflow", extra=extra)
    assert code == 2
    assert not outdir.exists()
    err = capsys.readouterr().err
    assert named in err and "learning_rate" not in err


def test_label_column_matches_a_header_name_first(tmp_path, train_csv, capsys):
    # label_column 4 is the index of a column named "7"; the checkpoint
    # records the name, and eval must read "7" as that name, not as index 7
    lines = train_csv.read_text().splitlines()
    lines[0] = lines[0].replace("label", "7")
    odd_csv = tmp_path / "odd.csv"
    odd_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, outdir = run_train(tmp_path, odd_csv, "odd", extra={"label_column": 4})
    assert code == 0
    fm = json.loads((outdir / "results.json").read_text())["final_metrics"]
    assert json.loads((outdir / "checkpoint.json").read_text())["label_column"] == "7"
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(outdir / "checkpoint.json"),
                 "--input", str(odd_csv)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["accuracy"], report["mean_loss"]) == (fm["train_accuracy"], fm["train_loss"])


@pytest.mark.parametrize("source", ["transform", "config", "checkpoint"])
@pytest.mark.parametrize("label", ["--3", "\u00b3", "-\u00b3"])
def test_label_column_that_int_cannot_read_is_not_found(tmp_path, train_csv, capsys,
                                                        source, label):
    if source == "transform":
        code = main(["transform", "--input", str(train_csv), "--output",
                     str(tmp_path / "t.csv"), f"--label-column={label}"])
    elif source == "config":
        code, _ = run_train(tmp_path, train_csv, "out", extra={"label_column": label})
    else:
        ckpt, _ = trained(tmp_path, train_csv)
        doc = json.loads(ckpt.read_text())
        doc["label_column"] = label
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt), "--input", str(train_csv)])
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"twistnet: data error: label column {label!r} not found in header")


def generated_csv(path, kind, seed):
    """A 40-row, 4-feature CSV: ordinary, or with three cells of 1e150-1e300
    in magnitude, or with three cells of 1e-300, or with one constant column."""
    rng = np.random.default_rng(seed)
    ds = synth_interaction(40, 4, PRODUCT_SIGN, 0.1, Rng(seed))
    x = ds.features.copy()
    cells = rng.choice(x.size, 3, replace=False)
    if kind == "huge":
        x.flat[cells] = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(150, 300, 3)
    elif kind == "tiny":
        x.flat[cells] = 1e-300
    elif kind == "constant":
        x[:, rng.integers(4)] = rng.normal()
    save_csv(Dataset(x, ds.labels, ds.class_names, ds.feature_names), path)


@pytest.mark.parametrize("kind", ["ordinary", "huge", "tiny", "constant"])
def test_train_refuses_or_eval_reproduces(tmp_path, capsys, kind):
    # whatever the data, train either refuses it (exit 2 or 3) and writes
    # nothing, or writes a checkpoint that eval reads back to the training
    # metrics exactly
    refused = 0
    for seed in range(3):
        csv = tmp_path / f"{kind}{seed}.csv"
        generated_csv(csv, kind, seed)
        for variant, extra in RUN_VARIANTS.items():
            code, outdir = run_train(tmp_path, csv, f"{kind}{seed}_{variant}",
                                     extra={**extra, "train": {"max_epochs": 3}})
            if code in (2, 3):
                assert not outdir.exists(), (seed, variant)
                refused += 1
                continue
            assert code == 0, (seed, variant, capsys.readouterr().err)
            fm = json.loads((outdir / "results.json").read_text())["final_metrics"]
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(outdir / "checkpoint.json"),
                         "--input", str(csv)]) == 0, (seed, variant)
            report = json.loads(capsys.readouterr().out)
            assert report["accuracy"] == fm["train_accuracy"], (seed, variant)
            assert report["mean_loss"] == fm["train_loss"], (seed, variant)
    # only cells past the float range's square root make a run refuse
    assert (refused > 0) == (kind == "huge")


def test_train_diverged_run_exits_1(tmp_path, train_csv, capsys):
    code, outdir = run_train(tmp_path, train_csv, "diverged",
                             extra={"train": {"max_epochs": 12, "learning_rate": 1e300}})
    assert code == 1
    assert not (outdir / "results.json").exists()
    assert not (outdir / "checkpoint.json").exists()
    err = capsys.readouterr().err
    assert "epoch 1:" in err and "1e+300" in err


# a valid checkpoint whose output overflows: one first-layer weight of 1e308
@pytest.mark.parametrize("edit", [setting(1e308, "layers", 0, "values", 0, 0, 0)],
                         ids=["weight_1e308"])
@pytest.mark.filterwarnings("error")  # the data error is the only report, no numpy warning
def test_eval_overflowing_model_exits_2(tmp_path, train_csv, capsys, edit):
    ckpt, _ = trained(tmp_path, train_csv)
    doc = json.loads(ckpt.read_text())
    edit(doc)
    ckpt.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--input", str(train_csv)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"twistnet: data error: the model's output on {train_csv} is not finite"]


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
    assert prefixes == ["dense", "relu", "residual", "batchnorm", "dropout",
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("offset", ["inf", "-inf", "nan"])
def test_gradcheck_non_finite_corruption_fails_without_a_warning(tmp_path, train_csv, capsys,
                                                                 offset):
    # a non-finite |a - n| scores inf without an inf/inf quotient
    cfg = write_config(tmp_path, {"dataset": str(train_csv), "label_column": "label"})
    assert main(["gradcheck", "--config", str(cfg), f"--corrupt-gradient={offset}"]) == 1
    captured = capsys.readouterr()
    assert "overall: inf" in captured.out.splitlines()
    assert captured.err.splitlines() == ["gradient check FAILED (threshold 1.0e-04)"]


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


def test_a_plain_value_error_is_not_dressed_as_a_refusal(tmp_path, train_csv, monkeypatch):
    def broken(*args):
        raise ValueError("a bug, not a refusal")

    monkeypatch.setattr("twistnet.cli.combine", broken)
    with pytest.raises(ValueError, match="a bug, not a refusal"):
        main(["transform", "--input", str(train_csv), "--output", str(tmp_path / "t.csv"),
              "--label-column", "label"])


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "transform" in capsys.readouterr().out
