"""The three workloads: their inputs, their timed operations, their checks.

Each workload makes its inputs from the seed in ``setup`` and runs one round
of operations per ``iteration``. Every operation goes through ``rec.run``,
which times it and counts it as attempted; every check goes through
``rec.check``, which counts a failed check against the operation before it.
Operations that depend on each other form a ``rec.group``, so a failure
skips only its own group.
Program calls go through module attributes (``tn.cli.main``,
``tn.transform_dataset``) so that the traced run's patches see them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import numpy as np

# Sizes per scale. "full" is what the benchmark measures; "tiny" only
# exercises the plumbing (the benchmark's own tests use it), so its
# accuracy floors are off. The full floors sit about 4 binomial standard
# deviations below the held-out accuracy measured over seeds 0-39
# (small_batch_train 0.9475-0.98 on 400 rows, csv_roundtrip 0.858-0.905)
# and wide_batch's chance-level 0.50-0.54, so a correct program passes on
# any seed.
SCALES = {
    "full": {
        "small_batch_train": {"rows": 2000, "features": 6, "transform_repeats": 5,
                              "eval_repeats": 5, "train": {}, "acc_floor": 0.93},
        "wide_batch": {"rows": 10000, "features": 30, "m": 3, "epochs": 5, "batch": 500,
                       "eval_repeats": 6, "acc_floor": 0.45},
        "csv_roundtrip": {"rows": 20000, "features": 12, "train_rows": 2000,
                          "train": {"max_epochs": 5, "learning_rate": 0.01},
                          "acc_floor": 0.8},
    },
    "tiny": {
        "small_batch_train": {"rows": 300, "features": 4, "transform_repeats": 2,
                              "eval_repeats": 2, "train": {"max_epochs": 3},
                              "acc_floor": 0.0},
        "wide_batch": {"rows": 600, "features": 8, "m": 3, "epochs": 2, "batch": 100,
                       "eval_repeats": 2, "acc_floor": 0.0},
        "csv_roundtrip": {"rows": 800, "features": 5, "train_rows": 300,
                          "train": {"max_epochs": 2}, "acc_floor": 0.0},
    },
}

NOISE = 0.1
VAL_FRACTION = 0.1  # TrainConfig default, used by every train below
GRADCHECK_THRESHOLD = 1e-4
CELL_SAMPLE = 2000


class _CountOnlyRng:
    """Stand-in Rng for computing split sizes: they depend only on class
    counts, so an identity permutation gives them without drawing."""

    def permutation(self, n):
        return np.arange(n)


def fit_rows(tn, ds, val_fraction=VAL_FRACTION) -> int:
    """Rows ``train_loop`` fits on after carving off its validation slice."""
    labels_only = tn.Dataset(np.empty((ds.n_samples, 0)), ds.labels, ds.class_names, [])
    fit, _, _ = tn.stratified_split(labels_only, (1.0 - val_fraction, val_fraction, 0.0),
                                    _CountOnlyRng())
    return fit.n_samples


def cli(tn, argv) -> str:
    """Run one twistnet command in-process; its stdout, or raise on nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tn.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"twistnet {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def fresh(*paths) -> None:
    """Remove outputs before an operation rewrites them.

    Truncating and rewriting an existing file makes ext4 (auto_da_alloc)
    flush it to disk on close, which adds tens of milliseconds of device
    latency to the write; every output is therefore written as a new file.
    """
    for path in paths:
        Path(path).unlink(missing_ok=True)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def expected_cells(x, subsets, approach, rows, cols):
    """Combined values at (rows[i], cols[i]), computed directly from x."""
    out = np.empty(len(rows))
    for i, (r, k) in enumerate(zip(rows, cols)):
        s = subsets[k]
        if approach == "multiplicative":
            out[i] = math.prod(float(x[r, j]) for j in s)
        else:
            out[i] = sum(float(x[r, a]) * float(x[r, b]) for a, b in combinations(s, 2))
    return out


def cells_match(values, x, m, approach, rng):
    """Compare a random sample of cells against a direct computation.

    The tolerance admits a reordered product or sum, never a wrong one: it
    is 1e-12 of the sum of the absolute terms.
    """
    n = x.shape[1]
    subsets = list(combinations(range(n), m))
    if values.shape != (x.shape[0], len(subsets)):
        return False
    count = min(CELL_SAMPLE, values.size)
    rows = rng.integers(0, values.shape[0], count)
    cols = rng.integers(0, values.shape[1], count)
    want = expected_cells(x, subsets, approach, rows, cols)
    scale = expected_cells(np.abs(x), subsets, approach, rows, cols)
    return bool(np.all(np.abs(values[rows, cols] - want) <= 1e-12 * scale))


class Workload:
    name = ""

    def __init__(self, tn, cfg: dict, seed: int, workdir: Path):
        self.tn = tn
        self.cfg = cfg
        self.seed = seed
        self.dir = workdir
        self.check_rng = np.random.default_rng(seed)
        self.digest = None  # checkpoint sha256, identical across iterations
        self.details: dict[str, list[float]] = {}
        self.expect: dict[str, int] = {}  # counts the traced run must reproduce

    def note(self, key, value):
        self.details.setdefault(key, []).append(value)

    def check_digest(self, rec, path):
        digest = sha256(path)
        rec.check(self.digest in (None, digest), "checkpoint bytes differ between repeats")
        self.digest = digest

    def train_config(self, output_dir, dataset, train):
        doc = {"dataset": str(dataset), "label_column": "label",
               "output_dir": str(output_dir), "seed": self.seed, "train": train}
        path = self.dir / "run.json"
        fresh(path)
        path.write_text(json.dumps(doc))
        return path

    def cli_train(self, rec, config, ds):
        """``twistnet train``; the samples-per-second rate, checked outputs."""
        fresh(self.out / "results.json", self.out / "checkpoint.json")
        _, dt = rec.run("train", cli, self.tn, ["train", "--config", config])
        results = json.loads((self.out / "results.json").read_text())
        epochs = results["final_metrics"]["stopped_epoch"]
        batch = results["config"]["train"]["batch_size"]
        n_fit = fit_rows(self.tn, ds)
        rec.check(epochs >= 1 and math.isfinite(results["final_metrics"]["train_loss"]),
                  "train ran no epoch or ended with a non-finite loss")
        self.check_digest(rec, self.out / "checkpoint.json")
        self.expect["train_steps"] = epochs * math.ceil(n_fit / batch)
        rec.rate("train_samples_per_s", n_fit * epochs / dt)

    def cli_transform(self, rec, src, x, approach, metric, repeats=1):
        """``twistnet transform`` at m=2; the written CSV must reload to the
        products computed here, bit for bit."""
        out = self.dir / f"combined_{approach}.csv"
        flag = "mult" if approach == "multiplicative" else "pairwise"
        op = "transform" if approach == "multiplicative" else "transform_pairwise"
        argv = ["transform", "--input", src, "--output", out, "--label-column", "label",
                "--m", 2, "--approach", flag]
        for _ in range(repeats):
            fresh(out)
            _, dt = rec.run(op, cli, self.tn, argv)
            rec.rate(metric, x.shape[0] / dt)
        subsets = list(combinations(range(x.shape[1]), 2))
        with open(out, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
        got = np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(len(subsets)),
                         ndmin=2)
        want = np.stack([x[:, a] * x[:, b] for a, b in subsets], axis=1)
        rec.check(header[:-1] == [f"comb_{a}_{b}" for a, b in subsets]
                  and np.array_equal(got, want),
                  f"{out.name} does not reload to the expected products")


class SmallBatchTrain(Workload):
    """The README quick start through the CLI: transform, gradcheck, train, eval."""

    name = "small_batch_train"

    def setup(self):
        tn, c = self.tn, self.cfg
        ds = tn.synth_interaction(c["rows"], c["features"], tn.PRODUCT_SIGN, NOISE,
                                  tn.Rng(self.seed))
        self.train_ds, _, self.test_ds = tn.stratified_split(ds, (0.8, 0.0, 0.2),
                                                             tn.Rng(self.seed))
        self.train_csv, self.test_csv = self.dir / "train.csv", self.dir / "test.csv"
        fresh(self.train_csv, self.test_csv)
        tn.save_csv(self.train_ds, self.train_csv)
        tn.save_csv(self.test_ds, self.test_csv)
        self.out = self.dir / "run"
        self.config = self.train_config(self.out, self.train_csv, c["train"])

    def iteration(self, rec):
        x = self.train_ds.features
        for approach, metric in (("multiplicative", "transform_rows_per_s"),
                                 ("pairwise_sum", "transform_pairwise_rows_per_s")):
            rec.group(self.cli_transform, rec, self.train_csv, x, approach, metric,
                      self.cfg["transform_repeats"])
        rec.group(self._gradcheck, rec)
        rec.group(self._train_and_eval, rec)

    def _gradcheck(self, rec):
        text, dt = rec.run("gradcheck", cli, self.tn,
                           ["gradcheck", "--config", self.config])
        overall = [ln for ln in text.splitlines() if ln.startswith("overall:")]
        rec.check(len(overall) == 1
                  and float(overall[0].split()[1]) < GRADCHECK_THRESHOLD,
                  f"gradcheck overall error not below {GRADCHECK_THRESHOLD}")
        self.note("gradcheck_s", dt)

    def _train_and_eval(self, rec):
        tn, c = self.tn, self.cfg
        self.cli_train(rec, self.config, self.train_ds)
        ckpt = self.out / "checkpoint.json"
        for _ in range(c["eval_repeats"]):
            text, dt = rec.run("eval", cli, tn,
                               ["eval", "--checkpoint", ckpt, "--input", self.test_csv])
            rec.rate("eval_rows_per_s", self.test_ds.n_samples / dt)
        result = json.loads(text)
        rec.check(int(np.sum(result["confusion"])) == self.test_ds.n_samples
                  and result["accuracy"] >= c["acc_floor"],
                  f"eval accuracy {result['accuracy']} below {c['acc_floor']}")
        self.note("test_accuracy", result["accuracy"])


class WideBatch(Workload):
    """In memory: two m=3 expansions, z-score, one-batch inference, 5 epochs."""

    name = "wide_batch"

    def setup(self):
        tn, c = self.tn, self.cfg
        ds = tn.synth_interaction(c["rows"], c["features"], tn.THREE_WAY_PRODUCT_SIGN,
                                  NOISE, tn.Rng(self.seed))
        train, _, test = tn.stratified_split(ds, (0.8, 0.0, 0.2), tn.Rng(self.seed))
        ordered = tn.Dataset(np.vstack([train.features, test.features]),
                             np.concatenate([train.labels, test.labels]),
                             ds.class_names, ds.feature_names)
        path = self.dir / "raw.csv"
        fresh(path)
        tn.save_csv(ordered, path)
        self.raw = tn.load_csv(path, "label")
        self.n_train = train.n_samples

    def _expand(self, rec, approach, metric):
        op = "transform" if approach == "multiplicative" else "transform_pairwise"
        x = self.raw.features
        spec = self.tn.CombinationSpec(m=self.cfg["m"], approach=approach)
        combined, dt = rec.run(op, self.tn.transform_dataset, x, spec)
        rec.rate(metric, x.shape[0] / dt)
        rec.check(cells_match(combined.values, x, spec.m, approach, self.check_rng),
                  f"{approach} cells differ from a direct computation")
        return combined

    def iteration(self, rec):
        # the pairwise block is dropped at once: one rows x C(n,3) block alive at a time
        rec.group(self._expand, rec, "pairwise_sum", "transform_pairwise_rows_per_s")
        rec.group(self._pipeline, rec)

    def _pipeline(self, rec):
        """Multiplicative expansion, z-score, train, inference, checkpoint."""
        tn, c = self.tn, self.cfg
        combined = self._expand(rec, "multiplicative", "transform_rows_per_s")

        names = [f"c{i}" for i in range(combined.values.shape[1])]
        labels, classes, ntr = self.raw.labels, self.raw.class_names, self.n_train

        def zscore():
            stats = tn.zscore_fit(tn.Dataset(combined.values[:ntr], labels[:ntr],
                                             classes, names))
            return tn.zscore_apply(tn.Dataset(combined.values, labels, classes, names), stats)

        everything, dt = rec.run("zscore", zscore)
        self.note("zscore_s", dt)
        del combined
        stats = everything.norm_stats
        train = tn.Dataset(everything.features[:ntr], labels[:ntr], classes, names)
        test = tn.Dataset(everything.features[ntr:], labels[ntr:], classes, names)

        model, _ = rec.run("build", tn.build_tcn, len(names), len(classes),
                           tn.ModelConfig(seed=self.seed))
        cfg = tn.TrainConfig(seed=self.seed, batch_size=c["batch"], max_epochs=c["epochs"],
                             early_stop_patience=c["epochs"])
        (model, history), dt = rec.run("train", tn.train_loop, model, train, cfg)
        n_fit = fit_rows(tn, train)
        losses = [e.train_loss for e in history.epochs] + [e.val_loss for e in history.epochs]
        rec.check(history.stopped_epoch == c["epochs"]
                  and all(math.isfinite(v) for v in losses),
                  "training did not run every epoch with finite losses")
        self.expect["train_steps"] = history.stopped_epoch * math.ceil(n_fit / c["batch"])
        rec.rate("train_samples_per_s", n_fit * history.stopped_epoch / dt)

        for _ in range(c["eval_repeats"]):
            result, dt = rec.run("eval", tn.evaluate, model, everything)
            rec.rate("eval_rows_per_s", everything.n_samples / dt)
        sample = self.check_rng.integers(0, everything.n_samples, 256)
        probs, _ = tn.forward(model, everything.features[sample])
        rec.check(int(result.confusion.sum()) == everything.n_samples
                  and bool(np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)),
                  "probabilities do not sum to 1 or the confusion matrix lost rows")

        result, _ = rec.run("test_eval", tn.evaluate, model, test)
        rec.check(result.accuracy >= c["acc_floor"],
                  f"test accuracy {result.accuracy} below {c['acc_floor']}")
        self.note("test_accuracy", result.accuracy)

        path = self.dir / "checkpoint.json"
        spec = tn.CombinationSpec(m=c["m"])
        ckpt = tn.Checkpoint(model=model, config=tn.ModelConfig(seed=self.seed),
                             combination=spec, subsets=None, norm_mean=stats.mean,
                             norm_std=stats.std, feature_names=self.raw.feature_names,
                             class_names=classes, label_column="label", seed=self.seed)

        fresh(path)

        def roundtrip():
            tn.save_checkpoint(path, ckpt)
            return tn.load_checkpoint(path)

        loaded, dt = rec.run("checkpoint", roundtrip)
        self.note("checkpoint_s", dt)
        rec.check(np.array_equal(tn.predict(loaded.model, test.features),
                                 tn.predict(model, test.features)),
                  "reloaded checkpoint predicts differently")
        self.check_digest(rec, path)


class CsvRoundtrip(Workload):
    """Through the CLI on a large CSV: train a checkpoint on a small CSV,
    transform the large one both ways, eval the large raw CSV."""

    name = "csv_roundtrip"

    def setup(self):
        tn, c = self.tn, self.cfg
        rng = tn.Rng(self.seed)
        self.big = tn.synth_interaction(c["rows"], c["features"], tn.PRODUCT_SIGN, NOISE, rng)
        self.small = tn.synth_interaction(c["train_rows"], c["features"], tn.PRODUCT_SIGN,
                                          NOISE, rng)
        self.big_csv, small_csv = self.dir / "raw.csv", self.dir / "small.csv"
        fresh(self.big_csv, small_csv)
        tn.save_csv(self.big, self.big_csv)
        tn.save_csv(self.small, small_csv)
        self.out = self.dir / "run"
        self.config = self.train_config(self.out, small_csv, c["train"])

    def iteration(self, rec):
        for approach, metric in (("multiplicative", "transform_rows_per_s"),
                                 ("pairwise_sum", "transform_pairwise_rows_per_s")):
            rec.group(self.cli_transform, rec, self.big_csv, self.big.features, approach,
                      metric)
        rec.group(self._train_and_eval, rec)

    def _train_and_eval(self, rec):
        tn, c = self.tn, self.cfg
        self.cli_train(rec, self.config, self.small)
        ckpt_path = self.out / "checkpoint.json"
        text, dt = rec.run("eval", cli, tn,
                           ["eval", "--checkpoint", ckpt_path, "--input", self.big_csv])
        rec.rate("eval_rows_per_s", self.big.n_samples / dt)
        got = json.loads(text)
        want = self._evaluate_in_memory(ckpt_path).to_dict()
        rec.check(got["confusion"] == want["confusion"]
                  and got["accuracy"] == want["accuracy"]
                  and abs(got["mean_loss"] - want["mean_loss"])
                  <= 1e-12 * abs(want["mean_loss"]),
                  "CLI eval disagrees with in-memory evaluate on the same rows")
        rec.check(got["accuracy"] >= c["acc_floor"],
                  f"eval accuracy {got['accuracy']} below {c['acc_floor']}")
        self.note("test_accuracy", got["accuracy"])

    def _evaluate_in_memory(self, ckpt_path):
        tn = self.tn
        ckpt = tn.load_checkpoint(ckpt_path)
        values = tn.transform_dataset(self.big.features, ckpt.combination).values
        values = (values - ckpt.norm_mean) / ckpt.norm_std
        index = {name: i for i, name in enumerate(ckpt.class_names)}
        labels = [index[self.big.class_names[v]] for v in self.big.labels]
        names = [f"c{i}" for i in range(values.shape[1])]
        return tn.evaluate(ckpt.model, tn.Dataset(values, labels, ckpt.class_names, names))


WORKLOADS = {cls.name: cls for cls in (SmallBatchTrain, WideBatch, CsvRoundtrip)}
