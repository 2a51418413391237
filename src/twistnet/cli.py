"""Command-line front end.

Four subcommands tie the pipeline together:

  transform   expand a CSV into combined features and write it back out
  train       fit a model from a JSON run config; write checkpoint + results
  eval        score a saved checkpoint on a CSV, matching columns by name
  gradcheck   finite-difference audit of the analytic gradients

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 capacity.
A run config is checked whole, keys, types and ranges in one pass, before
any file is read; the config errors found only with the data are m above
the feature count, a cnn1d narrower than its kernel, and divergence.
ConfigError, DataError, ShapeError, CapacityError, MemoryError and OSError
map to an exit code; any other exception is a bug and propagates. All
diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import Pipeline, combine, load_csv, read_text, save_csv
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    ShapeError,
    check_keys,
    schema_of,
)
from .featcomb import MULTIPLICATIVE, PAIRWISE_SUM, CombinationSpec
from .model import (
    KIND_TCN,
    MODEL_KINDS,
    Checkpoint,
    ModelConfig,
    build_baseline,
    build_tcn,
    load_checkpoint,
    save_checkpoint,
)
from .ndcore import RNG_ALGORITHM, SEED_LIMIT
from .train import (
    TrainConfig,
    evaluate,
    find_check_batch,
    grad_check_report,
    train_loop,
)

GRADCHECK_THRESHOLD = 1e-4

_TOP_FIELDS = {
    "dataset": str,
    "label_column": (str, int),
    "output_dir": str,
    "kind": str,
    "seed": int,
    "combination": (dict, type(None)),
    "train": dict,
}


@dataclass
class RunConfig:
    """One training or gradient-check run, as ``parse_run_config`` resolves it."""

    dataset: str
    label_column: str | int
    output_dir: str
    kind: str
    seed: int
    combination: CombinationSpec | None
    train: TrainConfig


def parse_run_config(doc) -> RunConfig:
    """Validate a run-config JSON document, the one source of a run's
    settings. Unknown keys are errors, never warnings, and every key, type
    and range problem is reported in one pass, before any file is read."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    problems: list[str] = []
    top = check_keys(doc, _TOP_FIELDS, problems, required=("dataset", "label_column"))
    # the seed is set once, at the top level, so the sections do not accept it
    train_doc, comb_doc = (
        check_keys(top.get(name) or {},
                   {k: t for k, t in schema_of(cls).items() if k != "seed"}, problems, name)
        for name, cls in (("train", TrainConfig), ("combination", CombinationSpec))
    )

    kind = top.get("kind", KIND_TCN)
    if kind not in MODEL_KINDS:
        problems.append(f"'kind' must be one of {list(MODEL_KINDS)}, got {kind!r}")
    seed = top.get("seed", 0)
    if not 0 <= seed < SEED_LIMIT:
        problems.append(f"'seed' must be in [0, 2**64), got {seed}")
    output_dir = top.get("output_dir", ".")
    if not output_dir:
        problems.append("'output_dir' must name a directory, got ''")
    problems += [f"'{key}' must not hold a NUL character"  # no file system path can
                 for key in ("dataset", "output_dir") if "\0" in top.get(key, "")]
    train = TrainConfig(seed=seed, **train_doc)
    combination = None if top.get("combination", {}) is None else CombinationSpec(**comb_doc)
    problems += [f"train: {p}" for p in train.problems()]
    problems += [f"combination: {p}" for p in combination.problems()] if combination else []
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    return RunConfig(top["dataset"], top["label_column"], output_dir, kind, seed,
                     combination, train)


def load_run_config(path) -> RunConfig:
    try:
        text = read_text(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # not JSON, or an integer past int()'s digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_run_config(doc)


def _prepare(rc: RunConfig):
    """Load the run's CSV, fit its pipeline, and build its untrained model."""
    pipeline, prepared = Pipeline.fit(load_csv(rc.dataset, rc.label_column), rc.combination)
    build_args = (prepared.n_features, prepared.n_classes, ModelConfig(seed=rc.seed))
    model = build_tcn(*build_args) if rc.kind == KIND_TCN else build_baseline(rc.kind, *build_args)
    return pipeline, prepared, model


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_transform(args) -> int:
    approach = {"mult": MULTIPLICATIVE, "pairwise": PAIRWISE_SUM}[args.approach]
    spec = CombinationSpec(m=args.m, approach=approach, augment_original=args.augment_original)
    spec.validate()
    out, _ = combine(load_csv(args.input, args.label_column), spec)
    save_csv(out, args.output)
    return 0


def cmd_train(args) -> int:
    rc = load_run_config(args.config)

    start = time.perf_counter()
    pipeline, prepared, model = _prepare(rc)
    model, history = train_loop(model, prepared, rc.train)
    train_metrics = evaluate(model, prepared)
    wall = time.perf_counter() - start

    best = history.epochs[history.best_epoch - 1]
    final_metrics = {
        "train_accuracy": train_metrics.accuracy,
        "train_loss": train_metrics.mean_loss,
        "val_accuracy": best.val_accuracy,
        "val_loss": best.val_loss,
        "best_epoch": history.best_epoch,
        "stopped_epoch": history.stopped_epoch,
    }
    config = asdict(rc)
    del config["train"]["seed"]  # set once, at the top
    results = {
        "config": config,
        "history": [asdict(record) for record in history.epochs],
        "final_metrics": final_metrics,
        "wall_time_seconds": wall,
        "rng_algorithm": RNG_ALGORITHM,
    }

    results_text = json.dumps(results, indent=2, sort_keys=True, allow_nan=False) + "\n"
    ckpt = Checkpoint(**vars(pipeline), model=model, config=ModelConfig(seed=rc.seed),
                      seed=rc.seed)

    os.makedirs(rc.output_dir, exist_ok=True)
    save_checkpoint(os.path.join(rc.output_dir, "checkpoint.json"), ckpt)
    with open(os.path.join(rc.output_dir, "results.json"), "w", encoding="utf-8") as fh:
        fh.write(results_text)
    print(json.dumps(final_metrics, sort_keys=True, allow_nan=False))
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is named below
        result = evaluate(ckpt.model, ckpt.apply(load_csv(args.input, ckpt.label_column)))
    if not np.isfinite(result.mean_loss):
        raise DataError(f"the model's output on {args.input} is not finite")
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True, allow_nan=False))
    return 0


def cmd_gradcheck(args) -> int:
    _, prepared, model = _prepare(load_run_config(args.config))
    batch, labels = find_check_batch(model, prepared.features, prepared.labels)
    overall, per_kind = grad_check_report(model, batch, labels,
                                          corruption=args.corrupt_gradient)
    for kind in dict.fromkeys(layer.kind for layer in model.layers):
        err = per_kind.get(kind)
        line = f"{kind}: no parameters" if err is None else f"{kind}: {err:.3e}"
        print(line)
    print(f"overall: {overall:.3e}")
    if overall < GRADCHECK_THRESHOLD:
        print(f"gradient check passed (threshold {GRADCHECK_THRESHOLD:.1e})")
        return 0
    print(f"gradient check FAILED (threshold {GRADCHECK_THRESHOLD:.1e})",
          file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twistnet",
        description="Combinatorial feature-combination networks on tabular CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{transform,train,eval,gradcheck}")

    t = sub.add_parser("transform", help="expand a CSV into combined features")
    t.add_argument("--input", required=True, help="input CSV path")
    t.add_argument("--output", required=True, help="output CSV path")
    t.add_argument("--label-column", required=True,
                   help="label column name or zero-based index")
    t.add_argument("--m", type=int, default=2, help="subset size (default 2)")
    t.add_argument("--approach", choices=("mult", "pairwise"), default="mult",
                   help="combination operator (default mult)")
    t.add_argument("--augment-original", action="store_true",
                   help="append the raw features after the combined block")
    t.set_defaults(func=cmd_transform)

    tr = sub.add_parser("train", help="train a model from a JSON run config")
    tr.add_argument("--config", required=True, help="run-config JSON path")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint on a CSV")
    ev.add_argument("--checkpoint", required=True, help="checkpoint JSON path")
    ev.add_argument("--input", required=True, help="evaluation CSV path")
    ev.set_defaults(func=cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    gc.add_argument("--config", required=True, help="run-config JSON path")
    gc.add_argument("--corrupt-gradient", type=float, default=0.0,
                    help="test hook: offset added to one analytic gradient entry")
    gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # raised by our error() override and by --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"twistnet: config error: {exc}", file=sys.stderr)
        return 1
    except (CapacityError, MemoryError) as exc:  # numpy names the size it could not allocate
        print(f"twistnet: capacity error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ShapeError) as exc:
        print(f"twistnet: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"twistnet: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
