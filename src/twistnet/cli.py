"""Command-line front end.

Four subcommands tie the pipeline together:

  transform   expand a CSV into combined features and write it back out
  train       fit a model from a JSON run config; write checkpoint + results
  eval        score a saved checkpoint on a CSV, matching columns by name
  gradcheck   finite-difference audit of the analytic gradients

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 capacity.
All diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import Dataset, NormStats, load_csv, save_csv, zscore_apply, zscore_fit
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    ShapeError,
)
from .featcomb import (
    MULTIPLICATIVE,
    PAIRWISE_SUM,
    CombinationSpec,
    combined_feature_names,
    transform_dataset,
)
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
from .ndcore import RNG_ALGORITHM
from .train import (
    TrainConfig,
    evaluate,
    find_check_batch,
    grad_check_report,
    train_loop,
)

GRADCHECK_THRESHOLD = 1e-4

_APPROACH_TOKENS = {
    "mult": MULTIPLICATIVE,
    "multiplicative": MULTIPLICATIVE,
    "pairwise": PAIRWISE_SUM,
    "pairwise_sum": PAIRWISE_SUM,
}

_TOP_FIELDS = {
    "dataset": str,
    "label_column": (str, int),
    "output_dir": str,
    "kind": str,
    "seed": int,
    "model": dict,
    "combination": dict,
    "train": dict,
}
_REQUIRED_TOP = ("dataset", "label_column")


@dataclass
class RunConfig:
    """One training or gradient-check run, fully resolved."""

    dataset: str
    label_column: str | int
    output_dir: str = "."
    kind: str = KIND_TCN
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)
    combination: CombinationSpec | None = field(default_factory=CombinationSpec)
    train: TrainConfig = field(default_factory=TrainConfig)


def normalize_approach(token: str) -> str:
    if token not in _APPROACH_TOKENS:
        raise ConfigError(
            f"unknown approach {token!r}; expected one of {sorted(_APPROACH_TOKENS)}"
        )
    return _APPROACH_TOKENS[token]


def _schema(cls) -> dict:
    """Config key -> type, read off the dataclass defaults; the seed is set
    once at the top level, so the sections do not accept it."""
    return {f.name: type(f.default) for f in fields(cls) if f.name != "seed"}


def _type_ok(value, expected) -> bool:
    # bool is checked before int: isinstance(True, int) holds in Python
    if expected is bool or expected == (bool,):
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def _check_section(section: str, doc: dict, fields: dict, problems: list[str]) -> dict:
    """Strict key/type screening; returns only the clean entries."""
    where = f" in '{section}'" if section else ""
    clean = {}
    for key, value in doc.items():
        if key not in fields:
            hint = difflib.get_close_matches(key, sorted(fields), n=1, cutoff=0.6)
            suggest = f" (did you mean '{hint[0]}'?)" if hint else ""
            problems.append(f"unknown key '{key}'{where}{suggest}")
            continue
        expected = fields[key]
        if not _type_ok(value, expected):
            name = expected.__name__ if isinstance(expected, type) else "string or integer"
            problems.append(
                f"key '{key}'{where} expects {name}, got {type(value).__name__}"
            )
            continue
        clean[key] = value
    return clean


def parse_run_config(doc) -> RunConfig:
    """Validate a run-config JSON document. Unknown keys are errors, never
    warnings, and every offending key is reported in one pass."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    problems: list[str] = []
    top = dict(doc)
    absent = object()
    comb_doc = top.pop("combination", absent)
    skip_combination = comb_doc is None
    if comb_doc is None or comb_doc is absent:
        comb_doc = {}
    top = _check_section("", top, _TOP_FIELDS, problems)
    for key in _REQUIRED_TOP:
        if key not in top:
            problems.append(f"missing required key '{key}'")
    model_doc = _check_section("model", top.pop("model", {}), _schema(ModelConfig), problems)
    train_doc = _check_section("train", top.pop("train", {}), _schema(TrainConfig), problems)
    if not isinstance(comb_doc, dict):
        problems.append("key 'combination' expects an object or null")
        comb_doc = {}
    comb_doc = _check_section("combination", comb_doc, _schema(CombinationSpec), problems)

    kind = top.get("kind", KIND_TCN)
    if "kind" in top and kind not in MODEL_KINDS:
        problems.append(f"key 'kind' must be one of {list(MODEL_KINDS)}, got {kind!r}")
    if "approach" in comb_doc:
        try:
            comb_doc["approach"] = normalize_approach(comb_doc["approach"])
        except ConfigError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))

    seed = top.get("seed", 0)
    return RunConfig(
        dataset=top["dataset"],
        label_column=top["label_column"],
        output_dir=top.get("output_dir", "."),
        kind=kind,
        seed=seed,
        model=ModelConfig(seed=seed, **model_doc),
        combination=None if skip_combination else CombinationSpec(**comb_doc),
        train=TrainConfig(seed=seed, **train_doc),
    )


def load_run_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_run_config(doc)


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _combine(ds: Dataset, spec: CombinationSpec | None):
    """Expand ``ds`` over every m-subset of its features and name the new
    columns. Returns (combined dataset, subsets); without a spec, ``ds``
    passes through unchanged with subsets None."""
    if spec is None:
        return ds, None
    combined = transform_dataset(ds.features, spec)
    names = combined_feature_names(combined.subsets, spec, ds.feature_names)
    return replace(ds, features=combined.values, feature_names=names), combined.subsets


def _prepare_training_data(rc: RunConfig):
    """Load, combine, and standardize the training file.

    Returns (raw dataset, model-ready dataset, subsets or None, NormStats).
    """
    raw = load_csv(rc.dataset, rc.label_column)
    work, subsets = _combine(raw, rc.combination)
    stats = zscore_fit(work)
    return raw, zscore_apply(work, stats), subsets, stats


def _build_model(rc: RunConfig, input_dim: int, n_classes: int):
    rc.model.seed = rc.seed
    if rc.kind == KIND_TCN:
        return build_tcn(input_dim, n_classes, rc.model)
    return build_baseline(rc.kind, input_dim, n_classes, rc.model)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_transform(args) -> int:
    ds = load_csv(args.input, args.label_column)
    spec = CombinationSpec(
        m=args.m,
        approach=normalize_approach(args.approach),
        augment_original=args.augment_original,
    )
    out, _ = _combine(ds, spec)
    save_csv(out, args.output)
    return 0


def cmd_train(args) -> int:
    rc = load_run_config(args.config)
    if args.seed is not None:
        rc.seed = args.seed
    if args.output is not None:
        rc.output_dir = args.output
    rc.train.seed = rc.seed

    start = time.perf_counter()
    raw, prepared, subsets, stats = _prepare_training_data(rc)
    model = _build_model(rc, prepared.n_features, prepared.n_classes)
    model, history = train_loop(model, prepared, rc.train)
    train_metrics = evaluate(model, prepared)
    wall = time.perf_counter() - start

    best = history.epochs[history.best_epoch - 1] if history.best_epoch else None
    final_metrics = {
        "train_accuracy": train_metrics.accuracy,
        "train_loss": train_metrics.mean_loss,
        "val_accuracy": best.val_accuracy if best else None,
        "val_loss": best.val_loss if best else None,
        "best_epoch": history.best_epoch,
        "stopped_epoch": history.stopped_epoch,
    }
    config = asdict(rc)
    del config["model"]["seed"], config["train"]["seed"]  # set once, at the top
    results = {
        "config": config,
        "history": [asdict(record) for record in history.epochs],
        "final_metrics": final_metrics,
        "wall_time_seconds": wall,
        "rng_algorithm": RNG_ALGORITHM,
    }

    os.makedirs(rc.output_dir, exist_ok=True)
    ckpt = Checkpoint(
        model=model, config=rc.model, combination=rc.combination, subsets=subsets,
        norm_mean=stats.mean, norm_std=stats.std,
        feature_names=raw.feature_names, class_names=raw.class_names,
        label_column=raw.label_name, seed=rc.seed,
    )
    save_checkpoint(os.path.join(rc.output_dir, "checkpoint.json"), ckpt)
    with open(os.path.join(rc.output_dir, "results.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(json.dumps(final_metrics, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    ds = load_csv(args.input, ckpt.label_column)

    missing = [n for n in ckpt.feature_names if n not in ds.feature_names]
    extra = [n for n in ds.feature_names if n not in ckpt.feature_names]
    if missing or extra:
        raise DataError(
            f"feature columns do not match checkpoint: missing {missing}, extra {extra}"
        )
    order = [ds.feature_names.index(n) for n in ckpt.feature_names]

    class_index = {name: i for i, name in enumerate(ckpt.class_names)}
    unknown = sorted(set(ds.class_names) - set(class_index))
    if unknown:
        raise DataError(f"labels not present at training time: {unknown}")
    labels = np.array([class_index[ds.class_names[v]] for v in ds.labels], dtype=np.int64)

    raw = Dataset(ds.features[:, order], labels, ckpt.class_names, ckpt.feature_names,
                  label_name=ckpt.label_column)
    work, subsets = _combine(raw, ckpt.combination)
    if ckpt.subsets is not None and subsets != ckpt.subsets:
        raise DataError("checkpoint subsets do not match the combination spec")
    if ckpt.norm_mean is not None:
        work = zscore_apply(work, NormStats(ckpt.norm_mean, ckpt.norm_std))
    result = evaluate(ckpt.model, work)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_gradcheck(args) -> int:
    rc = load_run_config(args.config)
    if args.seed is not None:
        rc.seed = args.seed
    _, prepared, _, _ = _prepare_training_data(rc)
    model = _build_model(rc, prepared.n_features, prepared.n_classes)
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
    tr.add_argument("--output", help="override the config's output directory")
    tr.add_argument("--seed", type=int, help="override the config's seed")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score a checkpoint on a CSV")
    ev.add_argument("--checkpoint", required=True, help="checkpoint JSON path")
    ev.add_argument("--input", required=True, help="evaluation CSV path")
    ev.set_defaults(func=cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    gc.add_argument("--config", required=True, help="run-config JSON path")
    gc.add_argument("--seed", type=int, help="override the config's seed")
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
    except CapacityError as exc:
        print(f"twistnet: capacity error: {exc}", file=sys.stderr)
        return 3
    except (DataError, ShapeError) as exc:
        print(f"twistnet: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"twistnet: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"twistnet: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
