"""Dataset ingestion, preprocessing, splitting, and synthetic task generators.

CSV handling is deliberately plain: UTF-8, comma-separated, a header row,
decimal floats, no quoting or escaping. Labels are encoded by first
appearance so the mapping is auditable and survives checkpointing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, ParseError, SchemaError
from .featcomb import (
    CombinationSpec,
    combined_feature_names,
    enumerate_subsets,
    transform_dataset,
)
from .ndcore import Rng

ZSCORE_STD_FLOOR = 1e-12  # below this a feature counts as constant; std sentinel 1


@dataclass
class NormStats:
    """Per-feature mean and std fitted on training data."""

    mean: np.ndarray
    std: np.ndarray


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_names: list[str]
    feature_names: list[str]
    norm_stats: NormStats | None = None
    label_name: str = "label"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names must match feature columns")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise ValueError("labels out of range for class_names")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, features=self.features[idx], labels=self.labels[idx])


def read_text(path, error=ParseError) -> str:
    """The UTF-8 text of ``path``; ``error`` naming the file if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def load_csv(path, label_column) -> Dataset:
    """Read a plain CSV, whose first row is the header, into a Dataset.

    ``label_column`` is a header name or a zero-based column index; a string
    that names a header column is that column, even when it is all digits.
    Label strings are encoded by first appearance.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    lines = [ln for ln in read_text(path).splitlines() if ln != ""]
    if not lines:
        raise SchemaError(f"{path}: file is empty")
    cells = [ln.split(",") for ln in lines]
    width = len(cells[0])
    for i, row in enumerate(cells):  # cells[0] is the header, so i is the data row
        if len(row) != width:
            raise ParseError(f"{path}: data row {i} has {len(row)} cells, expected {width}")

    header = [h.strip() for h in cells[0]]
    rows = cells[1:]
    if len(set(header)) < width:
        repeated = next(h for i, h in enumerate(header) if h in header[:i])
        raise SchemaError(f"{path}: header repeats column {repeated!r}")
    if not rows:
        raise SchemaError(f"{path}: no data rows")

    if isinstance(label_column, str) and label_column in header:
        label_idx = header.index(label_column)
    elif isinstance(label_column, int) or label_column.lstrip("-").isdigit():
        label_idx = int(label_column)
        if not 0 <= label_idx < width:
            raise SchemaError(f"label column index {label_idx} out of range for {width} columns")
    else:
        raise SchemaError(f"label column {label_column!r} not found in header {header}")
    label_name = header[label_idx]

    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    features = np.empty((len(rows), width - 1))
    labels = np.empty(len(rows), dtype=np.int64)
    class_names: list[str] = []
    class_index: dict[str, int] = {}
    for r, row in enumerate(rows):
        c_out = 0
        for c, cell in enumerate(row):
            if c == label_idx:
                name = cell.strip()
                if name not in class_index:
                    class_index[name] = len(class_names)
                    class_names.append(name)
                labels[r] = class_index[name]
            else:
                try:
                    features[r, c_out] = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: cannot parse cell {cell!r} at data row {r + 1}, "
                        f"column {feature_names[c_out]!r} as a float"
                    ) from None
                c_out += 1
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        r, c = bad[0]
        cell = rows[r][c + (c >= label_idx)]
        raise ParseError(
            f"{path}: non-finite cell {cell!r} at data row {r + 1}, "
            f"column {feature_names[c]!r}"
        )
    return Dataset(features, labels, class_names, feature_names, label_name=label_name)


def save_csv(ds: Dataset, path) -> None:
    """Write features (full-precision decimal) and label strings with a header."""
    lines = [",".join(ds.feature_names + [ds.label_name])]
    for i in range(ds.n_samples):
        cells = [repr(float(v)) for v in ds.features[i]]
        cells.append(ds.class_names[ds.labels[i]])
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def zscore_fit(train: Dataset) -> NormStats:
    """Population mean/std per feature; constant features get std 1."""
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.where(std < ZSCORE_STD_FLOOR, 1.0, std)
    return NormStats(mean=mean, std=std)


def zscore_apply(ds: Dataset, stats: NormStats) -> Dataset:
    normed = ds.features - stats.mean
    normed /= stats.std
    return replace(ds, features=normed, norm_stats=stats)


def combine(ds: Dataset, spec: CombinationSpec | None):
    """Expand ``ds`` over every m-subset of its features and name the new
    columns. Returns (combined dataset, subsets); without a spec, ``ds``
    passes through unchanged with subsets None. DataError naming the row and
    the column if a combined value is not finite."""
    if spec is None:
        return ds, None
    with np.errstate(over="ignore", invalid="ignore"):  # checked and named below
        combined = transform_dataset(ds.features, spec)
    names = combined_feature_names(combined.subsets, spec, ds.feature_names)
    if not np.isfinite(combined.values).all():
        r, c = np.argwhere(~np.isfinite(combined.values))[0]
        raise DataError(f"combined column {names[c]!r} overflows at data row {r + 1}")
    return replace(ds, features=combined.values, feature_names=names), combined.subsets


@dataclass
class Pipeline:
    """The steps from a raw CSV to model input, as fitted on a training file:
    its feature and class order, its label column, the feature combination
    with its subsets (None when not recorded), and the z-score stats of the
    combined columns."""

    feature_names: list[str]
    class_names: list[str]
    label_column: str
    combination: CombinationSpec | None
    subsets: list[tuple[int, ...]] | None
    norm_mean: np.ndarray
    norm_std: np.ndarray

    @staticmethod
    def fit(raw: Dataset, spec: CombinationSpec | None) -> tuple["Pipeline", Dataset]:
        """Fit on ``raw``; returns the checked pipeline and the model-ready
        dataset. DataError if ``raw`` holds fewer than 2 classes."""
        if raw.n_classes < 2:
            raise DataError(f"label column {raw.label_name!r} holds {raw.n_classes} class, "
                            "need at least 2")
        work, subsets = combine(raw, spec)
        with np.errstate(over="ignore", invalid="ignore"):  # check() names the column
            stats = zscore_fit(work)
        pipeline = Pipeline(raw.feature_names, raw.class_names, raw.label_name, spec,
                            subsets, stats.mean, stats.std)
        pipeline.check()
        return pipeline, zscore_apply(work, stats)

    def apply(self, ds: Dataset) -> Dataset:
        """Model input from ``ds``: its columns matched to the fitted ones by
        name, its labels mapped to the fitted classes, then combined and
        z-scored. DataError on a missing or extra column or an unknown label."""
        missing = [n for n in self.feature_names if n not in ds.feature_names]
        extra = [n for n in ds.feature_names if n not in self.feature_names]
        if missing or extra:
            raise DataError(f"feature columns do not match training: missing {missing}, "
                            f"extra {extra}")
        order = [ds.feature_names.index(n) for n in self.feature_names]
        class_index = {name: i for i, name in enumerate(self.class_names)}
        unknown = sorted(set(ds.class_names) - set(class_index))
        if unknown:
            raise DataError(f"labels not present at training time: {unknown}")
        labels = [class_index[ds.class_names[v]] for v in ds.labels]
        work, _ = combine(Dataset(ds.features[:, order], labels, self.class_names,
                                  self.feature_names, label_name=self.label_column),
                          self.combination)
        return zscore_apply(work, NormStats(self.norm_mean, self.norm_std))

    def check(self) -> None:
        """DataError unless the combination is valid for the features and the
        stats hold one finite mean and one finite std above 0 per combined
        column."""
        spec, names = self.combination, self.feature_names
        if spec is not None:
            try:
                spec.validate()
                made = enumerate_subsets(len(names), spec.m, spec.max_combined)
            except ValueError as exc:
                raise DataError(f"'combination': {exc}") from None
            names = combined_feature_names(made, spec, names)
        if not len(self.norm_mean) == len(self.norm_std) == len(names):
            raise DataError(f"normalization stats have {len(self.norm_mean)} means and "
                            f"{len(self.norm_std)} stds for {len(names)} combined columns")
        for key, values, floor in (("mean", self.norm_mean, -np.inf),
                                   ("std", self.norm_std, 0.0)):
            bad = np.flatnonzero(~((values > floor) & (values < np.inf)))
            if bad.size:
                raise DataError(f"normalization stats: {key!r} of column {names[bad[0]]!r} "
                                f"is {values[bad[0]]}, not a finite number above {floor}")


def stratified_split(ds: Dataset, fractions, rng: Rng) -> tuple[Dataset, Dataset, Dataset]:
    """Per-class proportional split with largest-remainder rounding.

    ``fractions`` is (train, val, test); zero entries yield empty splits.
    Within each class the sample order is shuffled by ``rng``. DataError if
    a class has fewer samples than the nonzero fractions.
    """
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise ValueError("fractions must be three non-negative numbers")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    active = sum(1 for f in fractions if f > 0)
    parts: list[list[int]] = [[], [], []]
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == c)
        if members.size == 0:
            continue
        if members.size < active:
            raise DataError(
                f"class {ds.class_names[c]!r} has {members.size} samples, "
                f"fewer than the {active} splits requiring it"
            )
        members = members[rng.permutation(members.size)]
        quotas = [members.size * f for f in fractions]
        counts = [int(np.floor(q)) for q in quotas]
        remainders = [q - c_ for q, c_ in zip(quotas, counts)]
        short = members.size - sum(counts)
        # hand leftovers to the largest remainders; ties resolve in split order
        for pos in sorted(range(3), key=lambda i: -remainders[i])[:short]:
            counts[pos] += 1
        offset = 0
        for s in range(3):
            parts[s].extend(members[offset : offset + counts[s]].tolist())
            offset += counts[s]
    return tuple(ds.take(sorted(p)) for p in parts)


PRODUCT_SIGN = "ProductSign"
THREE_WAY_PRODUCT_SIGN = "ThreeWayProductSign"


def synth_interaction(n_samples: int, n_features: int, rule: str,
                      noise_std: float, rng: Rng) -> Dataset:
    """Gaussian features with a label carried only by a feature interaction.

    ProductSign labels the sign of x0*x1, ThreeWayProductSign the sign of
    x0*x1*x2. Feature noise of ``noise_std`` is folded into the stored
    features, and labels reflect the stored features, so the task stays
    fully learnable from what the model sees. No single feature carries
    any linear signal about the label.
    """
    if rule not in (PRODUCT_SIGN, THREE_WAY_PRODUCT_SIGN):
        raise ValueError(f"unknown rule {rule!r}")
    order = 2 if rule == PRODUCT_SIGN else 3
    if n_features < order:
        raise ValueError(f"{rule} needs at least {order} features, got {n_features}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")
    x = rng.normal(n_samples * n_features).reshape(n_samples, n_features)
    if noise_std > 0:
        x = x + noise_std * rng.normal(n_samples * n_features).reshape(n_samples, n_features)
    labels = (np.prod(x[:, :order], axis=1) > 0).astype(np.int64)
    return Dataset(
        features=x,
        labels=labels,
        class_names=["neg", "pos"],
        feature_names=[f"x{i}" for i in range(n_features)],
    )
