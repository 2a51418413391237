"""Dataset ingestion, preprocessing, splitting, and synthetic task generators.

CSV handling is deliberately plain: UTF-8, comma-separated, a header row,
decimal floats, no quoting or escaping. Labels are encoded by first
appearance so the mapping is auditable and survives checkpointing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError, SchemaError
from .featcomb import (
    CombinationSpec,
    block_rows,
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
    Label strings are encoded by first appearance. Each data row stays one
    string until it is parsed, so the cells never all exist at once.
    """
    path = Path(path)
    rows = [ln for ln in read_text(path).splitlines() if ln != ""]
    if not rows:
        raise SchemaError(f"{path}: file is empty")
    header, *rows = rows
    header = header.split(",")
    width = len(header)
    for i, row in enumerate(rows, 1):
        cells = row.count(",") + 1
        if cells != width:
            raise ParseError(f"{path}: data row {i} has {cells} cells, expected {width}")

    header = [h.strip() for h in header]
    if len(set(header)) < width:
        repeated = next(h for i, h in enumerate(header) if h in header[:i])
        raise SchemaError(f"{path}: header repeats column {repeated!r}")
    if not rows:
        raise SchemaError(f"{path}: no data rows")

    if isinstance(label_column, str) and label_column in header:
        label_idx = header.index(label_column)
    elif isinstance(label_column, int) or label_column.removeprefix("-").isdecimal():
        label_idx = int(label_column)
        if not 0 <= label_idx < width:
            raise SchemaError(f"label column index {label_idx} out of range for {width} columns")
    else:
        raise SchemaError(f"label column {label_column!r} not found in header {header}")
    label_name = header.pop(label_idx)  # from here on header holds features only
    if not header:
        raise SchemaError(f"{path}: no feature columns besides the label column {label_name!r}")

    features = np.empty((len(rows), width - 1))
    labels = np.empty(len(rows), dtype=np.int64)
    class_index: dict[str, int] = {}
    for r, line in enumerate(rows):
        row = line.split(",")
        labels[r] = class_index.setdefault(row.pop(label_idx).strip(), len(class_index))
        try:
            features[r] = [float(cell) for cell in row]
        except ValueError:
            for c, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(f"{path}: cannot parse cell {cell!r} at data row {r + 1}, "
                                     f"column {header[c]!r} as a float") from None
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        r, c = bad[0]
        row = rows[r].split(",")
        del row[label_idx]
        raise ParseError(f"{path}: non-finite cell {row[c]!r} at data row {r + 1}, "
                         f"column {header[c]!r}")
    return Dataset(features, labels, list(class_index), header, label_name=label_name)


def save_csv(ds: Dataset, path) -> None:
    """Write features (full-precision decimal) and label strings with a header,
    one row at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(ds.feature_names + [ds.label_name]) + "\n")
        for row, label in zip(ds.features, ds.labels):
            fh.write(",".join([*map(repr, row.tolist()), ds.class_names[label]]) + "\n")


def zscore_fit(train: Dataset) -> NormStats:
    """Population mean/std per feature; constant features get std 1.

    The variance folds the squared deviations of one row block at a time
    into a running row, carried in through each block's first row, so no
    temporary is larger than a block. numpy sums axis 0 of a C-ordered
    block of two or more columns row by row, so on such input the result is
    byte-equal to ``np.mean`` and ``np.std(axis=0)``. Any other input (one
    column, F-ordered, a column slice) goes to ``np.std`` itself: there
    numpy may sum a column pairwise, which no row fold reproduces, so it
    keeps the bytes and pays one full-size temporary.
    """
    x = train.features
    mean = x.mean(axis=0)
    if x.flags.c_contiguous and x.shape[1] > 1:
        acc = np.zeros_like(mean)
        height = block_rows(x.shape[1])
        for start in range(0, x.shape[0], height):
            d = x[start : start + height] - mean
            d *= d
            d[0] += acc
            np.add.reduce(d, axis=0, out=acc)
        acc /= x.shape[0]
        std = np.sqrt(acc, out=acc)
    else:
        std = x.std(axis=0)
    std = np.where(std < ZSCORE_STD_FLOOR, 1.0, std)
    return NormStats(mean=mean, std=std)


def zscore_apply(ds: Dataset, stats: NormStats) -> Dataset:
    """Normalise ``ds.features`` in place by ``stats``; returns ``ds`` with
    ``norm_stats`` set, sharing its features. The caller must own the block."""
    ds.features -= stats.mean
    ds.features /= stats.std
    return replace(ds, norm_stats=stats)


def combine(ds: Dataset, spec: CombinationSpec | None):
    """Expand ``ds`` over every m-subset of its features and name the new
    columns. Returns (combined dataset, subsets); without a spec, ``ds``
    passes through unchanged with subsets None. DataError naming the first
    row and column whose combined value is not finite; the check runs one
    row block at a time, so it never builds a mask of the whole block."""
    if spec is None:
        return ds, None
    with np.errstate(over="ignore", invalid="ignore"):  # checked and named below
        combined = transform_dataset(ds.features, spec)
    names = combined_feature_names(combined.subsets, spec, ds.feature_names)
    values = combined.values
    height = block_rows(values.shape[1])
    for start in range(0, values.shape[0], height):
        block = values[start : start + height]
        if not np.isfinite(block).all():
            r, c = np.argwhere(~np.isfinite(block))[0]
            raise DataError(f"combined column {names[c]!r} overflows at data row "
                            f"{start + r + 1}")
    return replace(ds, features=values, feature_names=names), combined.subsets


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
        dataset, whose block is z-scored in place: the expanded block, or a
        C-ordered copy of ``raw``'s features without a spec, never ``raw``'s
        own. DataError if ``raw`` holds fewer than 2 classes."""
        if raw.n_classes < 2:
            raise DataError(f"label column {raw.label_name!r} holds {raw.n_classes} class, "
                            "need at least 2")
        work, subsets = combine(raw, spec)
        if work is raw:
            work = replace(raw, features=raw.features.copy())
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
        lookup = np.array([class_index[name] for name in ds.class_names], dtype=np.int64)
        labels = lookup[ds.labels]
        work, _ = combine(Dataset(ds.features[:, order], labels, self.class_names,
                                  self.feature_names, label_name=self.label_column),
                          self.combination)
        return zscore_apply(work, NormStats(self.norm_mean, self.norm_std))

    def check(self) -> None:
        """DataError unless the combination is valid for the features and the
        stats hold one finite mean and one finite std of at least
        ``ZSCORE_STD_FLOOR``, the least std a fit keeps, per combined column."""
        spec, names = self.combination, self.feature_names
        if spec is not None:
            try:
                spec.validate()
                made = enumerate_subsets(len(names), spec.m)
            except ConfigError as exc:
                raise DataError(f"'combination': {exc}") from None
            names = combined_feature_names(made, spec, names)
        if not len(self.norm_mean) == len(self.norm_std) == len(names):
            raise DataError(f"normalization stats have {len(self.norm_mean)} means and "
                            f"{len(self.norm_std)} stds for {len(names)} combined columns")
        for key, values, floor in (("mean", self.norm_mean, -np.inf),
                                   ("std", self.norm_std, ZSCORE_STD_FLOOR)):
            bad = np.flatnonzero(~(np.isfinite(values) & (values >= floor)))
            if bad.size:
                raise DataError(f"normalization stats: {key!r} of column {names[bad[0]]!r} "
                                f"is {values[bad[0]]}, not a finite number of at least {floor}")


def stratified_split(ds: Dataset, fractions, rng: Rng) -> tuple[Dataset, Dataset, Dataset]:
    """The three datasets of :func:`split_rows`' row indices."""
    return tuple(ds.take(rows) for rows in split_rows(ds, fractions, rng))


def split_rows(ds: Dataset, fractions, rng: Rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted row indices of a per-class proportional split with
    largest-remainder rounding.

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
    return tuple(np.array(sorted(p), dtype=np.int64) for p in parts)


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
