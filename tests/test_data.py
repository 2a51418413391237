"""CSV ingestion, normalization, stratified splitting, synthetic tasks."""

from dataclasses import replace

import numpy as np
import pytest

from twistnet.data import (
    PRODUCT_SIGN,
    THREE_WAY_PRODUCT_SIGN,
    ZSCORE_STD_FLOOR,
    Dataset,
    NormStats,
    Pipeline,
    load_csv,
    save_csv,
    stratified_split,
    synth_interaction,
    zscore_apply,
    zscore_fit,
)
from twistnet.errors import DataError, ParseError, SchemaError
from twistnet.featcomb import PAIRWISE_SUM, CombinationSpec, block_rows
from twistnet.ndcore import Rng

from helpers import save_csv_reference, traced_peak


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros(3, dtype=int), ["a"], ["f0"])
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), ["a"], ["f0", "f1"])
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), ["a"], ["f0"])
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1)), np.array([0, 1]), ["only"], ["f0"])


def test_dataset_properties_and_take():
    ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([0, 1, 0]), ["a", "b"], ["x", "y"])
    assert ds.n_samples == 3 and ds.n_features == 2 and ds.n_classes == 2
    sub = ds.take([2, 0])
    assert sub.features.tolist() == [[4.0, 5.0], [0.0, 1.0]]
    assert sub.labels.tolist() == [0, 0]
    assert sub.class_names == ["a", "b"] and sub.feature_names == ["x", "y"]


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------

def test_load_csv_first_appearance_encoding(tmp_path):
    p = write(tmp_path, "a,b,label\n1.0,2.0,pos\n3.5,-1.0,neg\n0.25,4.0,pos\n")
    ds = load_csv(p, "label")
    assert ds.feature_names == ["a", "b"]
    assert ds.label_name == "label"
    assert ds.class_names == ["pos", "neg"]  # order of first appearance
    assert ds.labels.tolist() == [0, 1, 0]
    assert ds.features.tolist() == [[1.0, 2.0], [3.5, -1.0], [0.25, 4.0]]


def test_load_csv_label_by_index(tmp_path):
    p = write(tmp_path, "x,y,z\n1,2,3\n4,5,6\n")
    ds = load_csv(p, 1)
    assert ds.feature_names == ["x", "z"]
    assert ds.label_name == "y"
    assert ds.class_names == ["2", "5"]
    assert ds.features.tolist() == [[1.0, 3.0], [4.0, 6.0]]
    # a digit string behaves like the integer index
    assert load_csv(p, "1").labels.tolist() == ds.labels.tolist()


def test_load_csv_label_name_before_index(tmp_path):
    p = write(tmp_path, "a,b,7,c\n1,2,x,3\n4,5,y,6\n")
    by_index = load_csv(p, 2)
    assert by_index.label_name == "7"
    assert load_csv(p, "7").labels.tolist() == by_index.labels.tolist()
    # a digit string that names no column is still an index
    assert load_csv(p, "2").label_name == "7"


def test_load_csv_parse_error_names_row_and_column(tmp_path):
    p = write(tmp_path, "a,b,label\n1.0,2.0,pos\n3.5,oops,neg\n")
    with pytest.raises(ParseError) as exc:
        load_csv(p, "label")
    msg = str(exc.value)
    assert "data row 2" in msg and "'b'" in msg and "oops" in msg
    # every cell is parsed before any is checked for being finite
    p = write(tmp_path, "label,a\n0,1.0\n1,inf\n4,x\n", name="inf_first.csv")
    with pytest.raises(ParseError, match="cannot parse cell 'x' at data row 3, column 'a'"):
        load_csv(p, "label")


def test_load_csv_non_finite_cell_names_row_and_column(tmp_path):
    # the label sits first, so feature column 'b' is the file's third cell
    p = write(tmp_path, "label,a,b\npos,1.0,2.0\nneg,3.5,inf\npos,nan,1.0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(p, "label")
    msg = str(exc.value)
    assert "data row 2" in msg and "'b'" in msg and "'inf'" in msg


def test_load_csv_ragged_row_rejected(tmp_path):
    p = write(tmp_path, "a,b,label\n1.0,2.0,pos\n\n3.5,neg\n")  # blank lines are skipped
    with pytest.raises(ParseError, match="data row 2 has 2 cells, expected 3"):
        load_csv(p, "label")
    # every row's width is checked before any cell is parsed
    p = write(tmp_path, "a,b,label\n1.0,oops,pos\n3.5,neg\n", name="bad_cell_first.csv")
    with pytest.raises(ParseError, match="data row 2 has 2 cells, expected 3"):
        load_csv(p, "label")


def test_load_csv_label_column_only(tmp_path):
    # a model needs at least one input, so a file of labels alone is refused
    path = write(tmp_path, "label\nb\na\nb\n")
    with pytest.raises(SchemaError) as exc:
        load_csv(path, "label")
    assert str(exc.value) == f"{path}: no feature columns besides the label column 'label'"


def test_load_csv_schema_errors(tmp_path):
    p = write(tmp_path, "a,b,label\n1.0,2.0,pos\n")
    with pytest.raises(SchemaError):
        load_csv(p, "klass")
    with pytest.raises(SchemaError):
        load_csv(p, 5)
    empty = write(tmp_path, "", name="empty.csv")
    with pytest.raises(SchemaError):
        load_csv(empty, "label")
    header_only = write(tmp_path, "a,b,label\n", name="header_only.csv")
    with pytest.raises(SchemaError, match="no data rows"):
        load_csv(header_only, "label")
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "missing.csv", "label")


def test_load_csv_rejects_repeated_header_name(tmp_path):
    p = write(tmp_path, "x0,x0,x2,label\n1.0,2.0,3.0,pos\n")
    with pytest.raises(SchemaError, match="'x0'"):
        load_csv(p, "label")


def test_save_load_roundtrip_bit_exact(tmp_path):
    # repr of a float round-trips, so saved features reload identically
    feats = np.array([[0.1, 1.0 / 3.0], [1e-17, -5.5], [1234.5678, 2.0**-40]])
    ds = Dataset(feats, np.array([0, 1, 0]), ["pos", "neg"], ["u", "v"], label_name="cls")
    p = tmp_path / "round.csv"
    save_csv(ds, p)
    back = load_csv(p, "cls")
    assert np.array_equal(back.features, ds.features)
    assert back.labels.tolist() == ds.labels.tolist()
    assert back.class_names == ds.class_names
    assert back.feature_names == ds.feature_names
    assert back.label_name == "cls"
    # saving the reloaded dataset reproduces the same bytes
    q = tmp_path / "round2.csv"
    save_csv(back, q)
    assert q.read_text() == p.read_text()


def test_save_csv_bytes_match_reference(tmp_path):
    feats = np.array([[-0.0, 5e-324, 1e308], [np.nan, np.inf, -np.inf], [3.0, -2.0, 1e16]])
    ds = Dataset(feats, np.array([0, 1, 0]), ["neg class", "pos"], ["u", "v", "w"],
                 label_name="my label")
    p = tmp_path / "edge.csv"
    save_csv(ds, p)
    assert p.read_bytes() == save_csv_reference(ds).encode("utf-8")
    assert p.read_text().splitlines()[1] == "-0.0,5e-324,1e+308,neg class"


def test_save_csv_writes_row_by_row(tmp_path):
    # the whole text of a 2000x40 block is about 1.6 MB; no copy of it is held
    ds = synth_interaction(2000, 40, PRODUCT_SIGN, 0.1, Rng(0))
    p = tmp_path / "wide.csv"
    _, peak = traced_peak(save_csv, ds, p)
    assert peak < p.stat().st_size / 4
    assert p.read_bytes() == save_csv_reference(ds).encode("utf-8")


def test_load_csv_holds_no_string_per_cell(tmp_path):
    # a string per cell of a 2000x12 file would cost several times its size
    ds = synth_interaction(2000, 12, PRODUCT_SIGN, 0.1, Rng(0))
    p = tmp_path / "rows.csv"
    save_csv(ds, p)
    loaded, peak = traced_peak(load_csv, p, "label")
    assert peak < 3 * p.stat().st_size
    assert np.array_equal(loaded.features, ds.features)


# ---------------------------------------------------------------------------
# z-score normalization
# ---------------------------------------------------------------------------

def test_zscore_two_point_column():
    ds = Dataset(np.array([[1.0], [3.0]]), np.array([0, 1]), ["a", "b"], ["x"])
    stats = zscore_fit(ds)
    assert stats.mean.tolist() == [2.0]
    assert stats.std.tolist() == [1.0]
    out = zscore_apply(ds, stats)
    assert out.features.tolist() == [[-1.0], [1.0]]
    assert out.norm_stats is stats
    assert ds.norm_stats is None  # original untouched


def test_zscore_apply_normalises_in_place():
    # the caller's block is normalised where it lies; nothing full-size is allocated
    r = np.random.default_rng(1)
    ds = Dataset(r.normal(size=(2000, 100)), np.zeros(2000, dtype=int), ["only"],
                 [f"f{i}" for i in range(100)])
    stats = zscore_fit(ds)
    before = ds.features.copy()
    out, peak = traced_peak(zscore_apply, ds, stats)
    assert np.shares_memory(out.features, ds.features)
    assert peak < 0.05 * ds.features.nbytes
    assert out.features.tobytes() == ((before - stats.mean) / stats.std).tobytes()


def fold_case(rows, width=40):
    """A C-ordered block with a constant column, a column of -0.0 and a
    column offset by 1e8 among scaled normal ones."""
    r = np.random.default_rng(rows)
    x = r.normal(size=(rows, width)) * np.geomspace(1e-3, 1e3, width) + r.normal(size=width)
    x[:, 0] = 7.25
    x[:, 1] = -0.0
    x[:, 2] += 1e8
    return x


def numpy_stats(x):
    std = np.std(x, axis=0)
    return np.mean(x, axis=0), np.where(std < ZSCORE_STD_FLOOR, 1.0, std)


BLOCK = block_rows(40)


@pytest.mark.parametrize("rows", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_zscore_fit_fold_matches_numpy_bytes(rows):
    x = fold_case(rows)
    stats = zscore_fit(Dataset(x, np.zeros(rows, dtype=int), ["only"],
                               [f"f{i}" for i in range(x.shape[1])]))
    mean, std = numpy_stats(x)
    assert stats.mean.tobytes() == mean.tobytes()
    assert stats.std.tobytes() == std.tobytes()
    assert stats.std[0] == stats.std[1] == 1.0  # constant columns hit the floor


@pytest.mark.parametrize("layout", ["fortran", "one_column", "column_slice"])
def test_zscore_fit_other_layouts_take_numpy_std(layout):
    # anything but a C-ordered block of two or more columns gets np.std's own
    # bytes: F order and a single column are summed pairwise, unlike a row fold
    x = fold_case(2 * BLOCK + 1)
    if layout == "fortran":
        x = np.asfortranarray(x)
    elif layout == "one_column":
        x = np.tile(x[:, 3:4], (2 * block_rows(1) // x.shape[0] + 1, 1))  # past two blocks
    else:
        x = x[:, ::2]
    stats = zscore_fit(Dataset(x, np.zeros(x.shape[0], dtype=int), ["only"],
                               [f"f{i}" for i in range(x.shape[1])]))
    mean, std = numpy_stats(x)
    assert stats.mean.tobytes() == mean.tobytes()
    assert stats.std.tobytes() == std.tobytes()
    if layout == "fortran":  # the bits differ from the C-ordered block's
        assert stats.mean.tobytes() != numpy_stats(np.ascontiguousarray(x))[0].tobytes()


def test_zscore_constant_column_sentinel():
    ds = Dataset(np.full((4, 1), 7.0), np.array([0, 0, 1, 1]), ["a", "b"], ["x"])
    stats = zscore_fit(ds)
    assert stats.std.tolist() == [1.0]
    out = zscore_apply(ds, stats)
    assert np.array_equal(out.features, np.zeros((4, 1)))


def test_zscore_self_consistency():
    r = np.random.default_rng(0)
    feats = r.normal(size=(50, 4)) * np.array([1.0, 10.0, 0.1, 100.0]) + r.normal(size=4)
    ds = Dataset(feats, np.zeros(50, dtype=int), ["only"], [f"f{i}" for i in range(4)])
    out = zscore_apply(ds, zscore_fit(ds))
    assert np.max(np.abs(out.features.mean(axis=0))) < 1e-12
    assert np.max(np.abs(out.features.std(axis=0) - 1.0)) < 1e-9


def test_zscore_population_std():
    # divide by n, not n-1
    ds = Dataset(np.array([[0.0], [2.0], [4.0]]), np.zeros(3, dtype=int), ["c"], ["x"])
    stats = zscore_fit(ds)
    assert abs(stats.std[0] - np.sqrt(8.0 / 3.0)) < 1e-15


# ---------------------------------------------------------------------------
# the preprocessing pipeline
# ---------------------------------------------------------------------------

PIPELINE_SPECS = [None, CombinationSpec(m=2),
                  CombinationSpec(m=3, approach=PAIRWISE_SUM, augment_original=True)]


@pytest.mark.parametrize("spec", PIPELINE_SPECS)
def test_pipeline_apply_reproduces_fit(spec):
    raw = synth_interaction(30, 4, PRODUCT_SIGN, 0.1, Rng(0))
    pipeline, prepared = Pipeline.fit(raw, spec)
    again = pipeline.apply(raw)
    assert np.array_equal(again.features, prepared.features)
    assert again.feature_names == prepared.feature_names
    assert np.array_equal(again.labels, raw.labels)


def test_pipeline_apply_maps_labels_by_class_name():
    # the fitted classes are in first-seen order; another file may list them
    # in another order, or use only some of them, but never a new one
    raw = synth_interaction(30, 4, PRODUCT_SIGN, 0.1, Rng(0))
    pipeline, _ = Pipeline.fit(raw, None)
    names = raw.class_names
    flipped = replace(raw, labels=1 - raw.labels, class_names=names[::-1])
    assert np.array_equal(pipeline.apply(flipped).labels, raw.labels)
    only_second = Dataset(raw.features[:3], np.zeros(3, dtype=int), [names[1]],
                          raw.feature_names)
    out = pipeline.apply(only_second)
    assert out.labels.dtype == np.int64 and out.labels.tolist() == [1, 1, 1]
    unknown = replace(raw, class_names=[names[0], "other"])
    with pytest.raises(DataError, match="labels not present at training time: \\['other'\\]"):
        pipeline.apply(unknown)


@pytest.mark.parametrize("spec", PIPELINE_SPECS)
def test_pipeline_never_writes_the_callers_dataset(spec):
    raw = synth_interaction(30, 4, PRODUCT_SIGN, 0.1, Rng(0))
    before = raw.features.copy()
    pipeline, prepared = Pipeline.fit(raw, spec)
    again = pipeline.apply(raw)
    assert raw.features.tobytes() == before.tobytes()
    assert raw.norm_stats is None
    for out in (prepared, again):
        assert not np.shares_memory(out.features, raw.features)


def test_pipeline_fit_allocates_only_its_output():
    # expansion, finiteness check, fit and normalisation share the one block
    raw = synth_interaction(3000, 20, PRODUCT_SIGN, 0.1, Rng(0))
    (_, prepared), peak = traced_peak(Pipeline.fit, raw, CombinationSpec(m=3))
    assert peak <= 1.1 * prepared.features.nbytes


def test_pipeline_fit_names_the_first_overflow_past_the_first_block():
    # rows 101 and 151 both overflow, in later row blocks; row order comes first
    raw = synth_interaction(200, 40, PRODUCT_SIGN, 0.1, Rng(0))
    assert block_rows(780) < 100
    raw.features[100, [5, 6]] = 1e200
    raw.features[150, [0, 1]] = 1e200
    with pytest.raises(DataError, match="'comb_5_6' overflows at data row 101$"):
        Pipeline.fit(raw, CombinationSpec(m=2))


def test_pipeline_check_names_the_problem():
    raw = synth_interaction(30, 4, PRODUCT_SIGN, 0.1, Rng(0))
    pipeline, _ = Pipeline.fit(raw, CombinationSpec(m=2))
    std = pipeline.norm_std.copy()
    std[2] = np.inf
    for bad, named in [
        (replace(pipeline, norm_mean=pipeline.norm_mean[:5]), "5 means"),
        (replace(pipeline, norm_std=std), "'comb_0_3'"),
        (replace(pipeline, norm_std=-pipeline.norm_std), "'std'"),
        (replace(pipeline, combination=CombinationSpec(m=5)), "m=5"),
    ]:
        with pytest.raises(DataError, match=named):
            bad.check()


# ---------------------------------------------------------------------------
# stratified splitting
# ---------------------------------------------------------------------------

def balanced_dataset(n_per_class=50):
    n = 2 * n_per_class
    feats = np.arange(n, dtype=np.float64).reshape(n, 1)
    labels = np.array([0, 1] * n_per_class)
    return Dataset(feats, labels, ["a", "b"], ["id"])


def test_split_80_20_with_empty_val():
    ds = balanced_dataset(50)
    train, val, test = stratified_split(ds, (0.8, 0.0, 0.2), Rng(0))
    assert train.n_samples == 80 and val.n_samples == 0 and test.n_samples == 20
    assert int((test.labels == 0).sum()) == 10
    assert int((test.labels == 1).sum()) == 10
    assert val.feature_names == ds.feature_names and val.n_classes == 2


def test_split_deterministic():
    ds = balanced_dataset(30)
    a = stratified_split(ds, (0.6, 0.2, 0.2), Rng(7))
    b = stratified_split(ds, (0.6, 0.2, 0.2), Rng(7))
    for x, y in zip(a, b):
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)


def test_split_is_disjoint_union():
    ds = balanced_dataset(17)  # odd size exercises remainder handling
    parts = stratified_split(ds, (0.5, 0.25, 0.25), Rng(3))
    seen = np.concatenate([p.features[:, 0] for p in parts])
    assert sorted(seen.tolist()) == ds.features[:, 0].tolist()


def test_split_per_class_counts_within_one():
    feats = np.zeros((60, 1))
    labels = np.array([0] * 37 + [1] * 23)
    ds = Dataset(feats, labels, ["a", "b"], ["x"])
    fractions = (0.6, 0.2, 0.2)
    parts = stratified_split(ds, fractions, Rng(1))
    for c, class_size in ((0, 37), (1, 23)):
        for part, f in zip(parts, fractions):
            count = int((part.labels == c).sum())
            assert abs(count - f * class_size) < 1.0


def test_split_validation():
    ds = balanced_dataset(5)
    with pytest.raises(ValueError):
        stratified_split(ds, (0.5, 0.5), Rng(0))
    with pytest.raises(ValueError):
        stratified_split(ds, (0.9, 0.2, -0.1), Rng(0))
    with pytest.raises(ValueError):
        stratified_split(ds, (0.5, 0.4, 0.2), Rng(0))
    tiny = Dataset(np.zeros((3, 1)), np.array([0, 0, 1]), ["a", "b"], ["x"])
    with pytest.raises(ValueError):
        stratified_split(tiny, (0.5, 0.0, 0.5), Rng(0))


# ---------------------------------------------------------------------------
# synthetic interaction tasks
# ---------------------------------------------------------------------------

def test_synth_labels_follow_stored_features():
    # with or without noise, labels must match the rule applied to what the
    # caller actually receives
    for noise in (0.0, 0.1):
        ds = synth_interaction(500, 6, PRODUCT_SIGN, noise, Rng(0))
        want = (ds.features[:, 0] * ds.features[:, 1] > 0).astype(int)
        assert np.array_equal(ds.labels, want)
        ds3 = synth_interaction(500, 6, THREE_WAY_PRODUCT_SIGN, noise, Rng(1))
        want3 = (np.prod(ds3.features[:, :3], axis=1) > 0).astype(int)
        assert np.array_equal(ds3.labels, want3)


def test_synth_schema():
    ds = synth_interaction(10, 4, PRODUCT_SIGN, 0.0, Rng(5))
    assert ds.class_names == ["neg", "pos"]
    assert ds.feature_names == ["x0", "x1", "x2", "x3"]
    assert ds.features.shape == (10, 4)


def test_synth_near_balanced():
    ds = synth_interaction(10000, 6, PRODUCT_SIGN, 0.1, Rng(2))
    assert abs(ds.labels.mean() - 0.5) < 0.03


def test_synth_no_single_feature_linear_signal():
    ds = synth_interaction(10000, 6, PRODUCT_SIGN, 0.1, Rng(3))
    y = ds.labels - ds.labels.mean()
    for j in range(6):
        x = ds.features[:, j] - ds.features[:, j].mean()
        corr = float(np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)))
        assert abs(corr) < 0.05


def test_synth_deterministic():
    a = synth_interaction(100, 5, PRODUCT_SIGN, 0.1, Rng(9))
    b = synth_interaction(100, 5, PRODUCT_SIGN, 0.1, Rng(9))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_interaction(10, 4, "XorRule", 0.0, Rng(0))
    with pytest.raises(ValueError):
        synth_interaction(10, 1, PRODUCT_SIGN, 0.0, Rng(0))
    with pytest.raises(ValueError):
        synth_interaction(10, 2, THREE_WAY_PRODUCT_SIGN, 0.0, Rng(0))
    with pytest.raises(ValueError):
        synth_interaction(0, 4, PRODUCT_SIGN, 0.0, Rng(0))
    with pytest.raises(ValueError):
        synth_interaction(10, 4, PRODUCT_SIGN, -0.5, Rng(0))
