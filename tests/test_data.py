"""Loader, preprocessing and split tests."""
from __future__ import annotations

import importlib
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import admmlsmr
from admmlsmr.data import (
    DataError,
    Dataset,
    add_bias_feature,
    iris_path,
    load_csv,
    one_hot,
    split,
    standardize,
    subsample,
    synthetic_blobs,
)


@pytest.fixture
def small_csv(tmp_path):
    p = tmp_path / "small.csv"
    p.write_text("1.0,2.0,cat\n3.0,4.0,dog\n5.0,6.0,cat\n")
    return str(p)


def test_small_fixture_shapes(small_csv):
    ds = load_csv(small_csv)
    assert ds.n_features == 2 and ds.n_samples == 3 and ds.class_count == 2
    assert ds.labels.tolist() == [0, 1, 0]  # first-appearance order
    assert ds.label_names == ["cat", "dog"]
    assert ds.features[:, 1].tolist() == [3.0, 4.0]


def test_header_skipped(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("a,b,label\n1,2,x\n3,4,y\n")
    ds = load_csv(str(p), has_header=True)
    assert ds.n_samples == 2
    assert ds.feature_names == ["a", "b"]


def test_header_names_follow_the_label_column(tmp_path):
    p = tmp_path / "h0.csv"
    p.write_text("label,a,b\nx,1,2\ny,3,4\n")
    ds = load_csv(str(p), label_column=0, has_header=True)
    assert ds.feature_names == ["a", "b"]
    assert ds.features[:, 0].tolist() == [1.0, 2.0]


def test_label_column_index(tmp_path):
    p = tmp_path / "l.csv"
    p.write_text("x,1.5,2.5\ny,3.5,4.5\n")
    ds = load_csv(str(p), label_column=0)
    assert ds.features[:, 0].tolist() == [1.5, 2.5]
    assert ds.labels.tolist() == [0, 1]


def test_iris_shape(iris):
    assert iris.n_samples == 150
    assert iris.n_features == 4
    assert iris.class_count == 3
    assert np.bincount(iris.labels).tolist() == [50, 50, 50]


def test_iris_path_follows_the_importing_package(tmp_path, monkeypatch):
    # a second tree imported under another name (an in-process A/B of two
    # versions) must find its own CSV, not the one installed as admmlsmr
    name = "admmlsmr_copy"
    copy = tmp_path / name
    shutil.copytree(
        Path(admmlsmr.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        path = Path(importlib.import_module(f"{name}.data").iris_path())
    finally:
        for mod in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
            del sys.modules[mod]
    assert path.is_file() and path.is_relative_to(copy)


class TestLoadErrors:
    def test_bad_float(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,oops,cat\n")
        with pytest.raises(DataError, match="column 1"):
            load_csv(str(p))

    def test_inconsistent_arity(self, tmp_path):
        p = tmp_path / "arity.csv"
        p.write_text("1,2,cat\n1,2,3,dog\n")
        with pytest.raises(DataError, match="expected 3 columns"):
            load_csv(str(p))

    def test_header_width_must_match_the_rows(self, tmp_path):
        # 4 names over 5 cells would name 3 of the 4 features
        p = tmp_path / "header.csv"
        p.write_text("a,b,c,label\n1,2,3,4,cat\n")
        with pytest.raises(DataError, match="header has 4 columns, rows have 5$"):
            load_csv(str(p), has_header=True)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(str(p))

    def test_label_column_out_of_range(self, tmp_path):
        p = tmp_path / "col.csv"
        p.write_text("1,2,cat\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(str(p), label_column=7)

    @pytest.mark.parametrize("column", [1.5, True, -6, 5])
    def test_label_column_must_be_an_integer_in_range(self, column):
        # a float column matches no cell index, so the label cell would be
        # parsed as a feature
        with pytest.raises(
            DataError, match=r"^label column must be an integer in \[-5, 4\], got "
        ):
            load_csv(iris_path(), column, True)


class TestStandardize:
    def test_train_statistics(self, iris):
        sp = split(iris, 0.2, 3)
        tr, te, (mean, std) = standardize(sp.train, sp.test)
        assert np.abs(tr.features.mean(axis=1)).max() < 1e-12
        assert np.abs(tr.features.std(axis=1) - 1.0).max() < 1e-12
        # test split transformed with train statistics, not its own
        want = (sp.test.features - mean[:, None]) / std[:, None]
        assert np.allclose(te.features, want)

    def test_constant_feature_maps_to_zero(self):
        ds = synthetic_blobs(3, 20, 2, seed=0)
        ds.features[1, :] = 7.7
        sp = split(ds, 0.25, 0)
        tr, te, _ = standardize(sp.train, sp.test)
        assert not tr.features[1].any() and not te.features[1].any()

    def test_hand_computed_spot_values(self, tmp_path):
        p = tmp_path / "three.csv"
        p.write_text("1.0,a\n2.0,a\n3.0,b\n")
        ds = load_csv(str(p))
        sp_train = ds
        tr, _, (mean, std) = standardize(sp_train, sp_train)
        # mean 2, population std sqrt(2/3)
        assert mean[0] == 2.0
        assert std[0] == pytest.approx(np.sqrt(2.0 / 3.0))
        assert tr.features[0, 0] == pytest.approx(-1.0 / np.sqrt(2.0 / 3.0))

    def test_idempotent_on_standardized(self, iris):
        sp = split(iris, 0.2, 0)
        tr, te, _ = standardize(sp.train, sp.test)
        tr2, _, _ = standardize(tr, te)
        assert np.abs(tr2.features - tr.features).max() < 1e-12


class TestSplit:
    def test_sizes_and_disjointness(self, iris):
        sp = split(iris, 0.2, 5)
        assert sp.test.n_samples == 30
        assert sp.train.n_samples == 120

    def test_seed_reproducible(self, iris):
        a = split(iris, 0.2, 9)
        b = split(iris, 0.2, 9)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.labels, b.test.labels)
        c = split(iris, 0.2, 10)
        assert not np.array_equal(a.train.features, c.train.features)

    def test_partition_preserves_all_samples(self, iris):
        sp = split(iris, 0.2, 2)
        joined = np.sort(np.concatenate([sp.train.features[0], sp.test.features[0]]))
        assert np.array_equal(joined, np.sort(iris.features[0]))

    def test_degenerate_fraction_rejected(self, iris):
        for frac in (0.0, 1.0, 0.001):
            with pytest.raises(DataError):
                split(iris, frac, 0)
        for frac in ("0.2", None):
            with pytest.raises(DataError, match=r"^test_fraction must be a number in \(0, 1\)"):
                split(iris, frac, 0)


def test_one_hot_columns_sum_to_one():
    labels = np.array([0, 2, 1, 2, 0])
    oh = one_hot(labels, 3)
    assert oh.shape == (3, 5)
    assert np.array_equal(oh.sum(axis=0), np.ones(5))
    assert np.array_equal(np.argmax(oh, axis=0), labels)
    with pytest.raises(DataError):
        one_hot(np.array([3]), 3)


def test_labels_must_be_dense_indices():
    # labels are 0-based class indices: a negative one is out of range at
    # construction, not first in one_hot
    for labels in ([-1, 0, 1], [0, 1, 2]):
        with pytest.raises(DataError, match="label index out of range"):
            Dataset(np.zeros((2, 3)), np.array(labels), 2)
    assert Dataset(np.zeros((2, 3)), np.array([0, 1, 1]), 2).n_samples == 3


@pytest.mark.parametrize("count", [1.5, True, 0])
def test_class_count_must_be_a_positive_integer(count):
    with pytest.raises(DataError, match="^class_count must be a positive integer, got "):
        Dataset(np.zeros((2, 3)), np.array([0, 0, 0]), count)


def test_labels_must_be_integers():
    # a float label array would get as far as one_hot's indexing in train
    features = np.arange(24.0).reshape(4, 6)
    for labels in ([0.5, 0, 1, 1, 0, 2.0], [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]):
        with pytest.raises(DataError, match="integer"):
            Dataset(features, np.array(labels), 3)
    with pytest.raises(DataError, match="integer"):
        Dataset(features, np.array([True, False] * 3), 2)
    assert Dataset(features, np.array([0, 1, 2] * 2, dtype=np.uint8), 3).n_samples == 6


def test_labels_must_be_one_dimensional():
    # a (6, 1) label column broadcasts in one_hot's indexing and marks every
    # class in every column
    features = np.arange(24.0).reshape(4, 6)
    labels = np.array([0, 1, 2] * 2)
    for bad in (labels.reshape(6, 1), labels.reshape(1, 6), np.array(1)):
        with pytest.raises(DataError, match="1-D"):
            Dataset(features, bad, 3)
    assert Dataset(features, labels, 3).n_samples == 6


def test_subsample(iris):
    sub = subsample(iris, 40, 7)
    assert sub.n_samples == 40
    again = subsample(iris, 40, 7)
    assert np.array_equal(sub.features, again.features)
    with pytest.raises(DataError):
        subsample(iris, 151, 0)
    assert subsample(iris, np.int64(150), 0).n_samples == 150


@pytest.mark.parametrize("n", [0, -1, 151, 2.5, "3", True])
def test_subsample_needs_a_count_within_the_samples(iris, n):
    with pytest.raises(DataError, match=r"^n must be an integer in \[1, 150\], got "):
        subsample(iris, n, 0)


@pytest.mark.parametrize("name", ["n_features", "n_samples", "class_count"])
@pytest.mark.parametrize("value", [0, -2, 2.0, "3", True])
def test_synthetic_blobs_need_positive_counts(name, value):
    counts = {"n_features": 4, "n_samples": 30, "class_count": 2, name: value}
    with pytest.raises(DataError, match=f"^{name} must be a positive integer, got "):
        synthetic_blobs(**counts, seed=0)


def test_bias_feature(iris):
    ds = add_bias_feature(iris)
    assert ds.n_features == 5
    assert (ds.features[-1] == 1.0).all()


def test_synthetic_blobs_learnable_and_deterministic():
    a = synthetic_blobs(6, 200, 3, seed=4)
    b = synthetic_blobs(6, 200, 3, seed=4)
    assert np.array_equal(a.features, b.features)
    assert a.class_count == 3 and a.n_features == 6 and a.n_samples == 200
    c = synthetic_blobs(np.int64(6), np.int64(200), np.int32(3), seed=4)
    assert np.array_equal(a.features, c.features) and type(c.class_count) is int
