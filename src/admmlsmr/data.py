"""CSV dataset ingestion, preprocessing, splitting and label encoding."""
from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .fixedpoint import _integer


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass
class Dataset:
    """Feature matrix (features x samples) plus dense 0-based class labels."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    feature_names: list[str] | None = None
    label_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.class_count = _integer("class_count", self.class_count, low=1, error=DataError)
        if self.features.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.ndim != 1:
            raise DataError(f"labels must be 1-D, got shape {self.labels.shape}")
        if self.features.shape[1] != len(self.labels):
            raise DataError(
                f"{self.features.shape[1]} samples vs {len(self.labels)} labels"
            )
        if self.labels.dtype.kind not in "iu":
            raise DataError(f"labels must be integer class indices, got {self.labels.dtype}")
        if ((self.labels < 0) | (self.labels >= self.class_count)).any():
            raise DataError("label index out of range")
        if not np.isfinite(self.features).all():
            raise DataError("non-finite feature values")

    @property
    def n_features(self) -> int:
        return self.features.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]


@dataclass
class Split:
    train: Dataset
    test: Dataset


def load_csv(path: str, label_column: int = -1, has_header: bool = False) -> Dataset:
    """Parse a comma-separated file into features and first-appearance labels.

    Raises ``DataError`` with the offending row/column for parse failures,
    inconsistent arity or an empty file.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    label_ids: dict[str, int] = {}
    header: list[str] | None = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = None
        for line_no, record in enumerate(reader, start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            if has_header and header is None:
                header = [cell.strip() for cell in record]
                continue
            if width is None:
                width = len(record)
                if width < 2:
                    raise DataError(f"{path}:{line_no}: need at least 2 columns")
                col = _integer("label column", label_column, -width, width - 1, DataError) % width
            elif len(record) != width:
                raise DataError(
                    f"{path}:{line_no}: expected {width} columns, got {len(record)}"
                )
            values = []
            for j, cell in enumerate(record):
                if j == col:
                    continue
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}:{line_no}: column {j}: cannot parse {cell!r}"
                    ) from None
            key = record[col].strip()
            labels.append(label_ids.setdefault(key, len(label_ids)))
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    features = np.array(rows, dtype=np.float64).T
    names = None
    if header is not None:
        if len(header) != width:
            raise DataError(f"{path}: header has {len(header)} columns, rows have {width}")
        names = [h for j, h in enumerate(header) if j != col]
    return Dataset(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        class_count=len(label_ids),
        feature_names=names,
        label_names=list(label_ids),
    )


def iris_path() -> str:
    """Location of the bundled 150-sample iris CSV."""
    return str(resources.files("admmlsmr").joinpath("datasets/iris.csv"))


def standardize(
    train: Dataset, test: Dataset
) -> tuple[Dataset, Dataset, tuple[np.ndarray, np.ndarray]]:
    """Zero-mean unit-variance features using training statistics only.

    Numerically constant features (zero std up to float summation noise) map
    to zero in both splits.
    """
    if train.n_features != test.n_features:
        raise DataError("train and test feature counts differ")
    mean = train.features.mean(axis=1, keepdims=True)
    std = train.features.std(axis=1, keepdims=True)
    constant = std <= 1e-12 * np.maximum(1.0, np.abs(mean))
    safe = np.where(constant, 1.0, std)

    def apply(ds: Dataset) -> Dataset:
        return replace(ds, features=np.where(constant, 0.0, (ds.features - mean) / safe))

    return apply(train), apply(test), (mean.ravel(), std.ravel())


def split(ds: Dataset, test_fraction: float, seed: int) -> Split:
    """Seeded shuffle, then partition into disjoint train/test row sets."""
    if not (isinstance(test_fraction, numbers.Real) and 0.0 < test_fraction < 1.0):
        raise DataError(f"test_fraction must be a number in (0, 1), got {test_fraction!r}")
    n = ds.n_samples
    n_test = int(round(n * test_fraction))
    if n_test == 0 or n_test == n:
        raise DataError(f"degenerate split: {n_test} of {n} samples in test")
    order = np.random.default_rng(seed).permutation(n)
    test_idx, train_idx = order[:n_test], order[n_test:]

    return Split(_take(ds, train_idx), _take(ds, test_idx))


def _take(ds: Dataset, idx: np.ndarray) -> Dataset:
    """The samples ``idx`` of ``ds``, in that order."""
    return replace(ds, features=ds.features[:, idx], labels=ds.labels[idx])


def subsample(ds: Dataset, n: int, seed: int) -> Dataset:
    """Choose n samples without replacement, seeded."""
    n = _integer("n", n, 1, ds.n_samples, DataError)
    return _take(ds, np.random.default_rng(seed).choice(ds.n_samples, size=n, replace=False))


def one_hot(labels: np.ndarray, class_count: int) -> np.ndarray:
    """Targets as a class_count x samples matrix; each column sums to one."""
    labels = np.asarray(labels)
    if len(labels) and (labels.min() < 0 or labels.max() >= class_count):
        raise DataError("label index out of range")
    out = np.zeros((class_count, len(labels)))
    out[labels, np.arange(len(labels))] = 1.0
    return out


def add_bias_feature(ds: Dataset) -> Dataset:
    """Append a constant-one feature row (a stand-in for bias terms)."""
    feats = np.vstack([ds.features, np.ones((1, ds.n_samples))])
    names = None if ds.feature_names is None else [*ds.feature_names, "bias"]
    return replace(ds, features=feats, feature_names=names)


def synthetic_blobs(
    n_features: int, n_samples: int, class_count: int, seed: int
) -> Dataset:
    """Gaussian class blobs for benchmarking without a file on disk."""
    n_features = _integer("n_features", n_features, low=1, error=DataError)
    n_samples = _integer("n_samples", n_samples, low=1, error=DataError)
    class_count = _integer("class_count", class_count, low=1, error=DataError)
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.5, size=(class_count, n_features))
    labels = rng.integers(0, class_count, size=n_samples)
    features = centers[labels].T + rng.normal(0.0, 1.0, size=(n_features, n_samples))
    return Dataset(
        np.ascontiguousarray(features),
        labels.astype(np.int64),
        class_count,
        label_names=[str(c) for c in range(class_count)],
    )
