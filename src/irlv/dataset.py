"""Labeled attenuation datasets: synthesis, splitting, feature standardization.

A dataset row associates attenuation vectors (one dB value per base
station) with the binary region label of the position they were measured
at: 0 inside the region of interest, 1 outside.  A row holds one vector
per base-station placement, features (n, P, n_bs) with the row axis first,
so that P placements share the positions and labels; a single placement
is P = 1.  Splitting and standardization act on the row axis; the
statistics are per placement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import attenuation_matrix, shadowing_matrix
from .errors import NumericError
from .scenario import REGION_INSIDE, REGION_OUTSIDE


@dataclass(frozen=True)
class NormalizationStats:
    """Per-feature affine map derived from a training set."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, features: np.ndarray) -> np.ndarray:
        out = features - self.mean
        out /= self.std
        return out


@dataclass(frozen=True)
class Dataset:
    """Features (n, P, n_bs) for P placements with labels (n,).

    stats is None for raw dB features and carries the training-set
    standardization once normalize() has been applied.
    """

    features: np.ndarray
    labels: np.ndarray
    stats: NormalizationStats | None = None

    def __post_init__(self):
        if self.features.ndim != 3 or len(self.features) == 0:
            raise ValueError("dataset must hold nonempty (n, P, n_bs) features")
        if len(self.labels) != len(self.features):
            raise ValueError("features and labels must align")

    def __len__(self) -> int:
        return len(self.features)


def generate_dataset(scenario, fields, params, s_total: int, p0: float,
                     rng: np.random.Generator, placements) -> Dataset:
    """Synthesize s_total labeled attenuation vectors per placement.

    floor(p0 * s_total) positions are drawn uniformly inside the ROI
    (label 0) and the remainder uniformly outside it (label 1); row order
    is then shuffled.  The draws depend on the map and the ROI alone, so
    placements, a (P, n_bs, 2) array of base-station positions on the map,
    gets one attenuation matrix per placement over the same rows: features
    (s_total, P, n_bs), with the shadowing interpolated once for all
    (fields None for none).
    """
    placements = np.asarray(placements, dtype=float)
    if placements.ndim != 3 or placements.shape[1:] != (scenario.n_bs, 2) or not len(placements):
        raise ValueError(f"placements must be a (P, {scenario.n_bs}, 2) array with P >= 1, "
                         f"got shape {placements.shape}")
    if not np.all(scenario.contains(placements[..., 0], placements[..., 1])):
        raise ValueError("placements: a base station lies outside the map")
    if s_total < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie strictly between 0 and 1")
    n0 = int(np.floor(p0 * s_total))
    xy = np.concatenate([scenario.sample_region(REGION_INSIDE, rng, n0),
                         scenario.sample_region(REGION_OUTSIDE, rng, s_total - n0)])
    t = np.repeat(np.array([0, 1], dtype=np.int64), [n0, s_total - n0])
    order = rng.permutation(s_total)
    xy, t = xy[order], t[order]
    a = np.empty((s_total, len(placements), scenario.n_bs))
    for k, p in enumerate(placements):
        a[:, k] = attenuation_matrix(scenario, params, xy, p)
    if fields is not None:  # interpolated once for every placement
        a += shadowing_matrix(scenario, fields, xy)[:, None]
    return Dataset(features=a, labels=t)


def split(dataset: Dataset, train_frac: float) -> tuple[Dataset, Dataset]:
    """Partition into leading floor(train_frac * n) rows and the rest."""
    if not 0.0 < train_frac < 1.0:
        raise ValueError("train_frac must lie strictly between 0 and 1")
    n_train = int(np.floor(train_frac * len(dataset)))
    if n_train == 0 or n_train == len(dataset):
        raise ValueError("split leaves one side empty")
    def take(sl):
        return Dataset(
            features=dataset.features[sl],
            labels=dataset.labels[sl],
            stats=dataset.stats,
        )
    return take(slice(None, n_train)), take(slice(n_train, None))


def normalize(dataset: Dataset, stats: NormalizationStats | None = None) -> Dataset:
    """Standardize features to zero mean and unit variance.

    Without stats the map is fitted on this dataset (the training portion);
    pass the training stats to transform held-out data consistently.
    """
    if stats is None:
        mean = dataset.features.mean(axis=0)
        std = dataset.features.std(axis=0)
        zero = np.argwhere(std == 0.0)
        if zero.size:
            placement, feature = zero[0].tolist()
            raise NumericError(f"feature {feature} of placement {placement} has zero variance")
        stats = NormalizationStats(mean=mean, std=std)
    return Dataset(
        features=stats.apply(dataset.features),
        labels=dataset.labels,
        stats=stats,
    )
