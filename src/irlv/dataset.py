"""Labeled attenuation datasets: synthesis, splitting, feature standardization.

A dataset row associates an attenuation vector (one dB value per base
station) with the binary region label of the position it was measured at:
0 inside the region of interest, 1 outside.  Positions are kept alongside
for diagnostics only; verifiers never see them.

A row may also hold one attenuation vector per base-station placement,
features (n, P, n_bs) with the row axis first, so that P placements share
the positions and labels.  Splitting and standardization act on the row
axis and so handle both shapes alike; the statistics are per placement.
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
    """Feature matrix (n, n_bs), or (n, P, n_bs) for P placements, with
    labels (n,) and source positions (n, 2).

    stats is None for raw dB features and carries the training-set
    standardization once normalize() has been applied.
    """

    features: np.ndarray
    labels: np.ndarray
    positions: np.ndarray
    stats: NormalizationStats | None = None

    def __post_init__(self):
        if self.features.ndim not in (2, 3) or len(self.features) == 0:
            raise ValueError("dataset must hold nonempty (n, n_bs) or (n, P, n_bs) features")
        if len(self.labels) != len(self.features) or len(self.positions) != len(self.features):
            raise ValueError("features, labels, and positions must align")

    def __len__(self) -> int:
        return len(self.features)

    def class_counts(self) -> tuple[int, int]:
        n1 = int(self.labels.sum())
        return len(self) - n1, n1


def generate_dataset(scenario, fields, params, s_total: int, p0: float,
                     rng: np.random.Generator, placements=None) -> Dataset:
    """Synthesize s_total labeled attenuation vectors.

    floor(p0 * s_total) positions are drawn uniformly inside the ROI
    (label 0) and the remainder uniformly outside it (label 1); row order
    is then shuffled.  The draws depend on the map and the ROI alone, so
    placements, a (P, n_bs, 2) array of base-station positions, gets one
    attenuation matrix per placement over the same rows: features
    (s_total, P, n_bs), with the shadowing interpolated once for all.
    """
    if s_total < 2:
        raise ValueError("need at least two samples")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie strictly between 0 and 1")
    n0 = int(np.floor(p0 * s_total))
    n1 = s_total - n0
    parts = []
    labels = []
    if n0:
        parts.append(scenario.sample_region(REGION_INSIDE, rng, n0))
        labels.append(np.zeros(n0, dtype=np.int64))
    if n1:
        parts.append(scenario.sample_region(REGION_OUTSIDE, rng, n1))
        labels.append(np.ones(n1, dtype=np.int64))
    xy = np.concatenate(parts)
    t = np.concatenate(labels)
    order = rng.permutation(s_total)
    xy, t = xy[order], t[order]
    if placements is None:
        a = attenuation_matrix(scenario, fields, params, xy)
    else:
        a = np.empty((s_total, len(placements), scenario.n_bs))
        for k, p in enumerate(placements):
            a[:, k] = attenuation_matrix(scenario.with_bs_positions(p), None, params, xy)
        if fields is not None:  # interpolated once for every placement
            a += shadowing_matrix(scenario, fields, xy)[:, None]
    return Dataset(features=a, labels=t, positions=xy)


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
            positions=dataset.positions[sl],
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
            *placement, feature = zero[0].tolist()
            where = f" of placement {placement[0]}" if placement else ""
            raise NumericError(f"feature {feature}{where} has zero variance")
        stats = NormalizationStats(mean=mean, std=std)
    return Dataset(
        features=stats.apply(dataset.features),
        labels=dataset.labels,
        positions=dataset.positions,
        stats=stats,
    )
