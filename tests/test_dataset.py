"""Dataset synthesis, splitting, and standardization tests."""

import numpy as np
import pytest

from irlv.channel import ChannelParams, generate_fields
from irlv.dataset import Dataset, generate_dataset, normalize, split
from irlv.errors import NumericError
from irlv.scenario import CircularScenario, StreetScenario


PARAMS = ChannelParams()


def _small_dataset(s_total=200, seed=42, fields=False, scenario=None):
    scenario = scenario or CircularScenario.default()
    f = generate_fields(scenario, PARAMS, base_seed=seed) if fields else None
    return generate_dataset(scenario, f, PARAMS, s_total, 0.5, np.random.default_rng(seed))


class TestGenerateDataset:
    def test_class_balance_exact(self):
        ds = _small_dataset(s_total=1000)
        assert ds.class_counts() == (500, 500)

    def test_class_balance_floor(self):
        scenario = CircularScenario.default()
        ds = generate_dataset(scenario, None, PARAMS, 10, 0.25, np.random.default_rng(0))
        assert ds.class_counts() == (2, 8)

    def test_labels_match_positions(self):
        scenario = StreetScenario.default()
        ds = _small_dataset(scenario=scenario)
        xy = ds.positions
        assert np.all(scenario.contains(xy[:, 0], xy[:, 1]))
        np.testing.assert_array_equal(ds.labels, ~scenario.roi.contains(xy[:, 0], xy[:, 1]))

    def test_order_is_shuffled(self):
        ds = _small_dataset(s_total=400)
        # a block construction would put all zeros first
        assert ds.labels[:200].sum() > 0

    def test_no_shadowing_features_depend_only_on_position(self):
        scenario = CircularScenario.default()
        ds = _small_dataset(scenario=scenario, fields=False)
        i = 7
        again = np.hypot(ds.positions[i, 0], ds.positions[i, 1])
        from irlv.channel import path_loss_los_db

        np.testing.assert_allclose(ds.features[i, 0], path_loss_los_db(again, PARAMS))

    def test_reproducible(self):
        a = _small_dataset(seed=9, fields=True)
        b = _small_dataset(seed=9, fields=True)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_preconditions(self):
        scenario = CircularScenario.default()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_dataset(scenario, None, PARAMS, 1, 0.5, rng)
        with pytest.raises(ValueError):
            generate_dataset(scenario, None, PARAMS, 10, 0.0, rng)
        with pytest.raises(ValueError):
            generate_dataset(scenario, None, PARAMS, 10, 1.0, rng)

    def test_feature_width_is_bs_count(self):
        ds = _small_dataset(scenario=StreetScenario.default())
        assert ds.features.shape[1] == 5


class TestSplit:
    def test_sizes(self):
        ds = _small_dataset(s_total=100)
        train, test = split(ds, 0.8)
        assert len(train) == 80 and len(test) == 20

    def test_partition_recovers_original(self):
        ds = _small_dataset(s_total=101)
        train, test = split(ds, 0.7)
        np.testing.assert_array_equal(
            np.vstack([train.features, test.features]), ds.features
        )
        np.testing.assert_array_equal(
            np.concatenate([train.labels, test.labels]), ds.labels
        )

    def test_empty_side_rejected(self):
        ds = _small_dataset(s_total=3)
        with pytest.raises(ValueError):
            split(ds, 0.1)
        with pytest.raises(ValueError):
            split(ds, 1.0)


class TestNormalize:
    def test_training_moments(self):
        ds = _small_dataset(fields=True)
        normed = normalize(ds)
        np.testing.assert_allclose(normed.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(normed.features.std(axis=0), 1.0, atol=1e-9)

    def test_stats_reused_on_test_side(self):
        ds = _small_dataset(fields=True)
        train, test = split(ds, 0.7)
        train_n = normalize(train)
        test_n = normalize(test, train_n.stats)
        assert test_n.stats is train_n.stats
        # test-side moments are near but not exactly 0/1
        assert abs(test_n.features.mean()) < 0.5
        np.testing.assert_allclose(
            test_n.features * train_n.stats.std + train_n.stats.mean, test.features, atol=1e-9
        )

    def test_double_application_is_not_identity(self):
        ds = _small_dataset(fields=True)
        once = normalize(ds)
        twice = once.stats.apply(once.features)
        assert not np.allclose(twice, once.features)

    def test_zero_variance_feature_named(self):
        feats = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
        ds = Dataset(feats, np.zeros(5, np.int64), np.zeros((5, 2)))
        with pytest.raises(NumericError, match="feature 1"):
            normalize(ds)

    def test_labels_and_count_preserved(self):
        ds = _small_dataset()
        normed = normalize(ds)
        assert len(normed) == len(ds)
        np.testing.assert_array_equal(normed.labels, ds.labels)
        np.testing.assert_array_equal(normed.positions, ds.positions)
