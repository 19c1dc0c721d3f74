"""Dataset synthesis, splitting, and standardization tests."""

import numpy as np
import pytest

from irlv.channel import ChannelParams, generate_fields, path_loss_los_db
from irlv.dataset import Dataset, generate_dataset, normalize, split
from irlv.errors import NumericError
from irlv.scenario import REGION_INSIDE, REGION_OUTSIDE, CircularScenario, StreetScenario


PARAMS = ChannelParams()


def _own(scenario):
    """The scenario's own placement as a stack of one."""
    return np.array([scenario.bs_positions])


def _small_dataset(s_total=200, seed=42, fields=False, scenario=None):
    scenario = scenario or CircularScenario.default()
    f = generate_fields(scenario, PARAMS, base_seed=seed) if fields else None
    return generate_dataset(scenario, f, PARAMS, s_total, 0.5, np.random.default_rng(seed),
                            _own(scenario))


def _positions(scenario, s_total, p0, seed):
    """The rows' positions, replayed from a generator with the seed that
    generate_dataset got: inside draws, outside draws, then the shuffle."""
    rng = np.random.default_rng(seed)
    n0 = int(np.floor(p0 * s_total))
    xy = np.concatenate([scenario.sample_region(REGION_INSIDE, rng, n0),
                         scenario.sample_region(REGION_OUTSIDE, rng, s_total - n0)])
    return xy[rng.permutation(s_total)]


def _class_counts(ds):
    return tuple(np.bincount(ds.labels, minlength=2).tolist())


class TestGenerateDataset:
    def test_class_balance_exact(self):
        ds = _small_dataset(s_total=1000)
        assert _class_counts(ds) == (500, 500)

    def test_class_balance_floor(self):
        scenario = CircularScenario.default()
        ds = generate_dataset(scenario, None, PARAMS, 10, 0.25, np.random.default_rng(0),
                              _own(scenario))
        assert _class_counts(ds) == (2, 8)

    def test_labels_match_positions(self):
        scenario = StreetScenario.default()
        ds = _small_dataset(scenario=scenario)
        xy = _positions(scenario, 200, 0.5, 42)
        assert np.all(scenario.contains(xy[:, 0], xy[:, 1]))
        np.testing.assert_array_equal(ds.labels, ~scenario.roi.contains(xy[:, 0], xy[:, 1]))

    def test_order_is_shuffled(self):
        ds = _small_dataset(s_total=400)
        # a block construction would put all zeros first
        assert ds.labels[:200].sum() > 0

    def test_no_shadowing_features_depend_only_on_position(self):
        scenario = CircularScenario.default()
        ds = _small_dataset(scenario=scenario, fields=False)
        xy = _positions(scenario, 200, 0.5, 42)
        d = np.hypot(xy[:, 0], xy[:, 1])
        np.testing.assert_allclose(ds.features[:, 0, 0], path_loss_los_db(d, PARAMS), rtol=1e-12)

    def test_reproducible(self):
        a = _small_dataset(seed=9, fields=True)
        b = _small_dataset(seed=9, fields=True)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_preconditions(self):
        scenario = CircularScenario.default()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_dataset(scenario, None, PARAMS, 1, 0.5, rng, _own(scenario))
        with pytest.raises(ValueError):
            generate_dataset(scenario, None, PARAMS, 10, 0.0, rng, _own(scenario))
        with pytest.raises(ValueError):
            generate_dataset(scenario, None, PARAMS, 10, 1.0, rng, _own(scenario))

    def test_feature_width_is_bs_count(self):
        ds = _small_dataset(scenario=StreetScenario.default())
        assert ds.features.shape[1:] == (1, 5)

    @pytest.mark.parametrize("shape", [(5, 2), (1, 4, 2), (1, 5, 3), (0, 5, 2), (2, 1, 5, 2)])
    def test_placement_shape_checked(self, shape):
        scenario = StreetScenario.default()
        with pytest.raises(ValueError, match=r"placements must be a \(P, 5, 2\) array"):
            generate_dataset(scenario, None, PARAMS, 10, 0.5, np.random.default_rng(0),
                             np.full(shape, 100.0))

    @pytest.mark.parametrize("scenario, station", [
        (StreetScenario.default(), (-1.0, 262.5)),
        (StreetScenario.default(), (262.5, 525.5)),
        (CircularScenario.default(), (40.5, 0.0)),
    ], ids=["street-west", "street-north", "disc"])
    def test_off_map_placement_rejected(self, scenario, station):
        placements = np.array([scenario.bs_positions] * 2)
        placements[1, -1] = station
        with pytest.raises(ValueError, match="outside the map"):
            generate_dataset(scenario, None, PARAMS, 10, 0.5, np.random.default_rng(0), placements)
        placements[1, -1] = scenario.bs_positions[-1]
        generate_dataset(scenario, None, PARAMS, 10, 0.5, np.random.default_rng(0), placements)

    def test_placements_share_rows(self):
        """Each placement of a stack gets the features it gets alone, over
        the same rows and labels."""
        scenario = StreetScenario.default()
        fields = generate_fields(scenario, PARAMS, base_seed=4)
        placements = np.array([scenario.bs_positions, np.full((5, 2), 262.5)])
        stack = generate_dataset(scenario, fields, PARAMS, 50, 0.5, np.random.default_rng(3),
                                 placements)
        assert stack.features.shape == (50, 2, 5)
        for k in range(2):
            alone = generate_dataset(scenario, fields, PARAMS, 50, 0.5, np.random.default_rng(3),
                                     placements[k : k + 1])
            np.testing.assert_array_equal(stack.features[:, k : k + 1], alone.features)
            np.testing.assert_array_equal(stack.labels, alone.labels)


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
        normed, _ = normalize(ds, ds)
        np.testing.assert_allclose(normed.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(normed.features.std(axis=0), 1.0, atol=1e-9)

    def test_stats_reused_on_test_side(self):
        """The test side is mapped with the training mean and std."""
        ds = _small_dataset(fields=True)
        train, test = split(ds, 0.7)
        _, test_n = normalize(train, test)
        # test-side moments are near but not exactly 0/1
        assert abs(test_n.features.mean()) < 0.5
        mean, std = train.features.mean(axis=0), train.features.std(axis=0)
        np.testing.assert_allclose(test_n.features * std + mean, test.features, atol=1e-9)

    def test_zero_variance_feature_named(self):
        feats = np.stack([np.random.default_rng(0).standard_normal((5, 2)),
                          np.column_stack([np.arange(5.0), np.full(5, 3.0)])], axis=1)
        ds = Dataset(feats, np.zeros(5, np.int64))
        with pytest.raises(NumericError, match="feature 1 of placement 1 has zero variance"):
            normalize(ds, ds)

    def test_labels_and_count_preserved(self):
        ds = _small_dataset()
        train, test = split(ds, 0.7)
        for raw, normed in zip((train, test), normalize(train, test)):
            assert len(normed) == len(raw)
            np.testing.assert_array_equal(normed.labels, raw.labels)
