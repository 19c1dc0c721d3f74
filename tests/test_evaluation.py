"""ROC/AUC tests: curve cleanup, sweep semantics, averaging, op counts."""

import numpy as np
import pytest

from irlv.evaluation import (
    DEFAULT_FA_GRID,
    RocCurve,
    auc,
    average_roc,
    complexity_report,
    empirical_roc,
    roc_to_csv,
)
from irlv.errors import NumericError


class TestRocCurveFromPoints:
    def test_sorts_and_completes_endpoints(self):
        c = RocCurve.from_points([0.5, 0.2], [0.3, 0.6])
        np.testing.assert_array_equal(c.p_fa, [0.0, 0.2, 0.5, 1.0])
        np.testing.assert_array_equal(c.p_md, [0.6, 0.6, 0.3, 0.0])

    def test_dedup_keeps_best_p_md(self):
        c = RocCurve.from_points([0.0, 0.0, 1.0], [1.0, 0.4, 0.0])
        np.testing.assert_array_equal(c.p_fa, [0.0, 1.0])
        np.testing.assert_array_equal(c.p_md, [0.4, 0.0])

    def test_lower_envelope(self):
        c = RocCurve.from_points([0.0, 0.3, 0.6, 1.0], [0.5, 0.7, 0.2, 0.0])
        np.testing.assert_array_equal(c.p_md, [0.5, 0.5, 0.2, 0.0])

    def test_observed_point_at_fa_one_is_dominated(self):
        c = RocCurve.from_points([0.0, 1.0], [1.0, 0.3])
        np.testing.assert_array_equal(c.p_md, [1.0, 0.0])

    def test_thresholds_follow_their_points(self):
        c = RocCurve.from_points([0.5, 0.0, 1.0], [0.2, 0.9, 0.0], thresholds=[2.0, 9.0, 0.5])
        np.testing.assert_array_equal(c.p_fa, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(c.thresholds, [9.0, 2.0, 0.5])

    def test_direct_constructor_validates(self):
        with pytest.raises(ValueError):
            RocCurve(np.array([0.0, 1.0]), np.array([1.2, 0.0]))
        with pytest.raises(ValueError):
            RocCurve(np.array([0.0, 0.5]), np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            RocCurve(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.5, 0.0]))


class TestEmpiricalRoc:
    def test_hand_worked_sweep(self):
        """Four samples traced by hand through the threshold sweep."""
        scores = [0.1, 0.4, 0.35, 0.8]
        labels = [0, 0, 1, 1]
        c = empirical_roc(scores, labels)
        np.testing.assert_array_equal(c.p_fa, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(c.p_md, [0.5, 0.0, 0.0])
        np.testing.assert_allclose(auc(c), 0.125)

    def test_perfect_separation_has_zero_auc(self):
        rng = np.random.default_rng(1)
        s0 = rng.uniform(0.0, 0.4, 50)
        s1 = rng.uniform(0.6, 1.0, 50)
        c = empirical_roc(np.concatenate([s0, s1]), np.repeat([0, 1], 50))
        assert (0.0, 0.0) in set(zip(c.p_fa, c.p_md))
        assert auc(c) == 0.0

    def test_label_permutation_gives_half(self):
        """Scores independent of labels are worth a coin flip."""
        rng = np.random.default_rng(42)
        s = rng.uniform(0, 1, 4000)
        t = rng.permutation(np.repeat([0, 1], 2000))
        assert abs(auc(empirical_roc(s, t)) - 0.5) < 0.02

    def test_constant_scores_collapse_to_endpoints(self):
        c = empirical_roc(np.full(10, 0.7), np.array([0, 1] * 5))
        np.testing.assert_array_equal(c.p_fa, [0.0, 1.0])
        np.testing.assert_array_equal(c.p_md, [1.0, 0.0])
        assert auc(c) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(NumericError, match="both classes"):
            empirical_roc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0, 1, 300)
        t = rng.integers(0, 2, 300)
        base = empirical_roc(s, t)
        for transform in (lambda x: 3 * x - 10, np.exp, lambda x: x**3):
            other = empirical_roc(transform(s), t)
            np.testing.assert_array_equal(other.p_fa, base.p_fa)
            np.testing.assert_array_equal(other.p_md, base.p_md)

    def test_tie_counts_as_accept(self):
        """A label-1 sample whose score equals the threshold is missed."""
        c = empirical_roc(np.array([0.5, 0.5]), np.array([0, 1]))
        # at lambda = 0.5: p_fa = 0 (not strictly above), p_md = 1
        np.testing.assert_array_equal(c.p_fa, [0.0, 1.0])
        np.testing.assert_array_equal(c.p_md, [1.0, 0.0])


class TestAuc:
    def test_diagonal(self):
        c = RocCurve.from_points(np.linspace(0, 1, 11), np.linspace(1, 0, 11))
        np.testing.assert_allclose(auc(c), 0.5, rtol=1e-12)

    def test_floor(self):
        c = RocCurve.from_points([0.0, 0.4, 1.0], [0.0, 0.0, 0.0])
        assert auc(c) == 0.0

    def test_ceiling_within_grid_tolerance(self):
        fa = np.linspace(0, 1, 2001)
        md = np.ones_like(fa)
        md[-1] = 0.0
        np.testing.assert_allclose(auc(RocCurve.from_points(fa, md)), 1.0, atol=1e-3)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.uniform(0, 1, 100)
            t = rng.integers(0, 2, 100)
            if t.min() == t.max():
                continue
            assert 0.0 <= auc(empirical_roc(s, t)) <= 1.0


class TestAverageRoc:
    def _curve(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.uniform(0, 1, 500)
        t = (rng.uniform(0, 1, 500) < s).astype(int)
        return empirical_roc(s, t)

    def test_single_curve_identity(self):
        c = self._curve(0)
        avg = average_roc([c])
        np.testing.assert_array_equal(avg.p_fa, DEFAULT_FA_GRID)
        np.testing.assert_allclose(auc(avg), auc(c), atol=1e-3)

    def test_identical_curves(self):
        c = self._curve(1)
        avg = average_roc([c, c])
        solo = average_roc([c])
        np.testing.assert_array_equal(avg.p_md, solo.p_md)

    def test_mean_of_aucs(self):
        """Averaging curves and integrating commute (linearity)."""
        curves = [self._curve(s) for s in range(4)]
        mean_auc = np.mean([auc(c) for c in curves])
        np.testing.assert_allclose(auc(average_roc(curves)), mean_auc, atol=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_roc([])


class TestComplexityReport:
    def test_paper_scale_count(self):
        rep = complexity_report(n_ap=5, n_h=8, n_l=1, tau=1)
        assert rep.c_out == 224

    def test_linear_in_tau(self):
        one = complexity_report(5, 8, 1, tau=100)
        two = complexity_report(5, 8, 1, tau=200)
        assert two.c_out == 2 * one.c_out

    def test_no_hidden_neurons(self):
        assert complexity_report(5, 0, 1, tau=10).c_out == 0

    def test_total_composition(self):
        rep = complexity_report(5, 8, 1, tau=64, p=6)
        assert rep.c_test == 6 * (rep.c_out + rep.c_roc + rep.c_auc)

    def test_validation(self):
        with pytest.raises(ValueError):
            complexity_report(0, 8, 1, tau=1)
        with pytest.raises(ValueError):
            complexity_report(5, 8, 1, tau=0)


class TestRocCsv:
    def test_plain_columns(self, tmp_path):
        c = RocCurve.from_points([0.0, 0.5, 1.0], [1.0, 0.4, 0.0])
        path = tmp_path / "roc.csv"
        roc_to_csv(c, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p_fa,p_md"
        assert len(lines) == 4
        assert [float(v) for v in lines[2].split(",")] == [0.5, 0.4]

    def test_threshold_column(self, tmp_path):
        c = RocCurve.from_points([0.0, 1.0], [1.0, 0.0], thresholds=[np.inf, 0.0])
        path = tmp_path / "roc.csv"
        roc_to_csv(c, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,p_fa,p_md"
        assert lines[1].split(",")[0] == "inf"
