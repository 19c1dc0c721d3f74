"""Swarm search tests: kinematics, bookkeeping, and placement objectives."""

from dataclasses import dataclass

import numpy as np
import pytest

from irlv.channel import ChannelParams, generate_fields
from irlv.evaluation import auc
from irlv.mlp import TrainConfig
from irlv.planner import (
    OBJECTIVE_AUC,
    OBJECTIVE_CE,
    PlacementEvalConfig,
    PsoConfig,
    evaluate_placement,
    plan_placement,
    plan_two_stage,
    run_pso,
)
from irlv.scenario import REGION_INSIDE, REGION_OUTSIDE, CircularScenario, Position, StreetScenario


def _sphere(x):
    """Squared distance to (3, ..., 3), per row of a (P, dim) sweep."""
    return np.sum((x - 3.0) ** 2, axis=-1)


BOUNDS = (0.0, 10.0)


class TestPsoConfig:
    def test_standard_constants(self):
        cfg = PsoConfig()
        assert cfg.n_particles == 6
        assert cfg.inertia == 0.7298
        assert cfg.c1 == cfg.c2 == 1.4961
        assert cfg.max_iterations == 50
        assert cfg.stall_iterations == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PsoConfig(n_particles=0)
        with pytest.raises(ValueError):
            PsoConfig(inertia=-0.1)
        PsoConfig(inertia=0.0, c1=0.0, c2=0.0)  # frozen swarm is legal


def _spy_run(cfg, dim, seed, initial_positions=None):
    """run_pso on the sphere, returning the result and every evaluated x."""
    seen = []

    def spy(x):
        seen.extend(np.array(x))
        return _sphere(x)

    result = run_pso(spy, BOUNDS, dim, cfg, np.random.default_rng(seed), initial_positions)
    return result, np.array(seen)


class TestInitSwarm:
    def test_dimensions_and_bounds(self):
        # pure inertia: the first step moves each particle by its initial velocity
        cfg = PsoConfig(n_particles=6, inertia=1.0, c1=0.0, c2=0.0, max_iterations=1)
        _, seen = _spy_run(cfg, dim=10, seed=0)
        assert seen.shape == (12, 10)
        assert np.all((seen >= 0.0) & (seen <= 10.0))
        assert np.all(np.abs(seen[6:] - seen[:6]) <= 1.0)  # one tenth of the extent

    def test_global_best_is_min_of_initials(self):
        cfg = PsoConfig(n_particles=5, max_iterations=0)
        result = run_pso(_sphere, BOUNDS, 3, cfg, np.random.default_rng(1))
        assert result.best_value == min(result.particle_values[0])
        assert result.history == [result.best_value]


class TestStepParticle:
    """One particle started at a given position: its only random draw
    before the first step is its initial velocity, which a probe
    generator with the same seed reproduces."""

    def test_pure_inertia(self):
        cfg = PsoConfig(n_particles=1, inertia=1.0, c1=0.0, c2=0.0, max_iterations=2)
        v = np.random.default_rng(0).uniform(-1.0, 1.0, 2)
        _, seen = _spy_run(cfg, 2, 0, [[2.0, 2.0]])
        np.testing.assert_array_equal(seen[1], [2.0, 2.0] + v)
        np.testing.assert_array_equal(seen[2], seen[1] + v)

    def test_no_attraction_at_consensus(self):
        # personal and global best are the start, so only inertia acts
        cfg = PsoConfig(n_particles=1, inertia=0.5, max_iterations=1)
        v = np.random.default_rng(0).uniform(-1.0, 1.0, 2)
        _, seen = _spy_run(cfg, 2, 0, [[4.0, 5.0]])
        np.testing.assert_array_equal(seen[1], [4.0, 5.0] + 0.5 * v)

    def test_clamped_to_bounds(self):
        cfg = PsoConfig(n_particles=1, inertia=1.0, c1=0.0, c2=0.0, max_iterations=1)
        v = np.random.default_rng(0).uniform(-1.0, 1.0, 2)
        assert v[0] > 0.0 > v[1]  # pushes out of the corner on both axes
        _, seen = _spy_run(cfg, 2, 0, [[10.0, 0.0]])
        np.testing.assert_array_equal(seen[1], [10.0, 0.0])


class TestRunPso:
    def test_history_monotone_non_increasing(self):
        result = run_pso(_sphere, BOUNDS, 4, PsoConfig(), np.random.default_rng(2))
        assert all(b <= a + 1e-15 for a, b in zip(result.history, result.history[1:]))

    def test_finds_sphere_minimum(self):
        result = run_pso(
            _sphere, BOUNDS, 3,
            PsoConfig(max_iterations=60, stall_iterations=10, stall_tolerance=1e-9),
            np.random.default_rng(3),
        )
        np.testing.assert_allclose(result.best_x, 3.0, atol=0.05)
        assert result.best_value < 1e-2

    def test_frozen_swarm_returns_initial_best(self):
        cfg = PsoConfig(n_particles=1, inertia=0.0, c1=0.0, c2=0.0)
        rng = np.random.default_rng(4)
        probe = np.random.default_rng(4)
        x0 = probe.uniform(0.0, 10.0, 2)
        result = run_pso(_sphere, BOUNDS, 2, cfg, rng)
        np.testing.assert_array_equal(result.best_x, x0)
        assert result.best_value == _sphere(x0)
        assert result.converged

    def test_bit_identical_given_seed(self):
        runs = [
            run_pso(_sphere, BOUNDS, 5, PsoConfig(), np.random.default_rng(7))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].best_x, runs[1].best_x)
        assert runs[0].history == runs[1].history
        assert runs[0].particle_values == runs[1].particle_values

    def test_positions_stay_in_bounds_throughout(self):
        seen = []

        def spy(x):
            seen.append(x.copy())
            return _sphere(x)

        run_pso(spy, BOUNDS, 4, PsoConfig(max_iterations=15), np.random.default_rng(8))
        arr = np.array(seen)
        assert np.all((arr >= 0.0) & (arr <= 10.0))

    def test_initial_positions_respected(self):
        starts = np.array([[1.0, 1.0], [9.0, 9.0]])
        cfg = PsoConfig(n_particles=2, inertia=0.0, c1=0.0, c2=0.0, max_iterations=1)
        result = run_pso(_sphere, BOUNDS, 2, cfg, np.random.default_rng(0), starts)
        np.testing.assert_array_equal(result.best_x, [1.0, 1.0])

    def test_best_position_history_tracks_values(self):
        result = run_pso(
            _sphere, BOUNDS, 2, PsoConfig(max_iterations=10), np.random.default_rng(9)
        )
        assert len(result.best_x_history) == len(result.history)
        np.testing.assert_array_equal(result.best_x_history[-1], result.best_x)
        for x, value in zip(result.best_x_history, result.history):
            assert _sphere(x) == value

    def test_pinned_sphere_runs(self):
        """The swarm's random-number order and update rule, pinned by the
        exact results of two short runs, free and from given starts (the
        third start lies outside the box and is clipped to (10, 0))."""
        cfg = PsoConfig(n_particles=3, max_iterations=3, stall_iterations=3)
        free = run_pso(_sphere, BOUNDS, 2, cfg, np.random.default_rng(11))
        assert free.best_x.tolist() == [1.6208709978993263, 3.436410389384329]
        assert free.history == [
            6.909984183729472, 4.155470474575118, 2.770357020491285, 2.0924508323977817]
        assert free.particle_values == [
            [6.909984183729472, 41.77755651208571, 52.393883065921294],
            [4.155470474575118, 10.604981082689697, 5.763834924231956],
            [2.770357020491285, 7.235936938318122, 11.197780023023842],
            [2.0924508323977817, 8.806127098409334, 12.01645178113241],
        ]
        starts = [[1.0, 9.0], [5.0, 5.0], [12.0, -1.0]]
        seeded = run_pso(_sphere, BOUNDS, 2, cfg, np.random.default_rng(11), starts)
        assert seeded.best_x.tolist() == [4.286209737215424, 3.8238393485485536]
        assert seeded.history == [
            8.0, 4.2907061889134255, 4.2907061889134255, 2.3330467603246756]
        assert seeded.particle_values == [
            [40.0, 8.0, 58.0],
            [15.002230127573778, 6.33607497777983, 4.2907061889134255],
            [20.196323011505285, 4.486656143354035, 28.766160190236437],
            [18.48113958358711, 2.3330467603246756, 25.534550457589717],
        ]

    def test_stall_counts_limit_iterations(self):
        cfg = PsoConfig(n_particles=2, inertia=0.0, c1=0.0, c2=0.0, stall_iterations=3)
        result = run_pso(_sphere, BOUNDS, 2, cfg, np.random.default_rng(5))
        assert result.n_iterations == 3
        assert result.converged


@dataclass(frozen=True)
class DiscRoiScenario:
    """All-LOS square map whose ROI is a disc: separable by one distance."""

    map_side: float = 100.0
    roi_center: tuple = (50.0, 50.0)
    roi_radius: float = 20.0
    bs_positions: tuple = (Position(50.0, 50.0),)

    @property
    def n_bs(self):
        return len(self.bs_positions)

    @property
    def bounds(self):
        return (0.0, 0.0, self.map_side, self.map_side)

    def _inside(self, x, y):
        return np.hypot(x - self.roi_center[0], y - self.roi_center[1]) <= self.roi_radius

    def contains(self, x, y):
        return (0.0 <= x) & (x <= self.map_side) & (0.0 <= y) & (y <= self.map_side)

    def los_mask(self, xy, bs):
        return np.ones(np.asarray(xy).shape[0], dtype=bool)

    def sample_region(self, region, rng, size):
        out = np.empty((size, 2))
        filled = 0
        while filled < size:
            cand = rng.uniform(0.0, self.map_side, (2 * (size - filled) + 16, 2))
            inside = self._inside(cand[:, 0], cand[:, 1])
            if region == REGION_INSIDE:
                cand = cand[inside]
            elif region == REGION_OUTSIDE:
                cand = cand[~inside]
            k = min(len(cand), size - filled)
            out[filled : filled + k] = cand[:k]
            filled += k
        return out


@dataclass(frozen=True)
class CheckerboardScenario(DiscRoiScenario):
    """Labels alternate on a 1 m checkerboard: features carry no label info."""

    def _inside(self, x, y):
        return (np.floor(x).astype(np.int64) + np.floor(y).astype(np.int64)) % 2 == 0


QUIET_CHANNEL = ChannelParams(sigma_s_db=0.0)

FAST_EVAL = PlacementEvalConfig(
    channel=QUIET_CHANNEL,
    s_total=600,
    n_hidden=8,
    n_layers=2,
    train=TrainConfig(learning_rate=1.0, epochs=300, batch_size=64, seed=0),
    field_seed=10,
    dataset_seed=11,
    init_seed=12,
)


def _score(scenario, xy, cfg):
    """evaluate_placement of one placement, a stack of one, with its own fields."""
    fields = generate_fields(scenario, cfg.channel, cfg.field_seed)
    return evaluate_placement(scenario, fields, cfg, np.reshape(xy, (1, -1, 2)))[0]


class TestEvaluatePlacement:
    @pytest.mark.parametrize("scenario, channel, pinned", [
        (StreetScenario.default(), ChannelParams(), (0.47451557371680175, 0.018018575851393187)),
        (CircularScenario.default(), ChannelParams(sigma_s_db=0.0),
         (0.8614221386274762, 0.22396284829721363)),
    ], ids=["street", "disc"])
    def test_pinned_own_placement(self, scenario, channel, pinned):
        """The scenario's own placement, scored as a stack of one, gets the
        literal CE and AUC that its single network got when roc and
        np-compare trained one."""
        cfg = PlacementEvalConfig(
            channel=channel, s_total=600, n_hidden=4, n_layers=2,
            train=TrainConfig(learning_rate=0.5, epochs=5, batch_size=64, seed=0),
            field_seed=1, dataset_seed=2, init_seed=3,
        )
        [score] = evaluate_placement(scenario, generate_fields(scenario, channel, cfg.field_seed),
                                     cfg, np.array([scenario.bs_positions]))
        assert (score.ce_bits, score.auc_value) == pinned

    def test_deterministic(self):
        scenario = DiscRoiScenario()
        a = _score(scenario, [50.0, 50.0], FAST_EVAL)
        b = _score(scenario, [50.0, 50.0], FAST_EVAL)
        assert (a.ce_bits, a.auc_value) == (b.ce_bits, b.auc_value)
        np.testing.assert_array_equal(a.roc.p_fa, b.roc.p_fa)
        np.testing.assert_array_equal(a.roc.p_md, b.roc.p_md)

    def test_separable_placement_trains_to_low_ce(self):
        """A base station at the disc center makes the single attenuation
        feature perfectly separable, so training drives CE near zero."""
        assert _score(DiscRoiScenario(), [50.0, 50.0], FAST_EVAL).ce_bits < 0.1

    def test_uninformative_labels_give_half_auc(self):
        value = _score(CheckerboardScenario(), [50.0, 50.0], FAST_EVAL).auc_value
        assert abs(value - 0.5) < 0.05

    def test_objective_selects_metric(self):
        """A frozen one-particle swarm started at a placement reports that
        placement's CE or AUC, as its objective says."""
        scenario = DiscRoiScenario()
        score = _score(scenario, [30.0, 70.0], FAST_EVAL)
        for objective, expected in ((OBJECTIVE_CE, score.ce_bits), (OBJECTIVE_AUC, score.auc_value)):
            pso = PsoConfig(n_particles=1, max_iterations=0)
            [(result, aucs)] = plan_placement(scenario, FAST_EVAL,
                                              [(objective, pso, np.random.default_rng(0))],
                                              initial_positions=[[[30.0, 70.0]]])
            assert result.history == [expected]
            assert aucs == [score.auc_value]
        assert score.auc_value == auc(score.roc)

    def test_bad_objective_rejected(self):
        with pytest.raises(ValueError, match="objective must be 'ce' or 'auc'"):
            plan_placement(DiscRoiScenario(), FAST_EVAL,
                           [("f1", PsoConfig(), np.random.default_rng(0))])


class TestPlanPlacement:
    GRID_EVAL = PlacementEvalConfig(
        channel=QUIET_CHANNEL,
        s_total=400,
        n_hidden=4,
        n_layers=2,
        train=TrainConfig(learning_rate=1.0, epochs=60, batch_size=64, seed=0),
        field_seed=20,
        dataset_seed=21,
        init_seed=22,
    )

    def test_matches_grid_search_on_one_bs_toy(self):
        """Dense grid search over the map is the oracle; the swarm must get
        within 5% of its best objective."""
        scenario = DiscRoiScenario()
        grid = np.linspace(10.0, 90.0, 5)
        grid_best = min(
            _score(scenario, [x, y], self.GRID_EVAL).ce_bits
            for x in grid
            for y in grid
        )
        pso = PsoConfig(n_particles=5, max_iterations=40, stall_iterations=8)
        [(result, _)] = plan_placement(scenario, self.GRID_EVAL,
                                       [(OBJECTIVE_CE, pso, np.random.default_rng(1))])
        assert result.best_value <= grid_best * 1.05 + 1e-3

    def test_history_monotone(self):
        scenario = DiscRoiScenario()
        pso = PsoConfig(n_particles=3, max_iterations=4, stall_iterations=2)
        [(result, _)] = plan_placement(scenario, self.GRID_EVAL,
                                       [(OBJECTIVE_CE, pso, np.random.default_rng(2))])
        assert all(b <= a for a, b in zip(result.history, result.history[1:]))

    def test_fields_drawn_once_per_run(self, monkeypatch):
        """Fields do not depend on the placement, so one run draws them
        once; the per-iteration AUCs are those of the best placements."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return generate_fields(*args, **kwargs)

        monkeypatch.setattr("irlv.planner.generate_fields", counting)
        scenario = DiscRoiScenario()
        pso = PsoConfig(n_particles=3, max_iterations=3, stall_iterations=3)
        [(result, aucs)] = plan_placement(scenario, self.GRID_EVAL,
                                          [(OBJECTIVE_CE, pso, np.random.default_rng(5))])
        assert len(calls) == 1
        assert len(result.particle_values) == 4  # 12 evaluated placements
        assert aucs == [_score(scenario, x, self.GRID_EVAL).auc_value
                        for x in result.best_x_history]

    def test_each_distinct_placement_evaluated_once(self, monkeypatch):
        """Placements go to evaluate_placement once per sweep, each distinct
        unseen one once: two particles clamped to the same corner cost one
        network, and a frozen swarm's later sweeps cost none."""
        evaluated = []

        def spy(*args):
            evaluated.append(np.array(args[3]))
            return evaluate_placement(*args)

        monkeypatch.setattr("irlv.planner.evaluate_placement", spy)
        scenario = DiscRoiScenario()
        starts = [[-5.0, -5.0], [30.0, 70.0], [-1.0, -20.0]]  # first and last clamp to (0, 0)
        frozen = PsoConfig(n_particles=3, inertia=0.0, c1=0.0, c2=0.0, max_iterations=2,
                           stall_iterations=3)
        [(result, aucs)] = plan_placement(
            scenario, self.GRID_EVAL, [(OBJECTIVE_CE, frozen, np.random.default_rng(6))], [starts])
        assert len(evaluated) == 1
        np.testing.assert_array_equal(evaluated[0], [[[0.0, 0.0]], [[30.0, 70.0]]])
        first = result.particle_values[0]
        assert first[0] == first[2]
        assert result.particle_values == [first] * 3
        assert aucs == [_score(scenario, result.best_x, self.GRID_EVAL).auc_value] * 3

        evaluated.clear()
        moving = PsoConfig(n_particles=4, max_iterations=3, stall_iterations=3)
        [(result, _)] = plan_placement(
            scenario, self.GRID_EVAL, [(OBJECTIVE_CE, moving, np.random.default_rng(7))],
            [[[0.0, 0.0], [-3.0, 0.0], [50.0, 50.0], [50.0, 50.0]]])
        rows = np.concatenate(evaluated).reshape(-1, 2)
        assert len(evaluated) <= len(result.particle_values)
        assert len(rows) == len(np.unique(rows, axis=0)) <= 4 * len(result.particle_values) - 2

    def test_pinned_street_run(self):
        """One small search on the street map with shadowing, pinned by
        literal values taken when every placement was trained alone."""
        cfg = PlacementEvalConfig(
            channel=ChannelParams(), s_total=600, n_hidden=4, n_layers=2,
            train=TrainConfig(learning_rate=0.5, epochs=5, batch_size=64, seed=0),
            field_seed=1, dataset_seed=2, init_seed=3,
        )
        pso = PsoConfig(n_particles=3, max_iterations=2, stall_iterations=3)
        [(result, aucs)] = plan_placement(StreetScenario.default(), cfg,
                                          [(OBJECTIVE_CE, pso, np.random.default_rng(4))])
        assert result.best_x.tolist() == [
            361.44679889744697, 502.71430949679916, 74.08427538609698, 47.31142273563954,
            325.31428755077013, 282.42657073891803, 110.71465159089689, 503.23712531957375,
            201.6591985672526, 176.1782557788802]
        assert result.history == [0.5989056831819797, 0.5989056831819797, 0.4921270458506599]
        assert aucs == [0.06452012383900928, 0.06452012383900928, 0.009535603715170277]
        assert result.particle_values == [
            [0.8734414859669541, 0.5989056831819797, 0.6170661525342359],
            [0.6625162716516277, 0.6619014699984619, 0.8157915071228028],
            [0.5720186825454701, 0.5889273232495985, 0.4921270458506599],
        ]

    def test_two_stage_refinement(self):
        scenario = DiscRoiScenario()
        stage1 = PsoConfig(n_particles=3, max_iterations=3, stall_iterations=2)
        (result1, aucs1), (result2, aucs2) = plan_two_stage(
            scenario, self.GRID_EVAL, stage1, stage1, np.random.default_rng(3))
        assert len(aucs1) == len(result1.history)
        # stage 2's first particle sits at the stage-1 best, scored in AUC units
        assert result2.particle_values[0][0] == aucs1[-1]
        assert aucs2 == result2.history
        assert 0.0 <= result2.best_value <= aucs1[-1]


class TestLockstep:
    """Searches that share one evaluation config run in lockstep: one
    field draw, one cache and one stack per sweep, with each search's
    results bit-identical to running it alone."""

    STREET_EVAL = PlacementEvalConfig(
        channel=ChannelParams(), s_total=600, n_hidden=4, n_layers=2,
        train=TrainConfig(learning_rate=0.5, epochs=5, batch_size=64, seed=0),
        field_seed=1, dataset_seed=2, init_seed=3,
    )

    @staticmethod
    def _searches(ce, auc_cfg):
        return [(OBJECTIVE_CE, ce, np.random.default_rng(4)),
                (OBJECTIVE_AUC, auc_cfg, np.random.default_rng(4))]

    @pytest.mark.parametrize("ce, auc_cfg", [
        (PsoConfig(n_particles=3, max_iterations=3, stall_iterations=3),) * 2,
        (PsoConfig(n_particles=3, max_iterations=1, stall_iterations=3),
         PsoConfig(n_particles=3, max_iterations=3, stall_iterations=3)),
        (PsoConfig(n_particles=3, max_iterations=4, stall_iterations=3),
         PsoConfig(n_particles=3, max_iterations=4, stall_iterations=1, stall_tolerance=1.0)),
    ], ids=["same-limits", "ce-stops-at-max", "auc-stalls-first"])
    def test_matches_searches_run_alone(self, ce, auc_cfg):
        scenario = StreetScenario.default()
        searches = self._searches(ce, auc_cfg)
        together = plan_placement(scenario, self.STREET_EVAL, searches)
        alone = [plan_placement(scenario, self.STREET_EVAL, [search])[0]
                 for search in self._searches(ce, auc_cfg)]
        for (r, aucs), (a, alone_aucs) in zip(together, alone):
            assert r.history == a.history
            assert np.array_equal(r.best_x, a.best_x)
            assert all(map(np.array_equal, r.best_x_history, a.best_x_history))
            assert len(r.best_x_history) == len(a.best_x_history)
            assert r.particle_values == a.particle_values
            assert (r.n_iterations, r.converged) == (a.n_iterations, a.converged)
            assert aucs == alone_aucs
        if ce != auc_cfg:  # one search left the loop before the other
            assert together[0][0].n_iterations != together[1][0].n_iterations

    def test_shared_first_sweep_trained_once(self, monkeypatch):
        """Both searches start from the same swarm, so the first call
        trains its placements once; every distinct placement of either
        search is trained once, in one call per sweep."""
        evaluated, scores = [], []

        def spy(*args):
            evaluated.append(np.array(args[3]))
            scores.append(evaluate_placement(*args))
            return scores[-1]

        monkeypatch.setattr("irlv.planner.evaluate_placement", spy)
        pso = PsoConfig(n_particles=3, max_iterations=2, stall_iterations=3)
        (ce_run, _), (auc_run, _) = plan_placement(
            StreetScenario.default(), self.STREET_EVAL, self._searches(pso, pso))
        assert [len(e) for e in evaluated] == [3, 6, 6]  # one shared sweep, then both swarms
        rows = np.concatenate(evaluated).reshape(15, -1)
        assert len(np.unique(rows, axis=0)) == 15
        assert ce_run.particle_values[0] == [s.ce_bits for s in scores[0]]
        assert auc_run.particle_values[0] == [s.auc_value for s in scores[0]]


def test_run_pso_rejects_wrong_objective_shape():
    with pytest.raises(ValueError, match=r"returned shape \(2,\) for 3 particles"):
        run_pso(lambda x: np.zeros(2), BOUNDS, 2, PsoConfig(n_particles=3),
                np.random.default_rng(0))
