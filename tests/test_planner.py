"""Swarm search tests: kinematics, bookkeeping, and placement objectives."""

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from irlv.channel import ChannelParams, generate_fields
from irlv.evaluation import auc
from irlv.mlp import TrainConfig
from irlv.planner import (
    OBJECTIVE_AUC,
    OBJECTIVE_CE,
    OBJECTIVE_TWO_STAGE,
    PlacementEvalConfig,
    PsoConfig,
    Seeds,
    _swarm,
    evaluate_placement,
    plan_placement,
    run_pso,
)
from irlv.scenario import REGION_INSIDE, REGION_OUTSIDE, Position, StreetScenario


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
    train=TrainConfig(learning_rate=1.0, epochs=300, batch_size=64),
)
FAST_SEEDS = Seeds(field=10, dataset=11, init=12, pso=0)

STREET_EVAL = PlacementEvalConfig(
    channel=ChannelParams(), s_total=600, n_hidden=4, n_layers=2,
    train=TrainConfig(learning_rate=0.5, epochs=5, batch_size=64),
)
STREET_SEEDS = Seeds(field=1, dataset=2, init=3, pso=0)


def _score(scenario, xy, cfg, seeds):
    """evaluate_placement of one placement, a stack of one, with its own fields."""
    fields = generate_fields(scenario, cfg.channel, seeds.field)
    return evaluate_placement(scenario, fields, cfg, seeds, np.reshape(xy, (1, -1, 2)))[0]


class TestEvaluatePlacement:
    def test_deterministic(self):
        scenario = DiscRoiScenario()
        a = _score(scenario, [50.0, 50.0], FAST_EVAL, FAST_SEEDS)
        b = _score(scenario, [50.0, 50.0], FAST_EVAL, FAST_SEEDS)
        assert (a.ce_bits, a.auc_value) == (b.ce_bits, b.auc_value)
        np.testing.assert_array_equal(a.roc.p_fa, b.roc.p_fa)
        np.testing.assert_array_equal(a.roc.p_md, b.roc.p_md)

    def test_separable_placement_trains_to_low_ce(self):
        """A base station at the disc center makes the single attenuation
        feature perfectly separable, so training drives CE near zero."""
        assert _score(DiscRoiScenario(), [50.0, 50.0], FAST_EVAL, FAST_SEEDS).ce_bits < 0.1

    def test_uninformative_labels_give_half_auc(self):
        value = _score(CheckerboardScenario(), [50.0, 50.0], FAST_EVAL, FAST_SEEDS).auc_value
        assert abs(value - 0.5) < 0.05

    def test_objective_selects_metric(self):
        """A frozen one-particle swarm started at a placement reports that
        placement's CE or AUC, as its objective says."""
        scenario = DiscRoiScenario()
        score = _score(scenario, [30.0, 70.0], FAST_EVAL, FAST_SEEDS)
        for objective, expected in ((OBJECTIVE_CE, score.ce_bits), (OBJECTIVE_AUC, score.auc_value)):
            pso = PsoConfig(n_particles=1, max_iterations=0)
            [(result, aucs)] = plan_placement(scenario, FAST_EVAL, FAST_SEEDS, pso, [objective],
                                              initial_positions=[[30.0, 70.0]])
            assert result.history == [expected]
            assert aucs == [score.auc_value]
        assert score.auc_value == auc(score.roc)

    def test_bad_objective_rejected(self):
        with pytest.raises(ValueError, match="objective must be 'ce', 'auc' or 'two-stage'"):
            plan_placement(DiscRoiScenario(), FAST_EVAL, FAST_SEEDS, PsoConfig(), ["f1"])


class TestPlanPlacement:
    GRID_EVAL = PlacementEvalConfig(
        channel=QUIET_CHANNEL,
        s_total=400,
        n_hidden=4,
        n_layers=2,
        train=TrainConfig(learning_rate=1.0, epochs=60, batch_size=64),
    )
    GRID_SEEDS = Seeds(field=20, dataset=21, init=22, pso=0)

    def _seeds(self, pso: int) -> Seeds:
        return dataclasses.replace(self.GRID_SEEDS, pso=pso)

    def test_matches_grid_search_on_one_bs_toy(self):
        """Dense grid search over the map is the oracle; the swarm must get
        within 5% of its best objective."""
        scenario = DiscRoiScenario()
        grid = np.linspace(10.0, 90.0, 5)
        grid_best = min(
            _score(scenario, [x, y], self.GRID_EVAL, self.GRID_SEEDS).ce_bits
            for x in grid
            for y in grid
        )
        pso = PsoConfig(n_particles=5, max_iterations=40, stall_iterations=8)
        [(result, _)] = plan_placement(scenario, self.GRID_EVAL, self._seeds(1), pso, [OBJECTIVE_CE])
        assert result.best_value <= grid_best * 1.05 + 1e-3

    def test_history_monotone(self):
        scenario = DiscRoiScenario()
        pso = PsoConfig(n_particles=3, max_iterations=4, stall_iterations=2)
        [(result, _)] = plan_placement(scenario, self.GRID_EVAL, self._seeds(2), pso, [OBJECTIVE_CE])
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
        [(result, aucs)] = plan_placement(scenario, self.GRID_EVAL, self._seeds(5), pso,
                                          [OBJECTIVE_CE])
        assert len(calls) == 1
        assert len(result.particle_values) == 4  # 12 evaluated placements
        assert aucs == [_score(scenario, x, self.GRID_EVAL, self.GRID_SEEDS).auc_value
                        for x in result.best_x_history]

    def test_each_distinct_placement_evaluated_once(self, monkeypatch):
        """Placements go to evaluate_placement once per sweep, each distinct
        unseen one once: two particles clamped to the same corner cost one
        network, and a frozen swarm's later sweeps cost none."""
        evaluated = []

        def spy(*args):
            evaluated.append(np.array(args[4]))
            return evaluate_placement(*args)

        monkeypatch.setattr("irlv.planner.evaluate_placement", spy)
        scenario = DiscRoiScenario()
        starts = [[-5.0, -5.0], [30.0, 70.0], [-1.0, -20.0]]  # first and last clamp to (0, 0)
        frozen = PsoConfig(n_particles=3, inertia=0.0, c1=0.0, c2=0.0, max_iterations=2,
                           stall_iterations=3)
        [(result, aucs)] = plan_placement(scenario, self.GRID_EVAL, self._seeds(6), frozen,
                                          [OBJECTIVE_CE], starts)
        assert len(evaluated) == 1
        np.testing.assert_array_equal(evaluated[0], [[[0.0, 0.0]], [[30.0, 70.0]]])
        first = result.particle_values[0]
        assert first[0] == first[2]
        assert result.particle_values == [first] * 3
        assert aucs == [_score(scenario, result.best_x, self.GRID_EVAL, self.GRID_SEEDS).auc_value] * 3

        evaluated.clear()
        moving = PsoConfig(n_particles=4, max_iterations=3, stall_iterations=3)
        [(result, _)] = plan_placement(scenario, self.GRID_EVAL, self._seeds(7), moving, [OBJECTIVE_CE],
                                       [[0.0, 0.0], [-3.0, 0.0], [50.0, 50.0], [50.0, 50.0]])
        rows = np.concatenate(evaluated).reshape(-1, 2)
        assert len(evaluated) <= len(result.particle_values)
        assert len(rows) == len(np.unique(rows, axis=0)) <= 4 * len(result.particle_values) - 2

    def test_two_stage_refinement(self):
        scenario = DiscRoiScenario()
        pso = PsoConfig(n_particles=3, max_iterations=3, stall_iterations=2)
        (result1, aucs1), (result2, aucs2) = plan_placement(
            scenario, self.GRID_EVAL, self._seeds(3), pso, [OBJECTIVE_TWO_STAGE])
        assert len(aucs1) == len(result1.history)
        # stage 2's first particle sits at the stage-1 best, scored in AUC units
        assert result2.particle_values[0][0] == aucs1[-1]
        assert aucs2 == result2.history
        assert 0.0 <= result2.best_value <= aucs1[-1]


class TestLockstep:
    """Searches that share one evaluation config run in lockstep: one
    field draw, one cache and one stack per sweep, with each search's
    results bit-identical to running it alone."""

    @pytest.mark.parametrize("pso_seed, pso, objectives, stops", [
        (4, PsoConfig(n_particles=3, max_iterations=3, stall_iterations=3),
         [OBJECTIVE_CE, OBJECTIVE_AUC], [(3, False), (3, False)]),
        (4, PsoConfig(n_particles=3, max_iterations=5, stall_iterations=2, stall_tolerance=0.01),
         [OBJECTIVE_CE, OBJECTIVE_AUC], [(5, False), (4, True)]),
        (0, PsoConfig(n_particles=3, max_iterations=5, stall_iterations=2),
         [OBJECTIVE_CE, OBJECTIVE_AUC], [(5, True), (3, True)]),
        (2, PsoConfig(n_particles=3, max_iterations=5, stall_iterations=2),
         [OBJECTIVE_CE, OBJECTIVE_AUC], [(2, True), (5, False)]),
        (2, PsoConfig(n_particles=3, max_iterations=5, stall_iterations=2),
         [OBJECTIVE_CE, OBJECTIVE_TWO_STAGE], [(2, True), (2, True), (2, True)]),
    ], ids=["same-limits", "ce-stops-at-max", "auc-stalls-first", "ce-stalls-first",
            "two-stage-beside-ce"])
    def test_matches_searches_run_alone(self, pso_seed, pso, objectives, stops):
        """stops pins each stage's (n_iterations, converged), in objective
        order: the searches stop together, or either one leaves the loop
        first, or a second stage runs on after the search beside it."""
        scenario = StreetScenario.default()
        seeds = dataclasses.replace(STREET_SEEDS, pso=pso_seed)
        together = plan_placement(scenario, STREET_EVAL, seeds, pso, objectives)
        alone = [stage for objective in objectives
                 for stage in plan_placement(scenario, STREET_EVAL, seeds, pso, [objective])]
        assert len(together) == len(alone) == len(stops)
        for (r, aucs), (a, alone_aucs) in zip(together, alone):
            assert r.history == a.history
            assert np.array_equal(r.best_x, a.best_x)
            assert all(map(np.array_equal, r.best_x_history, a.best_x_history))
            assert len(r.best_x_history) == len(a.best_x_history)
            assert r.particle_values == a.particle_values
            assert (r.n_iterations, r.converged) == (a.n_iterations, a.converged)
            assert aucs == alone_aucs
        assert [(r.n_iterations, r.converged) for r, _ in together] == stops
        if stops[0] != stops[1]:  # one search left the loop before the other
            assert together[0][0].n_iterations != together[1][0].n_iterations

    def test_shared_first_sweep_trained_once(self, monkeypatch):
        """Both searches start from the same swarm, so the first call
        trains its placements once.  At this seed the two objectives pick
        different global bests in that sweep, which moves the swarms apart
        from the first step on, so every later call trains both swarms:
        every distinct placement of either search is trained once, in one
        call per sweep."""
        evaluated, scores = [], []

        def spy(*args):
            evaluated.append(np.array(args[4]))
            scores.append(evaluate_placement(*args))
            return scores[-1]

        monkeypatch.setattr("irlv.planner.evaluate_placement", spy)
        pso = PsoConfig(n_particles=3, max_iterations=2, stall_iterations=3)
        (ce_run, _), (auc_run, _) = plan_placement(
            StreetScenario.default(), STREET_EVAL, STREET_SEEDS, pso, [OBJECTIVE_CE, OBJECTIVE_AUC])
        assert [len(e) for e in evaluated] == [3, 6, 6]  # one shared sweep, then both swarms
        rows = np.concatenate(evaluated).reshape(15, -1)
        assert len(np.unique(rows, axis=0)) == 15
        assert ce_run.particle_values[0] == [s.ce_bits for s in scores[0]]
        assert auc_run.particle_values[0] == [s.auc_value for s in scores[0]]
        assert np.argmin(ce_run.particle_values[0]) != np.argmin(auc_run.particle_values[0])

    def test_two_stage_trains_stage_one_once(self, monkeypatch):
        """A two-stage search scores its second stage through the fields and
        cache of its first, so the stage-one best that stage two starts from
        is not trained again (17 distinct placements in 18 particles), and
        beside a CE search its first stage trains nothing of its own."""
        draws, trained = [], []

        def counting_fields(*args):
            draws.append(args)
            return generate_fields(*args)

        def counting_evaluate(*args):
            trained.append(len(args[4]))
            return evaluate_placement(*args)

        monkeypatch.setattr("irlv.planner.generate_fields", counting_fields)
        monkeypatch.setattr("irlv.planner.evaluate_placement", counting_evaluate)
        pso = PsoConfig(n_particles=3, max_iterations=2, stall_iterations=3)
        two, ce_only = (OBJECTIVE_TWO_STAGE,), (OBJECTIVE_CE,)
        ce_two = ce_only + two
        runs, counts = {}, {}
        for objectives in (two, ce_two, ce_only):
            draws.clear()
            trained.clear()
            runs[objectives] = plan_placement(StreetScenario.default(), STREET_EVAL, STREET_SEEDS,
                                              pso, list(objectives))
            counts[objectives] = (len(draws), sum(trained))
        assert counts == {two: (1, 17), ce_two: (1, 17), ce_only: (1, 9)}
        [(ce, ce_aucs)] = runs[ce_only]
        for stage, aucs in runs[two][:1] + runs[ce_two][:2]:
            assert (stage.history, aucs) == (ce.history, ce_aucs)


class TestSwarmSeed:
    """Every swarm plan_placement starts is drawn from seeds.pso, and a
    two-stage search's second stage from a stream of its own."""

    PSO = PsoConfig(n_particles=3, max_iterations=0)

    @staticmethod
    def _first_sweep(monkeypatch, seeds):
        """The placements a one-search CE call sends to its first evaluation."""
        evaluated = []

        def spy(*args):
            evaluated.append(np.array(args[4]))
            return evaluate_placement(*args)

        monkeypatch.setattr("irlv.planner.evaluate_placement", spy)
        plan_placement(StreetScenario.default(), STREET_EVAL, seeds, TestSwarmSeed.PSO,
                       [OBJECTIVE_CE])
        return evaluated[0].reshape(TestSwarmSeed.PSO.n_particles, -1)

    def test_first_sweep_is_run_psos(self, monkeypatch):
        scenario = StreetScenario.default()
        xmin, ymin, xmax, ymax = scenario.bounds
        bounds = (np.tile([xmin, ymin], scenario.n_bs), np.tile([xmax, ymax], scenario.n_bs))
        sweeps = []

        def spy(x):
            sweeps.append(x.copy())
            return np.zeros(len(x))

        seeds = dataclasses.replace(STREET_SEEDS, pso=7)
        run_pso(spy, bounds, 2 * scenario.n_bs, self.PSO, np.random.default_rng(7))
        np.testing.assert_array_equal(self._first_sweep(monkeypatch, seeds), sweeps[0])

    def test_pso_seed_moves_the_first_sweep(self, monkeypatch):
        first = self._first_sweep(monkeypatch, STREET_SEEDS)
        other = self._first_sweep(monkeypatch, dataclasses.replace(STREET_SEEDS, pso=1))
        assert not np.any(first == other)

    @staticmethod
    def _two_stage(monkeypatch, seeds):
        """A two-stage search's stages, the seeds of every evaluate_placement
        call, and the generator state and starts of each swarm it builds."""
        evaluated, swarms = [], []

        def evaluate_spy(*args):
            evaluated.append(args[3])
            return evaluate_placement(*args)

        def swarm_spy(bounds, dim, config, rng, initial_positions):
            swarms.append((rng.bit_generator.state, initial_positions))
            return _swarm(bounds, dim, config, rng, initial_positions)

        monkeypatch.setattr("irlv.planner.evaluate_placement", evaluate_spy)
        monkeypatch.setattr("irlv.planner._swarm", swarm_spy)
        pso = PsoConfig(n_particles=3, max_iterations=1, stall_iterations=3)
        stages = plan_placement(StreetScenario.default(), STREET_EVAL, seeds, pso,
                                [OBJECTIVE_TWO_STAGE])
        return stages, evaluated, swarms

    def test_two_stage_deterministic_and_seeded_by_pso(self, monkeypatch):
        (run1, run2), evaluated, [(state1, starts1), (state2, starts)] = self._two_stage(
            monkeypatch, STREET_SEEDS)
        (again1, again2), _, [_, (state2_again, starts_again)] = self._two_stage(
            monkeypatch, STREET_SEEDS)
        for (r, aucs), (a, again_aucs) in ((run1, again1), (run2, again2)):
            assert (r.history, r.particle_values, aucs) == (a.history, a.particle_values, again_aucs)
            np.testing.assert_array_equal(r.best_x, a.best_x)
        assert state2 == state2_again
        np.testing.assert_array_equal(starts, starts_again)
        # every evaluation gets the run's seeds; stage one's swarm comes from
        # seeds.pso, and stage two starts at stage one's best with a swarm
        # seed that is not seeds.pso
        assert evaluated and all(seeds == STREET_SEEDS for seeds in evaluated)
        assert state1 == np.random.default_rng(STREET_SEEDS.pso).bit_generator.state
        assert starts1 is None
        assert state2 != state1
        np.testing.assert_array_equal(starts[0], run1[0].best_x)

        _, _, [_, (other_state2, other_starts)] = self._two_stage(
            monkeypatch, dataclasses.replace(STREET_SEEDS, pso=1))
        assert other_state2 != state2
        jitter, other_jitter = starts[1:] - starts[0], other_starts[1:] - other_starts[0]
        assert not np.any(jitter == other_jitter)


def test_run_pso_rejects_wrong_objective_shape():
    with pytest.raises(ValueError, match=r"returned shape \(2,\) for 3 particles"):
        run_pso(lambda x: np.zeros(2), BOUNDS, 2, PsoConfig(n_particles=3),
                np.random.default_rng(0))
