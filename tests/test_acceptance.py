"""Acceptance gate: one test per shipped guarantee, at desk scale.

Each test states its quantitative bound inline; the terminal summary
(see conftest) prints one PASS/FAIL line per criterion.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from irlv.channel import ChannelParams, generate_fields, generate_shadowing_field
from irlv.cli import _map_jobs
from irlv.dataset import generate_dataset, normalize, split
from irlv.evaluation import complexity_report, empirical_roc
from irlv.mlp import (
    MLP,
    TrainConfig,
    backward,
    ce_loss,
    default_layer_sizes,
    forward,
    init_mlp,
    posterior_from_llr,
    train,
)
from irlv.neyman_pearson import SectorGeometry, alpha, llr, np_roc, pdf_r
from irlv.planner import (
    OBJECTIVE_AUC,
    OBJECTIVE_CE,
    PlacementEvalConfig,
    PsoConfig,
    Seeds,
    evaluate_placement,
    plan_placement,
    run_pso,
)
from irlv.scenario import CircularScenario, StreetScenario


@pytest.fixture(scope="module")
def circular_run():
    """One N_h=8, S=2e4 training pass on the noiseless disc scenario,
    scored on an independent 1e4-sample evaluation set."""
    scenario = CircularScenario.default()
    params = ChannelParams(sigma_s_db=0.0)
    own = np.array([scenario.bs_positions])  # a single placement: a stack of one
    ds = generate_dataset(scenario, None, params, 20_000, 0.5, np.random.default_rng(1), own)
    train_set, _ = split(ds, 0.7)
    p0 = float(np.mean(train_set.labels == 0))

    eval_ds = generate_dataset(scenario, None, params, 10_000, 0.5, np.random.default_rng(42), own)
    train_n, eval_n = normalize(train_set, eval_ds)

    net = init_mlp(default_layer_sizes(1, 8, 3), 2)
    net, _ = train(net, train_n, TrainConfig(learning_rate=0.2, epochs=300, batch_size=128), 2)
    return SimpleNamespace(
        scenario=scenario,
        params=params,
        priors=(p0, 1.0 - p0),
        attenuations=eval_ds.features[:, 0, 0],
        labels=eval_n.labels,
        scores=forward(net, eval_n.features)[:, 0],
    )


class TestDetectionEquivalence:
    def test_criterion_1_np_equivalence(self, circular_run):
        """Vertical ROC gap between the trained net and the likelihood-ratio
        oracle stays within 0.05 over p_fa in [0.05, 0.95]."""
        r = circular_run
        geometry = SectorGeometry(r.scenario, 1e-4)
        np_curve = np_roc(geometry, 100_000, np.exp2(np.linspace(-16.0, 4.0, 200)),
                          np.random.default_rng(7))
        nn_curve = empirical_roc(r.scores, r.labels)
        grid = np.linspace(0.05, 0.95, 181)
        nn_md = np.interp(grid, nn_curve.p_fa, nn_curve.p_md)
        np_md = np.interp(grid, np_curve.p_fa, np_curve.p_md)
        gap = float(np.max(np.abs(nn_md - np_md)))
        assert gap <= 0.05

    def test_criterion_2_posterior_recovery(self, circular_run):
        """The net output approximates the a-posteriori inside probability
        implied by the oracle densities and the training class balance."""
        r = circular_run
        geometry = SectorGeometry(r.scenario, 1e-4)
        bits = llr(r.attenuations, geometry, r.params)
        p0, p1 = r.priors
        posterior_h1 = 1.0 - posterior_from_llr(bits, p0, p1)
        mae = float(np.mean(np.abs(r.scores - posterior_h1)))
        assert mae <= 0.05


def _max_rel_err(analytic, numeric) -> float:
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(f), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def _fd_gradients(net: MLP, feats, labels, h=1e-5):
    grads_w = [np.zeros_like(w) for w in net.weights]
    grads_b = [np.zeros_like(b) for b in net.biases]
    for params, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for arr, g in zip(params, grads):
            flat, gf = arr.ravel(), g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                hi = ce_loss(forward(net, feats)[:, 0], labels)
                flat[i] = orig - h
                lo = ce_loss(forward(net, feats)[:, 0], labels)
                flat[i] = orig
                gf[i] = (hi - lo) / (2.0 * h)
    return grads_w, grads_b


class TestGradients:
    def test_criterion_3_gradient_check(self):
        """Backprop matches central finite differences to 1e-5 relative
        error on 20 random small networks."""
        rng = np.random.default_rng(0)
        for trial in range(20):
            n_in = int(rng.integers(1, 5))
            hidden = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(0, 3)))]
            sizes = [n_in] + hidden + [1]
            net = init_mlp(sizes, seed=trial)
            feats = rng.normal(size=(6, 1, n_in))  # a stack of one network
            labels = rng.integers(0, 2, size=6).astype(float)
            gw, gb = backward(net, feats, labels)
            fw, fb = _fd_gradients(net, feats, labels)
            assert _max_rel_err(gw + gb, fw + fb) < 1e-5


@dataclass(frozen=True)
class FieldPatch:
    """Bare rectangular region for field synthesis."""

    bounds: tuple = (0.0, 0.0, 300.0, 300.0)


class TestShadowingStatistics:
    def test_criterion_4_covariance_at_reference_lags(self):
        """Empirical field covariance at lags {d_c/2, d_c, 2 d_c} within 10%
        of sigma^2 * exp(-lag/d_c), estimated over 800 realizations."""
        params = ChannelParams(grid_spacing_m=3.75)
        lag_steps = (10, 20, 40)  # 37.5 m, 75 m, 150 m
        sums = dict.fromkeys(lag_steps, 0.0)
        counts = dict.fromkeys(lag_steps, 0)
        for r in range(800):
            v = generate_shadowing_field(FieldPatch(), params, 5000 + r).values
            for k in lag_steps:
                sums[k] += float(np.sum(v[:, :-k] * v[:, k:]) + np.sum(v[:-k, :] * v[k:, :]))
                counts[k] += v[:, k:].size + v[k:, :].size
        for k in lag_steps:
            lag = k * params.grid_spacing_m
            emp = sums[k] / counts[k]
            theory = params.sigma_s_db**2 * np.exp(-lag / params.d_c_m)
            assert abs(emp - theory) / theory <= 0.10


def _seeds(k: int) -> Seeds:
    """Shadowing seed k's fields, rows, initial weights and swarm."""
    return Seeds(field=100 + k, dataset=1000 + k, init=2000 + k, pso=3000 + k)


def _street_auc(n_hidden: int, s_total: int, k: int) -> float:
    """Test AUC of the street map's own placement, through the pipeline."""
    scenario = StreetScenario.default()
    cfg = PlacementEvalConfig(
        s_total=s_total, n_hidden=n_hidden, n_layers=3,
        train=TrainConfig(learning_rate=0.2, epochs=300, batch_size=128),
    )
    seeds = _seeds(k)
    fields = generate_fields(scenario, cfg.channel, seeds.field)
    [score] = evaluate_placement(scenario, fields, cfg, seeds, np.array([scenario.bs_positions]))
    return score.auc_value


class TestCapacityAndDataTrends:
    def test_criterion_5_mean_auc_monotone(self):
        """Mean test AUC over 5 shadowing seeds never worsens by more than
        0.02 when the sample count or the hidden width grows."""
        sizes = (1_000, 10_000, 20_000)
        widths = (2, 8)
        mean_auc = {
            (nh, s): float(np.mean([_street_auc(nh, s, k) for k in range(5)]))
            for nh in widths
            for s in sizes
        }
        for nh in widths:
            for small, large in zip(sizes, sizes[1:]):
                assert mean_auc[(nh, large)] <= mean_auc[(nh, small)] + 0.02
        for s in sizes:
            assert mean_auc[(8, s)] <= mean_auc[(2, s)] + 0.02


def _placement_search(objectives, k: int, s_total: int, epochs: int, max_iterations: int):
    """Seeded swarm runs over the street map, one per objective, in
    lockstep on one evaluation config; returns per objective the result
    and the final placement's test AUC (from the evaluation cache)."""
    scenario = StreetScenario.default()
    eval_cfg = PlacementEvalConfig(
        channel=ChannelParams(), s_total=s_total, p0=0.5, train_frac=0.7,
        n_hidden=8, n_layers=3,
        train=TrainConfig(learning_rate=0.2, epochs=epochs, batch_size=128),
    )
    # plan_placement searches the map's bounds, (0, 0) to (525, 525)
    assert scenario.bounds == (0.0, 0.0, 525.0, 525.0)
    runs = plan_placement(scenario, eval_cfg, _seeds(k), PsoConfig(max_iterations=max_iterations),
                          objectives)
    return {objective: (result, best_aucs[-1])
            for objective, (result, best_aucs) in zip(objectives, runs)}


def _final_aucs(k: int) -> dict:
    """Final-placement test AUC of seed k's two criterion-7 searches."""
    runs = _placement_search((OBJECTIVE_CE, OBJECTIVE_AUC), k, s_total=20_000, epochs=100,
                             max_iterations=10)
    return {objective: final_auc for objective, (_, final_auc) in runs.items()}


class TestSwarmSearch:
    def test_criterion_6_pso_bookkeeping(self):
        """Global-best histories are exactly monotone, and a full placement
        run is bit-reproducible under fixed seeds."""
        first, _ = _placement_search((OBJECTIVE_CE,), 0, s_total=2_000, epochs=40,
                                     max_iterations=4)[OBJECTIVE_CE]
        second, _ = _placement_search((OBJECTIVE_CE,), 0, s_total=2_000, epochs=40,
                                      max_iterations=4)[OBJECTIVE_CE]
        assert first.history == second.history
        np.testing.assert_array_equal(first.best_x, second.best_x)
        for a, b in zip(first.best_x_history, second.best_x_history):
            np.testing.assert_array_equal(a, b)
        assert all(b <= a for a, b in zip(first.history, first.history[1:]))

        def sphere(x):
            return np.sum((x - 3.0) ** 2, axis=-1)

        for seed in range(20):
            res = run_pso(sphere, (0.0, 10.0), 4, PsoConfig(max_iterations=30),
                          np.random.default_rng(seed))
            assert all(b <= a for a, b in zip(res.history, res.history[1:]))

    def test_criterion_7_ce_objective_is_an_auc_proxy(self):
        """With 2e4 samples per evaluation, planning against training CE
        lands within 0.05 mean AUC of planning against AUC directly,
        over 5 seeds with shared swarm initializations.  A seed's two
        searches run in lockstep in one call; the five seeds run on two
        worker processes of the CLI's --jobs pool."""
        values = _map_jobs(_final_aucs, [(k,) for k in range(5)], 2)
        finals = {
            objective: float(np.mean([v[objective] for v in values]))
            for objective in (OBJECTIVE_CE, OBJECTIVE_AUC)
        }
        diff = abs(finals[OBJECTIVE_CE] - finals[OBJECTIVE_AUC])
        assert diff <= 0.05


class TestOracleNormalization:
    def test_criterion_8_densities_and_area_identity(self):
        """Both conditional radius densities integrate to one within 1e-3,
        and the angular-fraction areas match the region areas within 0.5%."""
        geometry = SectorGeometry(CircularScenario.default(), 1e-4)
        r = np.linspace(1e-9, 40.0, 200_001)
        for hypothesis in (0, 1):
            total = float(np.trapezoid(pdf_r(r, hypothesis, geometry), r))
            assert abs(total - 1.0) <= 1e-3
        al = alpha(r, geometry)
        area0 = float(np.trapezoid(al * r, r))
        area1 = float(np.trapezoid((2.0 * np.pi - al) * r, r))
        assert abs(area0 - geometry.area_a0) / geometry.area_a0 <= 5e-3
        assert abs(area1 - geometry.area_a1) / geometry.area_a1 <= 5e-3


class TestComplexityModel:
    def test_criterion_9_output_cost_formula(self):
        """Reported per-decision cost equals the closed-form expression for
        10 random parameter tuples, as exact integers."""
        rng = np.random.default_rng(0)
        for _ in range(10):
            n_ap = int(rng.integers(1, 11))
            n_h = int(rng.integers(1, 65))
            n_l = int(rng.integers(1, 6))
            tau = int(rng.integers(1, 1_000_000))
            p = int(rng.integers(1, 21))
            report = complexity_report(n_ap, n_h, n_l, tau, p)
            expected = (2 * n_ap * n_h + 2 * n_h**2 * n_l + 2 * n_h) * tau
            assert report.c_out == expected
            c_roc = tau * int(np.ceil(np.log2(tau))) + 2 * tau if tau > 1 else 2
            c_auc = 4 * (tau + 1)
            assert report.c_test == p * (expected + c_roc + c_auc)
