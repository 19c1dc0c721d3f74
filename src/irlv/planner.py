"""Swarm search (PSO) for base-station placements.

The swarm core is generic: it minimizes any vector objective over a box,
scoring each sweep of the swarm with one call.  On top of it,
evaluate_placement is the one generate/train/score pipeline: it
synthesizes data for a set of placements, trains one verifier network per
placement, and reports each network's final training cross-entropy (cheap
proxy) and its test ROC and AUC.  The roc and np-compare commands call it
with the scenario's own placement, a stack of one.

Seeds for fields, data, and network init stay constant for the whole run,
so every particle in every iteration faces the same noise realization and
objective differences reflect placement alone.  The positions, labels,
initial weights and mini-batch order are therefore shared by every
placement: evaluate_placement draws the rows once and trains the networks
of a sweep as one stack in lockstep (see irlv.mlp), each bit-identical to
training it alone.  plan_placement runs the searches that share one
evaluation config (a seed's CE and AUC searches) in lockstep too: one
field draw, one cache of placement scores and one stack per sweep for all
of them, with each search's results as if it ran alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, generate_fields
from .dataset import generate_dataset, normalize, split
from .evaluation import RocCurve, auc, empirical_roc
from .mlp import TrainConfig, default_layer_sizes, forward, init_mlp, train

OBJECTIVE_CE = "ce"
OBJECTIVE_AUC = "auc"


@dataclass(frozen=True)
class PsoConfig:
    """Swarm size, constriction constants (Clerc and Kennedy 2002) and stopping rule."""

    n_particles: int = 6
    inertia: float = 0.7298
    c1: float = 1.4961
    c2: float = 1.4961
    max_iterations: int = 50
    stall_iterations: int = 5
    stall_tolerance: float = 1e-4

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one particle")
        # zero inertia/acceleration freezes the swarm, still a valid run
        if self.inertia < 0 or self.c1 < 0 or self.c2 < 0:
            raise ValueError("inertia and accelerations must be non-negative")
        if self.max_iterations < 0 or self.stall_iterations < 1:
            raise ValueError("invalid iteration limits")


@dataclass(frozen=True)
class PsoResult:
    best_x: np.ndarray
    best_value: float
    history: list[float]
    best_x_history: list[np.ndarray]
    particle_values: list[list[float]]
    n_iterations: int
    converged: bool


def run_pso(objective_fn, bounds, dim: int, config: PsoConfig,
            rng: np.random.Generator, initial_positions=None) -> PsoResult:
    """Minimize objective_fn over the box until the global best stalls.

    The swarm is P particles held as rows of (P, dim) arrays, started
    uniform over the box (or at the given positions, clipped to it) with
    velocities uniform within one tenth of the box extent per axis.  Each
    iteration moves every particle with per-coordinate acceleration draws
    and scores the whole sweep with one objective_fn call, which maps the
    (P, dim) positions to (P,) values; personal bests update at once, the
    global best (first minimum of the personal bests) after the sweep.
    Stops after stall_iterations without improvement beyond
    stall_tolerance, or at max_iterations.
    """
    search = _swarm(bounds, dim, config, rng, initial_positions)
    try:
        x = next(search)
        while True:
            x = search.send(objective_fn(x))
    except StopIteration as stop:
        return stop.value


def _swarm(bounds, dim: int, config: PsoConfig, rng: np.random.Generator, initial_positions):
    """run_pso's search as a generator: yields each sweep's positions,
    takes their values by send and returns the PsoResult.  It draws from
    rng only while it runs, so searches with their own generators can run
    in lockstep."""
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), (dim,)) for b in bounds)
    if np.any(lo >= hi):
        raise ValueError("lower bounds must stay below upper bounds")
    span = hi - lo
    n = config.n_particles
    # draws come particle by particle: position then velocity, and per step phi1 then phi2
    if initial_positions is None:
        x, v = rng.uniform(np.stack([lo, -span / 10.0]), np.stack([hi, span / 10.0]),
                           size=(n, 2, dim)).swapaxes(0, 1)
    else:
        x = np.clip(np.asarray(initial_positions, dtype=float).reshape(n, dim), lo, hi)
        v = rng.uniform(-span / 10.0, span / 10.0, size=(n, dim))

    def checked(values):
        values = np.array(values, dtype=float)
        if values.shape != (n,):
            raise ValueError(f"objective_fn returned shape {values.shape} for {n} particles")
        return values

    values = checked((yield x))
    best_x, best_values = x.copy(), values
    g = int(np.argmin(best_values))
    gbest_x, gbest_value = best_x[g].copy(), float(best_values[g])
    history, best_x_history, particle_values = [gbest_value], [gbest_x.copy()], [values.tolist()]
    accel = np.array([[config.c1], [config.c2]])
    iteration = stall = 0
    converged = False
    while iteration < config.max_iterations:
        iteration += 1
        phi1, phi2 = rng.uniform(0.0, accel, size=(n, 2, dim)).swapaxes(0, 1)
        v = config.inertia * v + phi1 * (best_x - x) + phi2 * (gbest_x - x)
        x = np.clip(x + v, lo, hi)
        values = checked((yield x))
        particle_values.append(values.tolist())
        improved = values < best_values
        best_values[improved] = values[improved]
        best_x[improved] = x[improved]
        g = int(np.argmin(best_values))
        improvement = gbest_value - best_values[g]
        if best_values[g] < gbest_value:
            gbest_x, gbest_value = best_x[g].copy(), float(best_values[g])
        history.append(gbest_value)
        best_x_history.append(gbest_x.copy())
        stall = stall + 1 if improvement <= config.stall_tolerance else 0
        if stall >= config.stall_iterations:
            converged = True
            break
    return PsoResult(
        best_x=gbest_x,
        best_value=gbest_value,
        history=history,
        best_x_history=best_x_history,
        particle_values=particle_values,
        n_iterations=iteration,
        converged=converged,
    )


@dataclass(frozen=True)
class PlacementEvalConfig:
    """Everything one placement evaluation needs besides the scenario and
    its shadowing fields."""

    channel: ChannelParams = ChannelParams()
    s_total: int = 20_000
    p0: float = 0.5
    train_frac: float = 0.7
    n_hidden: int = 8
    n_layers: int = 3
    train: TrainConfig = TrainConfig()
    field_seed: int = 0
    dataset_seed: int = 1
    init_seed: int = 2


@dataclass(frozen=True)
class PlacementScore:
    ce_bits: float
    auc_value: float
    roc: RocCurve


def evaluate_placement(scenario, fields, cfg: PlacementEvalConfig,
                       placements) -> list[PlacementScore]:
    """Train a verifier net per base-station placement and score each:
    final training CE in bits, test ROC and its AUC.

    placements is a (P, n_bs, 2) array of positions on the scenario's map.
    The rows are drawn once for all placements, each placement gets its own
    attenuation features and standardization, and the P networks train as
    one stack.  fields holds one shadowing map per base station (None for
    none); they depend only on the map bounds, the base-station count and
    the field seed, so callers draw them once for every placement.
    Deterministic given the seeds in cfg, and a placement's score does not
    depend on the others.
    """
    train_set, test_set = split(generate_dataset(
        scenario, fields, cfg.channel, cfg.s_total, cfg.p0,
        np.random.default_rng(cfg.dataset_seed), placements,
    ), cfg.train_frac)
    train_n = normalize(train_set)
    test_n = normalize(test_set, train_n.stats)
    del train_set, test_set  # free the raw features before training: P times a network's
    sizes = default_layer_sizes(scenario.n_bs, cfg.n_hidden, cfg.n_layers)
    mlp, ce = train(init_mlp(sizes, cfg.init_seed, len(placements)), train_n, cfg.train)
    rocs = [empirical_roc(s, test_n.labels) for s in forward(mlp, test_n.features).T]
    return [PlacementScore(ce_bits=float(c), auc_value=auc(roc), roc=roc)
            for c, roc in zip(ce, rocs)]


def plan_placement(scenario, cfg: PlacementEvalConfig, searches, initial_positions=None
                   ) -> list[tuple[PsoResult, list[float]]]:
    """PSO over n_bs base-station positions on the scenario map, for
    searches run in lockstep on one evaluation config.

    searches holds one (objective, PsoConfig, Generator) per search; the
    objective is "ce" (training CE) or "auc" (test AUC).  initial_positions,
    if given, holds one start (or None) per search.  The fields are drawn
    once and each distinct placement is evaluated once, whichever search
    reaches it: every sweep, the not yet seen placements of all running
    searches go to evaluate_placement in one call, as one stack.  A search
    leaves the loop when it stalls or reaches its max_iterations.  Returns
    per search the swarm result and the test AUC of the best placement at
    every iteration, each as if the search had run alone.
    """
    if any(objective not in (OBJECTIVE_CE, OBJECTIVE_AUC) for objective, _, _ in searches):
        raise ValueError(f"objective must be {OBJECTIVE_CE!r} or {OBJECTIVE_AUC!r}")
    fields = generate_fields(scenario, cfg.channel, cfg.field_seed)
    cache: dict[bytes, dict[str, float]] = {}
    xmin, ymin, xmax, ymax = scenario.bounds
    bounds = (np.tile([xmin, ymin], scenario.n_bs), np.tile([xmax, ymax], scenario.n_bs))
    starts = [None] * len(searches) if initial_positions is None else initial_positions
    swarms = [_swarm(bounds, 2 * scenario.n_bs, pso, rng, x0)
              for (_, pso, rng), x0 in zip(searches, starts, strict=True)]
    sweeps = {i: next(search) for i, search in enumerate(swarms)}
    results = [None] * len(swarms)
    while sweeps:
        rows = np.concatenate(list(sweeps.values()))
        new = {row.tobytes(): row for row in rows if row.tobytes() not in cache}
        if new:
            placements = np.reshape(list(new.values()), (len(new), -1, 2))
            cache.update((key, {OBJECTIVE_CE: s.ce_bits, OBJECTIVE_AUC: s.auc_value}) for key, s
                         in zip(new, evaluate_placement(scenario, fields, cfg, placements)))
        for i, xs in list(sweeps.items()):
            try:
                sweeps[i] = swarms[i].send([cache[x.tobytes()][searches[i][0]] for x in xs])
            except StopIteration as stop:
                results[i] = stop.value
                del sweeps[i]
    return [(r, [cache[x.tobytes()][OBJECTIVE_AUC] for x in r.best_x_history]) for r in results]


def plan_two_stage(scenario, cfg: PlacementEvalConfig, stage1: PsoConfig,
                   stage2: PsoConfig, rng: np.random.Generator
                   ) -> tuple[tuple[PsoResult, list[float]], tuple[PsoResult, list[float]]]:
    """A CE search with stage1's swarm settings, refined by an AUC search
    with stage2's, as in the paper; returns both plan_placement results.

    Stage two starts with one particle at the stage-one best placement and
    the rest jittered around it (sigma = map extent / 20, clamped).
    """
    [(result1, aucs1)] = plan_placement(scenario, cfg, [(OBJECTIVE_CE, stage1, rng)])
    xmin, ymin, xmax, ymax = scenario.bounds
    sigma = max(xmax - xmin, ymax - ymin) / 20.0
    seeds = np.tile(result1.best_x, (stage2.n_particles, 1))
    seeds[1:] += rng.normal(0.0, sigma, size=seeds[1:].shape)
    return (result1, aucs1), plan_placement(scenario, cfg, [(OBJECTIVE_AUC, stage2, rng)], [seeds])[0]
