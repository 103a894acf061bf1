"""Benchmark analytics: correlation studies, score/speed advantage, geometric
step-count fits, and noise sweeps.

All entry points are deterministic given their master seed; per-trial,
per-pool and per-grid-point generators are derived from (seed, index) so
results do not depend on evaluation order. A noise sweep's classical
random-search target is the exact expected best of a run whenever valuing
every k-subset once costs no more than simulating the runs
(`_classical_target` holds that rule), and every click mask, of that table
and of each pool, is valued by `Objective._mask_values`. The sweep's grid
points draw their pools from the capped click laws of one stacked recursion,
and each point's p_hat and CI are the geometric fit of all its trials' step
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian, sampler
from .encoding import Graph, choose_scale, encode_graph
from .errors import ValidationError
from .generators import random_complex_symmetric
from .matfn import hafnian, torontonian
from .sampler import SamplePool
from .solvers import Objective, ProposalSource, RunTrace, random_search

__all__ = [
    "CorrelationTable",
    "AdvantageReport",
    "SpeedAdvantage",
    "GeometricFit",
    "NoisePoint",
    "correlation_study",
    "score_advantage",
    "speed_advantage",
    "advantage_study",
    "geometric_fit",
    "noise_sweep",
    "resampled_pool_source",
]


# ---------------------------------------------------------------------------
# correlation study (random 4-mode devices)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationTable:
    rows: list  # (tor, haf_sq, density) per trial
    spearman_tor_haf: float
    spearman_tor_density: float
    pvalue_tor_haf: float
    pvalue_tor_density: float


def correlation_study(
    n_matrices: int, seed: int, mode_count: int = 4
) -> CorrelationTable:
    """Random complex symmetric matrices A (spectral norm 0.9), each the
    sampling matrix of a pure device; per matrix: full-click Torontonian,
    |Hafnian|^2, and density. The Torontonian's O = I - sigma^-1 of that
    device is X (A + A*) with X the block swap, written down from A."""
    from scipy import stats  # here alone, so no other path loads scipy

    if n_matrices < 2:
        raise ValidationError("need at least 2 matrices for a correlation study")
    if mode_count < 2 or mode_count % 2:
        raise ValidationError(f"mode_count must be even and >= 2, got {mode_count}")
    gaussian._check_size(mode_count, None)  # the torontonian's cap, before any matrix
    rows = []
    for i in range(n_matrices):
        a = random_complex_symmetric(
            mode_count, seed=np.random.default_rng([seed, i]).integers(2**32)
        )
        zero = np.zeros_like(a)
        tor = torontonian(np.block([[zero, a.conj()], [a, zero]]))
        haf_sq = float(abs(hafnian(a)) ** 2)
        dens = float(abs(a.sum()))
        rows.append((tor, haf_sq, dens))
    arr = np.array(rows)
    rho_h, p_h = stats.spearmanr(arr[:, 0], arr[:, 1])
    rho_d, p_d = stats.spearmanr(arr[:, 0], arr[:, 2])
    return CorrelationTable(
        rows=rows,
        spearman_tor_haf=float(rho_h),
        spearman_tor_density=float(rho_d),
        pvalue_tor_haf=float(p_h),
        pvalue_tor_density=float(p_d),
    )


# ---------------------------------------------------------------------------
# score / speed advantage
# ---------------------------------------------------------------------------

def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return m, se


def score_advantage(
    enhanced: list[RunTrace], classical: list[RunTrace], at_step: int
) -> tuple[float, float]:
    """Ratio of mean best values at a fixed step; returns (ratio, std error)."""
    if not enhanced or not classical:
        raise ValidationError("trace sets must be nonempty")
    ev = np.array([t.value_at(at_step) for t in enhanced])
    cv = np.array([t.value_at(at_step) for t in classical])
    me, se_e = _mean_se(ev)
    mc, se_c = _mean_se(cv)
    if mc == 0:
        raise ValidationError("classical mean best value is zero")
    ratio = me / mc
    se = abs(ratio) * np.sqrt((se_e / me) ** 2 + (se_c / mc) ** 2) if me != 0 else 0.0
    return ratio, float(se)


@dataclass(frozen=True)
class SpeedAdvantage:
    ratio: float
    standard_error: float
    censored: int  # enhanced trials that never reached their target in budget


def speed_advantage(
    enhanced: list[RunTrace], classical: list[RunTrace], budget: int
) -> SpeedAdvantage:
    """Mean classical steps-to-target over mean enhanced steps-to-target.

    Targets are paired per trial: trial i's target is the classical run i's
    best value at the budget. Enhanced runs that never reach it are counted
    at the budget and flagged via the censored count."""
    if not enhanced or not classical:
        raise ValidationError("trace sets must be nonempty")
    if len(enhanced) != len(classical):
        raise ValidationError("speed advantage requires paired trace sets")
    c_steps, e_steps, censored = [], [], 0
    for etr, ctr in zip(enhanced, classical):
        target = ctr.value_at(budget)
        c_steps.append(ctr.steps_to_reach(target))
        hit = etr.steps_to_reach(target)
        if hit is None or hit > budget:
            hit = budget
            censored += 1
        e_steps.append(hit)
    mc, se_c = _mean_se(np.array(c_steps, dtype=float))
    me, se_e = _mean_se(np.array(e_steps, dtype=float))
    ratio = mc / me
    se = ratio * np.sqrt((se_c / mc) ** 2 + (se_e / me) ** 2)
    return SpeedAdvantage(ratio=float(ratio), standard_error=float(se), censored=censored)


@dataclass(frozen=True)
class AdvantageReport:
    photon_click_k: int
    score_advantage: float
    speed_advantage: float
    trials: int
    standard_error: float


def advantage_study(
    graph: Graph, k_values, steps: int, trials: int, seed: int,
    objective: str = "density", pool: SamplePool | None = None,
    pool_size: int = 20000,
) -> list[AdvantageReport]:
    """Resampled Pool-RS against uniform RS, `trials` paired runs of `steps`
    steps at each subgraph size k. Each k post-selects `pool` to k clicks
    or, without one, draws the k-click part of a `pool_size` pool from the
    graph encoded at k clicks (`sampler.sample_k_clicks`)."""
    if steps < 1 or trials < 1:
        raise ValidationError(f"steps ({steps}) and trials ({trials}) must be >= 1")
    # every k passes Objective's rules before any pool is drawn
    objs = [Objective(kind=objective, graph=graph, k=k) for k in k_values]
    if not objs:
        raise ValidationError("k_values must hold at least one subgraph size")
    reports = []
    for ki, obj in enumerate(objs):
        k = obj.k
        if pool is None:
            state = encode_graph(graph, choose_scale(graph, float(k))).build_state()
            # no trial key [seed, ki, t] pads with zeros to the pool's key
            pool_seed = int(np.random.default_rng([seed, ki, 0, 1]).integers(2**32))
            kept = sampler.sample_k_clicks(state, pool_size, k, pool_seed)
        else:
            kept = sampler.postselect(pool, k)
        if len(kept) == 0:
            raise ValidationError(
                f"no pool samples left after post-selecting to {k} clicks"
            )
        enhanced, classical = [], []
        for t in range(trials):
            tseed = int(np.random.default_rng([seed, ki, t]).integers(2**32))
            src = resampled_pool_source(kept, steps, tseed)
            enhanced.append(random_search(obj, src, steps, seed=tseed))
            classical.append(
                random_search(obj, ProposalSource(kind="uniform"), steps, seed=tseed)
            )
        score, score_se = score_advantage(enhanced, classical, steps)
        speed = speed_advantage(enhanced, classical, steps).ratio
        reports.append(AdvantageReport(k, score, speed, trials, score_se))
    return reports


# ---------------------------------------------------------------------------
# geometric step-count fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometricFit:
    p_hat: float
    n_trials: int
    ci95: tuple[float, float]

    def __post_init__(self):
        if not 0.0 < self.p_hat <= 1.0:
            raise ValidationError("p_hat must lie in (0, 1]")
        lo, hi = self.ci95
        if not lo <= self.p_hat <= hi:
            raise ValidationError("confidence interval must contain p_hat")


def geometric_fit(steps) -> GeometricFit:
    """Maximum-likelihood fit of the per-step success probability:
    p_hat = 1/mean(steps), 95% CI by normal approximation of 1/mean."""
    arr = np.asarray(list(steps), dtype=float)
    if arr.size == 0:
        raise ValidationError("cannot fit an empty list of step counts")
    if not (np.isfinite(arr) & (arr >= 1)).all():
        raise ValidationError("step counts must be finite and >= 1")
    mean, se_mean = _mean_se(arr)
    half = 1.959963984540054 * se_mean  # the normal 97.5% quantile
    ci95 = (1.0 / (mean + half), min(1.0 / max(mean - half, 1.0), 1.0))
    return GeometricFit(p_hat=min(1.0 / mean, 1.0), n_trials=arr.size, ci95=ci95)


# ---------------------------------------------------------------------------
# noise sweep
# ---------------------------------------------------------------------------

def resampled_pool_source(pool: SamplePool, steps: int, seed: int) -> ProposalSource:
    """Proposal source of `steps` i.i.d. draws (with replacement) from a pool,
    so independent trials see independent sample streams."""
    if len(pool) == 0:
        raise ValidationError("cannot resample an empty pool")
    rng = np.random.default_rng(seed)
    idx = rng.integers(len(pool), size=steps)
    resampled = replace(
        pool, samples=pool.samples[idx],
        provenance=dict(pool.provenance, resampled_steps=steps), seed=seed,
    )
    return ProposalSource(kind="pool", pool=resampled)


@dataclass(frozen=True)
class NoisePoint:
    eta: float
    epsilon: float
    target: float  # classical random-search target a pool draw must reach
    p_hat: float | None
    ci95: tuple[float, float] | None
    trials: int  # step counts drawn and fitted: 0 when no_success
    kept: int  # pool patterns left after post-selection to k clicks
    no_success: bool


def _classical_target(obj: Objective, budget: int, trials: int, seed: int) -> float:
    """Expected best value of a uniform random-search run of `budget` steps.

    A run proposes i.i.d. uniform k-subsets, so its best has the exact law
    P(best <= v) = F(v)^budget, F the objective's CDF over all C(n, k)
    subsets. When C(n, k) <= trials * budget, valuing every k-subset once
    costs no more than `trials` runs: the popcount-k masks of
    `gaussian._slice_masks(n, k)` are valued by `obj._mask_values`, and the
    target is exact, one term v (F(v)^budget - F(v-)^budget) per distinct
    value v, and reads no seed. Above, it is the mean best of `trials` runs
    of `random_search`, run i seeded from `default_rng([seed, i, 1])`."""
    n, k = obj.graph.n, obj.k
    if math.comb(n, k) > trials * budget:
        keys = (np.random.default_rng([seed, i, 1]) for i in range(trials))
        runs = (random_search(obj, ProposalSource(kind="uniform"), budget,
                              seed=int(key.integers(2**32))) for key in keys)
        return float(np.mean([run.value_at(budget) for run in runs]))
    masks = gaussian._slice_masks(n, k)
    table = obj._mask_values(masks[np.bitwise_count(masks) == k])
    values, counts = np.unique(table, return_counts=True)
    # libm pow, not numpy's SIMD power, whose last bit varies by CPU
    cdf = [(c / len(table)) ** budget for c in np.cumsum(counts).tolist()]
    return math.fsum(v * (f - g) for v, f, g in zip(values.tolist(), cdf, [0.0] + cdf))


def noise_sweep(
    graph: Graph,
    k: int,
    eta_grid,
    epsilon_grid,
    trials: int,
    seed: int,
    pool_size: int = 20000,
    classical_budget: int = 1000,
    classical_trials: int = 40,
    objective: str = "density",
    mean_clicks: float | None = None,
) -> list[NoisePoint]:
    """Pool-enhanced random search under a grid of loss/thermal noise levels.

    For each (eta, epsilon): encode the graph at a scale targeting k mean
    clicks, apply thermal mixing and loss (the two channels commute), and
    draw the k-click part of a `pool_size` pool (`sampler.sample_k_clicks`).
    A resampled Pool-RS trial's steps to reach the classical-RS target are
    the first of its i.i.d. pool draws to land on a target-beating pattern,
    so they are Geometric(q), q the pool's fraction of such patterns: each
    point draws its `trials` step counts from one stream and fits p_hat and
    its CI to all of them; a point with q = 0 (an empty pool, or none that
    beats the target) draws none and reports `no_success`, 0 trials and no
    fit. The graph has at most `gaussian.MAX_TABLE_MODES` vertices. Every
    point's k-click law comes from one stacked recursion
    (`gaussian._capped_distributions`), with the bytes of its own; point gi
    draws its pool from its law as `sample_k_clicks` would, seeded from
    `[seed, gi, 2]`, and its trial steps from `[seed, gi, 3]`.

    The pool stays as its drawn click bitmasks (`sampler._k_click_masks`),
    and a mask whose popcount is not k is refused as `SamplePool.subsets`
    refuses its pattern. The target, on every row, is the expected best of
    a uniform run of `classical_budget` steps (`_classical_target`): exact
    up to C(n, k) <= classical_trials * classical_budget, above that the
    mean best of `classical_trials` simulated runs. Either way each pool is
    valued from its masks by `Objective._mask_values`, and q read from
    those values, with no pattern array built.
    """
    etas = list(eta_grid)
    epss = list(epsilon_grid)
    if not (etas and epss and all(map(gaussian._is_noise_level, etas + epss))):
        raise ValidationError("noise grids must hold real numbers within [0, 1], "
                              "none empty")
    if min(trials, pool_size, classical_budget, classical_trials) < 1:
        raise ValidationError(
            "trials, pool_size, classical_budget and classical_trials must be >= 1"
        )
    obj = Objective(kind=objective, graph=graph, k=k)
    k = obj.k
    gaussian._check_size(graph.n, k)
    target = _classical_target(obj, classical_budget, classical_trials, seed)
    c = choose_scale(
        graph, target_mean_clicks=float(k) if mean_clicks is None else mean_clicks
    )
    pure = encode_graph(graph, c).build_state()
    grid = [(eta, eps) for eta in etas for eps in epss]
    thermal = [gaussian.apply_thermal(pure, eps) for eps in epss]  # once each
    states = [gaussian.apply_loss(mixed, eta) for eta in etas for mixed in thermal]
    # every point's k-click law from one recursion, point gi's from row gi
    laws = gaussian._capped_distributions(states, k)
    rows = []
    for gi, ((eta, eps), law) in enumerate(zip(grid, laws)):
        pool_seed = int(np.random.default_rng([seed, gi, 2]).integers(2**32))
        clicked = sampler._k_click_masks(law, pool_size, k, pool_seed)
        sampler._check_clicks(np.bitwise_count(clicked), k)
        vals = obj._mask_values(clicked)
        # an empty pool has q = 0
        q = float(np.mean(vals >= target)) if clicked.size else 0.0
        fit = (geometric_fit(np.random.default_rng([seed, gi, 3]).geometric(q, trials))
               if q > 0 else None)
        rows.append(
            NoisePoint(
                eta=eta,
                epsilon=eps,
                target=target,
                p_hat=fit.p_hat if fit else None,
                ci95=fit.ci95 if fit else None,
                trials=fit.n_trials if fit else 0,
                kept=clicked.size,
                no_success=fit is None,
            )
        )
    return rows
