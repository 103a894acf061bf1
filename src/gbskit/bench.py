"""Benchmark analytics: correlation studies, score/speed advantage, geometric
step-count fits, and noise sweeps.

All entry points are deterministic given their master seed; per-trial
generators are derived from (seed, index) so results do not depend on
evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

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
    "advantage_report",
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
    """Random complex symmetric matrices (spectral norm 0.9) encoded as pure
    devices; per matrix: full-click Torontonian, |Hafnian|^2, and density."""
    if n_matrices < 2:
        raise ValidationError("need at least 2 matrices for a correlation study")
    rows = []
    for i in range(n_matrices):
        a = random_complex_symmetric(
            mode_count, seed=np.random.default_rng([seed, i]).integers(2**32)
        )
        state = gaussian.pure_state_from_a(a)
        o = np.eye(2 * mode_count) - np.linalg.inv(state.husimi)
        tor = torontonian(o)
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

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("advantage report needs at least one trial")


def advantage_report(
    photon_click_k: int,
    enhanced: list[RunTrace],
    classical: list[RunTrace],
    at_step: int,
) -> AdvantageReport:
    score, score_se = score_advantage(enhanced, classical, at_step)
    speed = speed_advantage(enhanced, classical, at_step)
    return AdvantageReport(
        photon_click_k=photon_click_k,
        score_advantage=score,
        speed_advantage=speed.ratio,
        trials=len(enhanced),
        standard_error=score_se,
    )


def advantage_study(
    graph: Graph, k_values, steps: int, trials: int, seed: int,
    objective: str = "density", pool: SamplePool | None = None,
    pool_size: int = 20000,
) -> list[AdvantageReport]:
    """Resampled Pool-RS against uniform RS, `trials` paired runs of `steps`
    steps at each subgraph size k. Each k post-selects `pool` to k clicks
    or, without one, a `pool_size` pool from the graph encoded at k clicks."""
    reports = []
    for ki, k in enumerate(k_values):
        obj = Objective(kind=objective, graph=graph, k=k)
        raw_pool = pool
        if raw_pool is None:
            state = encode_graph(graph, choose_scale(graph, float(k))).build_state()
            pool_seed = int(np.random.default_rng([seed, ki]).integers(2**32))
            raw_pool = sampler.sample(state, pool_size, pool_seed)
        kept = sampler.postselect(raw_pool, k)
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
        reports.append(advantage_report(k, enhanced, classical, at_step=steps))
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
    if np.any(arr < 1):
        raise ValidationError("step counts must be >= 1")
    mean = float(np.mean(arr))
    p_hat = 1.0 / mean
    se_mean = float(np.std(arr, ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    z = 1.959963984540054
    hi_mean = mean + z * se_mean
    lo_mean = max(mean - z * se_mean, 1.0)
    lo = 1.0 / hi_mean
    hi = min(1.0 / lo_mean, 1.0)
    return GeometricFit(p_hat=min(p_hat, 1.0), n_trials=arr.size, ci95=(lo, hi))


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
    p_hat: float | None
    ci95: tuple[float, float] | None
    trials: int
    censored_fraction: float
    no_success: bool


def _classical_target(
    obj: Objective, budget: int, trials: int, seed: int
) -> float:
    vals = [
        random_search(
            obj, ProposalSource(kind="uniform"), budget,
            seed=int(np.random.default_rng([seed, i]).integers(2**32)),
        ).value_at(budget)
        for i in range(trials)
    ]
    return float(np.mean(vals))


def noise_sweep(
    graph: Graph,
    k: int,
    eta_grid,
    epsilon_grid,
    trials: int,
    seed: int,
    pool_size: int = 20000,
    budget: int = 4000,
    classical_budget: int = 1000,
    classical_trials: int = 40,
    objective: str = "density",
    target: float | None = None,
    mean_clicks: float | None = None,
) -> list[NoisePoint]:
    """Pool-enhanced random search under a grid of loss/thermal noise levels.

    For each (eta, epsilon): encode the graph at a scale targeting k mean
    clicks, apply input thermal mixing then output loss, sample a pool,
    post-select to k clicks, and record steps for resampled Pool-RS trials to
    reach the classical-RS target, fitting a geometric success probability.
    Trials exhausting the budget are right-censored and excluded from the fit.
    """
    etas = list(eta_grid)
    epss = list(epsilon_grid)
    if any(not 0 <= e <= 1 for e in etas + epss):
        raise ValidationError("noise grids must lie within [0, 1]")
    obj = Objective(kind=objective, graph=graph, k=k)
    if target is None:
        target = _classical_target(obj, classical_budget, classical_trials, seed)
    c = choose_scale(
        graph, target_mean_clicks=float(k) if mean_clicks is None else mean_clicks
    )
    pure = encode_graph(graph, c).build_state()
    rows = []
    for gi, (eta, eps) in enumerate([(e, p) for e in etas for p in epss]):
        state = gaussian.apply_thermal(pure, eps)
        state = gaussian.apply_loss(state, eta)
        pool_seed = int(np.random.default_rng([seed, 1000 + gi]).integers(2**32))
        pool = sampler.postselect(sampler.sample(state, pool_size, pool_seed), k)
        if len(pool) == 0:
            rows.append(
                NoisePoint(eta, eps, None, None, 0, 1.0, no_success=True)
            )
            continue
        # value each pool pattern once; a resampled Pool-RS trial then reduces
        # to the first i.i.d. draw landing on a target-beating pattern
        good = obj.values(pool.subsets(k)) >= target
        steps_hit = []
        censored = 0
        for t in range(trials):
            trng = np.random.default_rng([seed, 2000 + gi, t])
            idx = trng.integers(len(pool), size=budget)
            hits = np.flatnonzero(good[idx])
            if hits.size:
                steps_hit.append(int(hits[0]) + 1)
            else:
                censored += 1
        if not steps_hit:
            rows.append(
                NoisePoint(eta, eps, None, None, trials, 1.0, no_success=True)
            )
            continue
        fit = geometric_fit(steps_hit)
        rows.append(
            NoisePoint(
                eta=eta,
                epsilon=eps,
                p_hat=fit.p_hat,
                ci95=fit.ci95,
                trials=trials,
                censored_fraction=censored / trials,
                no_success=False,
            )
        )
    return rows
