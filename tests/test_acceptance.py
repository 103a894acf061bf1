"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line (run with -s to see them on success)."""

import json
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import unitary_group

from gbskit import bench, gaussian, sampler
from gbskit.cli import main as cli_main
from gbskit.encoding import Graph, choose_scale, encode_graph
from gbskit.generators import (
    planted_clique_graph,
    random_complex_graph,
    random_complex_symmetric,
    zero_one_graph,
)
from gbskit.matfn import hafnian
from gbskit.solvers import (
    Objective,
    ProposalSource,
    greedy_peel,
    random_search,
    simulated_annealing,
)

from oracles import all_patterns, matching_hafnian


def report(num, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def one_sided_greater(a, b):
    """95% one-sided z-test that noise point a's p_hat exceeds b's. A point's
    variance is its trials' part, read off its reported 95% CI, plus its
    finite pool's part p (1 - p) / kept: p_hat estimates the pool's fraction
    of target-beating patterns, itself a binomial estimate of the exact q."""
    def var(r):
        trial_se = (r.ci95[1] - r.ci95[0]) / (2 * 1.959963984540054)
        return trial_se**2 + r.p_hat * (1 - r.p_hat) / r.kept

    z = (a.p_hat - b.p_hat) / np.sqrt(var(a) + var(b))
    return z > 1.6448536269514722, z


class TestAcceptance:
    def test_01_hafnian_oracle_equivalence(self):
        worst = 0.0
        for n in range(2, 13, 2):
            for trial in range(50):
                rng = np.random.default_rng([n, trial])
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                a = (a + a.T) / 2
                np.fill_diagonal(a, 0)
                expected = matching_hafnian(a)
                err = abs(hafnian(a) - expected) / max(abs(expected), 1e-300)
                worst = max(worst, err)
        report(1, "hafnian matches pairing enumeration", worst < 1e-9,
               f"worst rel err {worst:.2e}")

    def test_02_hafnian_closed_forms(self):
        ok = True
        for k in range(1, 7):
            expected = float(np.prod(np.arange(2 * k - 1, 0, -2)))
            ok &= abs(hafnian(np.ones((2 * k, 2 * k))) - expected) < 1e-9 * expected
        k33 = np.zeros((6, 6))
        k33[:3, 3:] = 1
        k33[3:, :3] = 1
        ok &= abs(hafnian(k33) - 6.0) < 1e-12
        report(2, "double factorial and K33 closed forms", ok)

    def test_03_torontonian_normalization(self):
        worst = 0.0
        for i in range(20):
            m = 3 + i % 3
            rng = np.random.default_rng([300, i])
            r = rng.uniform(0.2, 1.0, m)
            u = unitary_group.rvs(m, random_state=rng)
            state = gaussian.state_from_device(r, u)
            if i % 4 == 1:
                state = gaussian.apply_loss(state, 0.7)
            elif i % 4 == 2:
                state = gaussian.apply_thermal(state, 0.3)
            total = sum(
                gaussian.pattern_probability(state, p) for p in all_patterns(m)
            )
            worst = max(worst, abs(total - 1.0))
        report(3, "pattern probabilities sum to 1", worst < 1e-7,
               f"worst deviation {worst:.2e}")

    def test_04_sampler_exactness(self):
        rng = np.random.default_rng(400)
        r = rng.uniform(0.3, 0.9, 4)
        u = unitary_group.rvs(4, random_state=rng)
        state = gaussian.state_from_device(r, u)
        pool = sampler.sample(state, 100000, seed=41)
        counts = {p: 0 for p in all_patterns(4)}
        for p in map(tuple, pool.samples.tolist()):
            counts[p] += 1
        tvd = 0.5 * sum(
            abs(counts[p] / 100000 - gaussian.pattern_probability(state, p))
            for p in all_patterns(4)
        )
        single = gaussian.state_from_device([1.0], [[1.0]])
        freq = np.mean(sampler.sample(single, 100000, seed=42).click_counts())
        p_true = 1 - 1 / np.cosh(1.0)
        sigma = np.sqrt(p_true * (1 - p_true) / 100000)
        ok = tvd < 0.02 and abs(freq - p_true) < 3 * sigma
        report(4, "sampler matches exact distribution",
               ok, f"TVD {tvd:.4f}, single-mode dev {abs(freq - p_true) / sigma:.2f} sigma")

    def test_05_encoding_roundtrip(self):
        worst = 0.0
        for i in range(20):
            n = 4 + i % 13
            g = random_complex_graph(n, seed=500 + i)
            c = choose_scale(g, min(3.0, n / 3))
            state = encode_graph(g, c).build_state()
            a = gaussian.sampling_matrix(state).a
            err = np.linalg.norm(a - c * g.adjacency) / np.linalg.norm(c * g.adjacency)
            worst = max(worst, err)
            clicks = gaussian.mean_clicks(state)
            assert abs(clicks - min(3.0, n / 3)) < 1e-4
        g = random_complex_graph(16, seed=516)
        c = choose_scale(g, 6.0)
        state = encode_graph(g, c).build_state()
        clicks = sampler.sample(state, 100000, seed=51).click_counts()
        se = clicks.std(ddof=1) / np.sqrt(clicks.size)
        dev = abs(clicks.mean() - 6.0) / se
        report(5, "encoding roundtrip and scale calibration",
               worst < 1e-8 and dev < 3.0,
               f"worst roundtrip {worst:.2e}, empirical clicks {dev:.2f} SE")

    def test_06_torontonian_hafnian_density_correlation(self):
        table = bench.correlation_study(1000, seed=600)
        ok = (
            table.spearman_tor_haf > 0
            and table.spearman_tor_density > 0
            and table.pvalue_tor_haf / 2 < 0.05
            and table.pvalue_tor_density / 2 < 0.05
        )
        report(6, "Torontonian rank-correlates with |Haf|^2 and density", ok,
               f"rho_haf {table.spearman_tor_haf:.3f}, "
               f"rho_density {table.spearman_tor_density:.3f}")

    def _paired_enhancement(self, graph, k, kind, raw_samples, seed):
        obj = Objective(kind=kind, graph=graph, k=k)
        c = choose_scale(graph, float(k))
        state = encode_graph(graph, c).build_state()
        pool = sampler.postselect(sampler.sample(state, raw_samples, seed), k)
        assert len(pool) >= 2000, f"pool too small: {len(pool)}"
        diffs = []
        for s in range(100):
            src = bench.resampled_pool_source(
                pool, 200, int(np.random.default_rng([seed, s]).integers(2**32))
            )
            e = random_search(obj, src, 200, seed=s)
            u = random_search(obj, ProposalSource(kind="uniform"), 200, seed=s)
            diffs.append(e.value_at(200) - u.value_at(200))
        d = np.array(diffs)
        z = d.mean() / (d.std(ddof=1) / np.sqrt(len(d)))
        return d.mean(), z

    def test_07_enhancement_existence(self):
        g1 = planted_clique_graph(16, 6, 0.2, seed=3)
        mean1, z1 = self._paired_enhancement(g1, 6, "density", 30000, seed=71)

        g2 = random_complex_graph(12, seed=5)
        obj2 = Objective(kind="maxhaf", graph=g2, k=4)
        opt = max(obj2.value(s) for s in combinations(range(12), 4))
        mean2, z2 = self._paired_enhancement(g2, 4, "maxhaf", 15000, seed=72)

        ok = z1 > 1.645 and z2 > 1.645
        report(7, "pool proposals beat uniform proposals", ok,
               f"density z={z1:.1f}, |Haf|^2 z={z2:.1f} (optimum {opt:.3f})")

    def test_08_noise_monotonicity(self):
        # The classical target is the exact expected best of one 3000-step
        # uniform run over all C(16, 6) = 8008 |Haf|^2 values, 10.4527 at
        # every seed, and only the top 6-subset (16.69; the next is 8.71)
        # beats it.
        # Sizes from a power calculation on the exact q (each point's pool
        # fraction of target-beating 6-click patterns, i.e. the top subset's
        # share of P6 = P(6 clicks)):
        #   eta 1, 0.75, 0.5 (eps 0): q = 0.00959, 0.00691, 0.00457;
        #     P6 = 0.0977, 0.0705, 0.0384
        #   eps 0.25, 0.5 (eta 1):    q = 0.00417, 0.00200; P6 = 0.0946, 0.0986
        # Var p_hat ~ q^2 (1 - q) / trials + q (1 - q) / (pool_size P6). At
        # 400 000 draws and 3000 trials the expected z of the four steps is
        # 3.7, 3.1, 8.7 and 5.3, all >= 3; the pool's part dominates. Seed
        # 42 realizes z = 4.2, 4.7, 9.4 and 4.1 (stream 6).
        g = random_complex_graph(16, seed=29)
        kw = dict(trials=3000, seed=42, objective="maxhaf", pool_size=400000,
                  classical_budget=3000, classical_trials=40, mean_clicks=4.0)
        eta_rows = bench.noise_sweep(g, 6, [1.0, 0.75, 0.5], [0.0], **kw)
        eps_rows = bench.noise_sweep(g, 6, [1.0], [0.0, 0.25, 0.5], **kw)
        zs = []
        ok = True
        for rows in (eta_rows, eps_rows):
            for a, b in zip(rows, rows[1:]):
                sig, z = one_sided_greater(a, b)
                ok &= sig
                zs.append(z)
        detail = "z = " + ", ".join(f"{z:.1f}" for z in zs)
        report(8, "success rate decreases with loss and thermal noise", ok, detail)

    def test_09_geometric_fit_calibration(self):
        coverages = []
        for p in [0.0196, 0.0024, 0.5]:
            hits = 0
            for rep in range(200):
                rng = np.random.default_rng([900, int(p * 1e6), rep])
                fit = bench.geometric_fit(rng.geometric(p, size=3000))
                hits += fit.ci95[0] <= p <= fit.ci95[1]
            coverages.append(hits / 200)
        ok = all(0.90 <= c for c in coverages)
        report(9, "geometric-fit CI coverage near nominal", ok,
               "coverage " + ", ".join(f"{c:.3f}" for c in coverages))

    def test_10_greedy_baseline_and_sa_exceedance(self):
        # hand-traced fixtures
        star = np.zeros((6, 6))
        star[0, 1:] = star[1:, 0] = 1.0
        fixtures_ok = (
            0 in greedy_peel(Graph(n=6, adjacency=star), 2)
            and greedy_peel(planted_clique_graph(16, 6, 0.1, seed=1), 6)
            == (0, 1, 2, 3, 4, 5)
        )
        # regenerate per the planted recipe until greedy is not optimal
        found = None
        for inst_seed in range(20):
            g = planted_clique_graph(16, 6, 0.35, seed=inst_seed)
            obj = Objective(kind="density", graph=g, k=6)
            gv = obj.value(greedy_peel(g, 6))
            opt = max(obj.value(s) for s in combinations(range(16), 6))
            if gv < opt:
                found = (g, obj, gv, inst_seed)
                break
        assert found is not None, "no instance with suboptimal greedy in 20 draws"
        g, obj, gv, inst_seed = found
        wins = sum(
            simulated_annealing(
                obj, ProposalSource(kind="uniform"), 500, seed=s
            ).value_at(500) > gv
            for s in range(120)
        )
        report(10, "greedy fixtures exact; SA exceeds greedy", fixtures_ok and wins >= 1,
               f"instance seed {inst_seed}, greedy {gv:.0f}, SA wins {wins}/120")

    def test_11_determinism(self, tmp_path):
        def run(*argv):
            return cli_main([str(a) for a in argv])

        graph = tmp_path / "g.json"
        assert run("gen", "--kind", "planted-clique", "--n", 10, "--seed", 4,
                   "--clique-size", 4, "--noise-prob", 0.2, "--out", graph) == 0
        graph2 = tmp_path / "g2.json"
        assert run("gen", "--kind", "planted-clique", "--n", 10, "--seed", 4,
                   "--clique-size", 4, "--noise-prob", 0.2, "--out", graph2) == 0
        ok = graph.read_bytes() == graph2.read_bytes()

        for cmd, cfg, names in [
            ("correlate", {"n_matrices": 30, "seed": 11},
             ["correlation.csv", "correlation.json", "manifest.json"]),
            ("advantage", {"graph": str(graph), "objective": "density",
                           "k_values": [4], "steps": 100, "trials": 5,
                           "seed": 12, "pool_size": 2000},
             ["advantage.csv", "advantage.json", "manifest.json"]),
            ("noise-sweep", {"graph": str(graph), "k": 4, "eta_grid": [1.0],
                             "epsilon_grid": [0.0], "trials": 10, "seed": 13,
                             "pool_size": 500, "classical_budget": 50,
                             "classical_trials": 5},
             ["noise_sweep.csv", "noise_sweep.json", "manifest.json"]),
        ]:
            cfg_path = tmp_path / f"{cmd}.json"
            cfg_path.write_text(json.dumps(cfg))
            d1, d2 = tmp_path / f"{cmd}-1", tmp_path / f"{cmd}-2"
            for d in (d1, d2):
                assert run("bench", cmd, "--config", cfg_path, "--out", d) == 0
            for name in names:
                ok &= (d1 / name).read_bytes() == (d2 / name).read_bytes()

        trace1, trace2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for out in (trace1, trace2):
            assert run("solve", graph, "--objective", "density", "--k", 4,
                       "--algo", "sa", "--steps", 200, "--seed", 9,
                       "--out", out) == 0
        ok &= trace1.read_bytes() == trace2.read_bytes()
        report(11, "identical reruns are byte-identical", ok)
