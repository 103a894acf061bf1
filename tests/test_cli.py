import inspect
import json
import re

import numpy as np
import pytest
from scipy.stats import unitary_group

from gbskit import bench, cli, files, gaussian, sampler
from gbskit.cli import main
from gbskit.encoding import DeviceParams, encode_graph
from gbskit.sampler import load_pool
from gbskit.solvers import Objective


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def k6_graph(tmp_path):
    path = tmp_path / "k6.json"
    assert run("gen", "--kind", "zero-one", "--n", 6, "--seed", 0,
               "--edge-prob", 1.0, "--out", path) == 0
    return path


class TestGen:
    def test_complete_graph(self, k6_graph):
        g = files.load_graph(k6_graph)
        assert np.allclose(g.adjacency, 1.0 - np.eye(6))

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("gen", "--kind", "random-complex", "--n", 5,
                       "--seed", 3, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_planted_clique_present(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("gen", "--kind", "planted-clique", "--n", 16, "--seed", 1,
                   "--clique-size", 6, "--noise-prob", 0.1, "--out", out) == 0
        g = files.load_graph(out)
        sub = g.adjacency[:6, :6]
        assert np.allclose(sub, 1.0 - np.eye(6))

    def test_missing_clique_size_exits_2(self, tmp_path):
        assert run("gen", "--kind", "planted-clique", "--n", 8, "--seed", 0,
                   "--out", tmp_path / "g.json") == 2


class TestEncode:
    def test_device_roundtrip(self, k6_graph, tmp_path):
        dev_path = tmp_path / "dev.json"
        assert run("encode", k6_graph, "--scale", 0.1, "--out", dev_path) == 0
        dev = files.load_device(dev_path)
        g = files.load_graph(k6_graph)
        expected = encode_graph(g, 0.1)
        assert np.allclose(dev.squeezing, expected.squeezing, atol=1e-12)
        assert np.allclose(dev.interferometer, expected.interferometer, atol=1e-12)
        assert dev.scale == expected.scale

    def test_mean_clicks_option(self, k6_graph, tmp_path):
        dev_path = tmp_path / "dev.json"
        assert run("encode", k6_graph, "--mean-clicks", 2.0, "--out", dev_path) == 0
        assert files.load_device(dev_path).scale > 0

    def test_both_options_rejected(self, k6_graph, tmp_path):
        assert run("encode", k6_graph, "--scale", 0.1, "--mean-clicks", 2.0,
                   "--out", tmp_path / "d.json") == 2

    @pytest.mark.parametrize("scale", [5.0, "nan", "inf"])
    def test_bad_scale_exits_2(self, k6_graph, tmp_path, capsys, scale):
        out = tmp_path / "d.json"
        assert run("encode", k6_graph, "--scale", scale, "--out", out) == 2
        assert "scale must satisfy" in capsys.readouterr().err
        assert not out.exists()


class TestSample:
    def test_full_loss_gives_all_zero_lines(self, k6_graph, tmp_path):
        dev = tmp_path / "dev.json"
        out = tmp_path / "pool.txt"
        assert run("encode", k6_graph, "--mean-clicks", 2.0, "--out", dev) == 0
        assert run("sample", dev, "--count", 20, "--eta", 0.0,
                   "--seed", 1, "--out", out) == 0
        pool = load_pool(out)
        assert all(sum(p) == 0 for p in pool.samples)

    def test_provenance_recorded(self, k6_graph, tmp_path):
        dev = tmp_path / "dev.json"
        out = tmp_path / "pool.txt"
        assert run("encode", k6_graph, "--mean-clicks", 2.0, "--out", dev) == 0
        assert run("sample", dev, "--count", 10, "--eta", 0.9,
                   "--epsilon", 0.1, "--seed", 4, "--out", out) == 0
        pool = load_pool(out)
        assert pool.provenance["eta"] == 0.9
        assert pool.provenance["epsilon"] == 0.1
        assert pool.seed == 4

    # thermal mixing reads no inverse of the Husimi matrix, so it takes
    # devices squeezed far past where that inverse fails (r ~ 9 and 14)
    @pytest.mark.parametrize("r", [10, 14, 20, 30])
    def test_strongly_squeezed_thermal_device_samples(self, tmp_path, r):
        dev = tmp_path / "dev.json"
        out = tmp_path / "pool.txt"
        u = unitary_group.rvs(4, random_state=np.random.default_rng(r))
        files.save_device(DeviceParams(np.full(4, float(r)), u, 1.0), dev)
        assert run("sample", dev, "--count", 10, "--epsilon", 0.1,
                   "--seed", 0, "--out", out) == 0
        assert load_pool(out).samples.shape == (10, 4)

    @pytest.mark.parametrize("r", [20, 30])
    def test_ill_conditioned_pure_device_exits_4(self, tmp_path, capsys, r):
        dev = tmp_path / "dev.json"
        u = unitary_group.rvs(4, random_state=np.random.default_rng(r))
        files.save_device(DeviceParams(np.full(4, float(r)), u, 1.0), dev)
        assert run("sample", dev, "--count", 10, "--seed", 0,
                   "--out", tmp_path / "pool.txt") == 4
        err = capsys.readouterr().err
        assert err.startswith("gbskit: error:") and err.count("\n") == 1
        assert "not positive definite" in err and "Traceback" not in err

    def test_overflowing_covariance_exits_4(self, tmp_path, capsys):
        # cosh^2(300) is finite, but the covariance norm is not
        dev = tmp_path / "dev.json"
        u = unitary_group.rvs(4, random_state=np.random.default_rng(300))
        files.save_device(DeviceParams(np.full(4, 300.0), u, 1.0), dev)
        assert run("sample", dev, "--count", 10, "--seed", 0,
                   "--out", tmp_path / "pool.txt") == 4
        err = capsys.readouterr().err
        assert err.startswith("gbskit: error:") and err.count("\n") == 1
        assert "overflows" in err

    @pytest.mark.parametrize("option, value, message", [
        ("--eta", 1.5, "eta values must lie in [0, 1]"),
        ("--eta", -0.1, "eta values must lie in [0, 1]"),
        ("--eta", "nan", "eta values must lie in [0, 1]"),
        ("--epsilon", -0.5, "epsilon must lie in [0, 1]"),
        ("--epsilon", 1.5, "epsilon must lie in [0, 1]"),
        ("--epsilon", "nan", "epsilon must lie in [0, 1]"),
    ])
    def test_noise_out_of_range_exits_2(self, k6_graph, tmp_path, capsys, option,
                                        value, message):
        dev = tmp_path / "dev.json"
        out = tmp_path / "pool.txt"
        assert run("encode", k6_graph, "--mean-clicks", 2.0, "--out", dev) == 0
        assert run("sample", dev, "--count", 10, option, value,
                   "--seed", 0, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_squeezing_exits_2_without_warning(self, tmp_path, capsys):
        # cosh^2(400) overflows: one error line, no RuntimeWarning before it
        dev = tmp_path / "dev.json"
        files.save_device(DeviceParams(np.array([0.5, 400.0]), np.eye(2), 1.0), dev)
        assert run("sample", dev, "--count", 10, "--seed", 0,
                   "--out", tmp_path / "pool.txt") == 2
        err = capsys.readouterr().err
        assert err == "gbskit: error: matrix contains NaN or Inf entries\n"

    def test_count_too_large_to_allocate_exits_3(self, k6_graph, tmp_path, capsys):
        # numpy refuses the PiB request before allocating any of it
        dev = tmp_path / "dev.json"
        out = tmp_path / "pool.txt"
        assert run("encode", k6_graph, "--mean-clicks", 2.0, "--out", dev) == 0
        assert run("sample", dev, "--count", 10 ** 15, "--seed", 0, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("gbskit: error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_cost_guard_exits_3(self, tmp_path):
        # one mode above gaussian.MAX_TABLE_MODES
        graph = tmp_path / "g.json"
        dev = tmp_path / "dev.json"
        assert run("gen", "--kind", "zero-one", "--n", 25, "--seed", 0,
                   "--edge-prob", 1.0, "--out", graph) == 0
        assert run("encode", graph, "--mean-clicks", 15.0, "--out", dev) == 0
        assert run("sample", dev, "--count", 1, "--seed", 0,
                   "--out", tmp_path / "pool.txt") == 3


class TestSolve:
    def test_greedy_on_k6(self, k6_graph, tmp_path):
        out = tmp_path / "trace.csv"
        assert run("solve", k6_graph, "--objective", "density", "--k", 3,
                   "--algo", "greedy", "--out", out) == 0
        summary = json.loads((tmp_path / "trace.json").read_text())
        assert summary["best_value"] == pytest.approx(6.0)
        assert len(summary["best_subset"]) == 3

    def test_rs_with_planted_pool(self, tmp_path):
        graph = tmp_path / "g.json"
        assert run("gen", "--kind", "planted-clique", "--n", 10, "--seed", 2,
                   "--clique-size", 4, "--noise-prob", 0.05, "--out", graph) == 0
        pool = tmp_path / "pool.txt"
        pool.write_text("modes=10\n1111000000\n")
        out = tmp_path / "trace.csv"
        assert run("solve", graph, "--objective", "density", "--k", 4,
                   "--algo", "rs", "--pool", pool, "--steps", 3,
                   "--out", out) == 0
        summary = json.loads((tmp_path / "trace.json").read_text())
        assert summary["best_value"] == pytest.approx(12.0)
        first = out.read_text().splitlines()[1]
        assert first.startswith("1,") and float(first.split(",")[1]) == 12.0

    def test_pool_of_other_size_exits_2(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        assert run("gen", "--kind", "zero-one", "--n", 8, "--seed", 0,
                   "--out", graph) == 0
        pool = tmp_path / "pool.txt"
        pool.write_text("modes=6\n110000\n")
        out = tmp_path / "trace.csv"
        assert run("solve", graph, "--objective", "density", "--k", 2,
                   "--algo", "rs", "--pool", pool, "--out", out) == 2
        assert capsys.readouterr().err == (
            "gbskit: error: pool pattern length 6 does not match graph size 8\n"
        )
        assert not out.exists()

    def test_odd_k_maxhaf_exits_2(self, k6_graph, tmp_path):
        assert run("solve", k6_graph, "--objective", "maxhaf", "--k", 3,
                   "--algo", "rs", "--out", tmp_path / "t.csv") == 2

    def test_sa_writes_trace(self, k6_graph, tmp_path):
        out = tmp_path / "trace.csv"
        assert run("solve", k6_graph, "--objective", "density", "--k", 3,
                   "--algo", "sa", "--steps", 50, "--seed", 1, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,best_value"
        assert len(lines) == 51

    def test_sa_past_zero_temperature_exits_0(self, tmp_path):
        # at alpha 0.3 the temperature underflows to 0 after about 620 steps
        graph, out = tmp_path / "g.json", tmp_path / "t.csv"
        assert run("gen", "--kind", "random-complex", "--n", 12, "--seed", 3,
                   "--out", graph) == 0
        assert run("solve", graph, "--objective", "density", "--k", 4, "--algo", "sa",
                   "--steps", 2000, "--alpha", 0.3, "--out", out) == 0
        assert len(out.read_text().splitlines()) == 2001

    @pytest.mark.parametrize("t0", ["nan", "inf"])
    def test_sa_non_finite_t0_exits_2(self, k6_graph, tmp_path, capsys, t0):
        out = tmp_path / "trace.csv"
        assert run("solve", k6_graph, "--objective", "density", "--k", 3,
                   "--algo", "sa", "--t0", t0, "--out", out) == 2
        assert "initial temperature must be positive" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "trace.json").exists()

    # an objective value beyond float64: density of a self-loop whose modulus
    # overflows, and |Haf|^2 of a K4 of weight 1e100, (3e200)^2
    @pytest.mark.parametrize("algo", ["rs", "sa"])
    @pytest.mark.parametrize("objective, n, entries, k", [
        ("density", 3, [[0, 0, 1.5e308, 1.5e308], [0, 1, 1.0, 0.0]], 1),
        ("maxhaf", 5, [[i, j, 1e100, 0.0] for i in range(4) for j in range(i + 1, 4)]
         + [[3, 4, 1.0, 0.0]], 4),
    ], ids=["density", "maxhaf"])
    def test_value_beyond_float64_exits_2(self, tmp_path, capsys, objective, n,
                                          entries, k, algo):
        graph, out = tmp_path / "g.json", tmp_path / "trace.csv"
        graph.write_text(json.dumps({"format_version": 1, "n": n, "entries": entries}))
        assert run("solve", graph, "--objective", objective, "--k", k, "--algo", algo,
                   "--steps", 50, "--seed", 1, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("gbskit: error: beyond float64: ")
        assert err.count("\n") == 1
        assert not out.exists() and not (tmp_path / "trace.json").exists()


class TestBench:
    def test_noise_sweep_cost_guard_exits_3(self, tmp_path, monkeypatch):
        # one vertex above gaussian.MAX_TABLE_MODES: refused before any
        # subset is valued, searched or sampled
        def refuse(*args, **kwargs):
            raise AssertionError("ran past the cost guard")

        for name in ("values", "_values", "_mask_values"):
            monkeypatch.setattr(Objective, name, refuse)
        monkeypatch.setattr(bench, "random_search", refuse)
        monkeypatch.setattr(gaussian, "_capped_distributions", refuse)
        monkeypatch.setattr(sampler, "_k_click_masks", refuse)
        graph = tmp_path / "g.json"
        assert run("gen", "--kind", "zero-one", "--n", 25, "--seed", 0,
                   "--out", graph) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": str(graph), "k": 3, "seed": 1}))
        outdir = tmp_path / "report"
        assert run("bench", "noise-sweep", "--config", cfg, "--out", outdir) == 3
        assert not outdir.exists()

    def test_trials_too_large_to_allocate_exits_3(self, k6_graph, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": str(k6_graph), "k": 3, "seed": 1,
                                   "trials": 10 ** 15, "pool_size": 300}))
        outdir = tmp_path / "report"
        assert run("bench", "noise-sweep", "--config", cfg, "--out", outdir) == 3
        err = capsys.readouterr().err
        assert err.startswith("gbskit: error: Unable to allocate") and err.count("\n") == 1
        assert not outdir.exists()

    def test_correlate_two_rows(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_matrices": 2, "seed": 1}))
        outdir = tmp_path / "report"
        assert run("bench", "correlate", "--config", cfg, "--out", outdir) == 0
        lines = (outdir / "correlation.csv").read_text().splitlines()
        assert lines[0] == "tor,haf_sq,density"
        assert len(lines) == 3
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "bench correlate"
        assert manifest["parameters"]["seed"] == 1
        assert manifest["stream"] == 6

    def test_missing_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_matrices": 2}))
        assert run("bench", "correlate", "--config", cfg,
                   "--out", tmp_path / "r") == 2
        assert "seed" in capsys.readouterr().err

    def test_wrong_type_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_matrices": "many", "seed": 1}))
        assert run("bench", "correlate", "--config", cfg,
                   "--out", tmp_path / "r") == 2
        assert "n_matrices" in capsys.readouterr().err

    def test_refused_study_leaves_no_report_directory(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_matrices": 3, "seed": 1, "mode_count": 0}))
        outdir = tmp_path / "out"
        assert run("bench", "correlate", "--config", cfg, "--out", outdir) == 2
        assert capsys.readouterr().err.startswith("gbskit: error:")
        assert not outdir.exists()

    @pytest.mark.parametrize("study, cfg, field", [
        ("noise-sweep", {"k": 3, "eta_grid": [], "seed": 1}, "noise grids"),
        ("noise-sweep", {"k": 3, "epsilon_grid": [], "seed": 1}, "noise grids"),
        ("advantage", {"k_values": [], "seed": 1}, "k_values"),
    ], ids=["eta_grid", "epsilon_grid", "k_values"])
    def test_empty_grid_exits_2(self, k6_graph, tmp_path, capsys, study, cfg, field):
        config, outdir = tmp_path / "cfg.json", tmp_path / "out"
        config.write_text(json.dumps(dict(cfg, graph=str(k6_graph))))
        assert run("bench", study, "--config", config, "--out", outdir) == 2
        err = capsys.readouterr().err
        assert err.startswith("gbskit: error: ") and field in err
        assert not outdir.exists()

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_matrices": 3, "seed": 1, "mode_cont": 8}))
        outdir = tmp_path / "r"
        assert run("bench", "correlate", "--config", cfg, "--out", outdir) == 2
        assert "'mode_cont'" in capsys.readouterr().err
        assert not outdir.exists()

    def test_noise_sweep_budget_is_an_unknown_field(self, tmp_path, capsys):
        # a noise sweep fits every trial, so no step budget is a setting
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"graph": "g.json", "k": 2, "seed": 1, "budget": 4000}))
        outdir = tmp_path / "r"
        assert run("bench", "noise-sweep", "--config", cfg, "--out", outdir) == 2
        assert "unknown config fields ['budget']" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("study, cfg, field", [
        ("correlate", {"n_matrices": 3, "seed": True}, "seed"),
        ("noise-sweep", {"graph": "g.json", "k": 2, "seed": 1, "mean_clicks": False},
         "mean_clicks"),
        ("noise-sweep", {"graph": "g.json", "k": 2, "seed": 1, "eta_grid": [True]},
         "eta_grid"),
        ("advantage", {"graph": "g.json", "k_values": [True], "seed": 1},
         "k_values"),
    ], ids=["int", "float", "float-list", "int-list"])
    def test_boolean_number_exits_2(self, tmp_path, capsys, study, cfg, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outdir = tmp_path / "r"
        assert run("bench", study, "--config", path, "--out", outdir) == 2
        err = capsys.readouterr().err
        assert repr(field) in err and "got bool" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("study, cfg, defaults", [
        ("correlate", {"n_matrices": 2, "seed": 1}, {"mode_count": 4}),
        ("advantage", {"k_values": [2], "seed": 3},
         {"objective": "density", "steps": 1000, "trials": 20, "pool": None,
          "pool_size": 20000}),
        ("noise-sweep", {"k": 2, "seed": 3},
         {"eta_grid": [1.0], "epsilon_grid": [0.0], "trials": 200,
          "pool_size": 20000, "classical_budget": 1000,
          "classical_trials": 40, "objective": "density", "mean_clicks": None}),
    ], ids=["correlate", "advantage", "noise-sweep"])
    def test_manifest_records_defaults(self, k6_graph, tmp_path, study, cfg,
                                       defaults):
        if study != "correlate":
            cfg = dict(cfg, graph=str(k6_graph))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outdir = tmp_path / "report"
        assert run("bench", study, "--config", path, "--out", outdir) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["parameters"] == dict(cfg, **defaults)

    def test_integer_mean_clicks_recorded_as_float(self, k6_graph, tmp_path,
                                                   monkeypatch):
        seen = {}

        def stub(**kwargs):
            seen.update(kwargs)
            return []

        monkeypatch.setattr(bench, "noise_sweep", stub)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"graph": str(k6_graph), "k": 2, "seed": 3, "mean_clicks": 2}
        ))
        outdir = tmp_path / "report"
        assert run("bench", "noise-sweep", "--config", cfg, "--out", outdir) == 0
        recorded = json.loads((outdir / "manifest.json").read_text())
        for value in (seen["mean_clicks"], recorded["parameters"]["mean_clicks"]):
            assert isinstance(value, float) and value == 2.0

    def test_malformed_json_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run("bench", "correlate", "--config", cfg,
                   "--out", tmp_path / "r") == 2

    def test_advantage_reads_pool_file_once(self, tmp_path, monkeypatch):
        graph, dev, pool = (tmp_path / n for n in ("g.json", "d.json", "p.txt"))
        assert run("gen", "--kind", "planted-clique", "--n", 8, "--seed", 1,
                   "--clique-size", 4, "--out", graph) == 0
        assert run("encode", graph, "--mean-clicks", 3.0, "--out", dev) == 0
        assert run("sample", dev, "--count", 400, "--seed", 2, "--out", pool) == 0
        calls = []

        def counted(path):
            calls.append(path)
            return load_pool(path)

        monkeypatch.setattr(sampler, "load_pool", counted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "graph": str(graph), "k_values": [2, 4], "steps": 20, "trials": 3,
            "seed": 5, "pool": str(pool),
        }))
        outdir = tmp_path / "report"
        assert run("bench", "advantage", "--config", cfg, "--out", outdir) == 0
        assert len(calls) == 1
        lines = (outdir / "advantage.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "4"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_matrices": 5, "seed": 9}))
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run("bench", "correlate", "--config", cfg, "--out", d) == 0
        for name in ("correlation.csv", "correlation.json", "manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestMissingFiles:
    @pytest.mark.parametrize("argv", [
        ["solve", "{graph}", "--objective", "density", "--k", 3, "--algo", "rs",
         "--pool", "{tmp}/missing.txt", "--out", "{tmp}/t.csv"],
        ["encode", "{tmp}/missing.json", "--scale", 0.1, "--out", "{tmp}/d.json"],
        ["bench", "noise-sweep", "--config", "{tmp}/sweep.json", "--out", "{tmp}/r"],
        ["bench", "correlate", "--config", "{tmp}/missing.json", "--out", "{tmp}/r"],
    ], ids=["solve-pool", "encode-graph", "bench-graph", "bench-config"])
    def test_exits_2(self, k6_graph, tmp_path, capsys, argv):
        (tmp_path / "sweep.json").write_text(json.dumps(
            {"graph": str(tmp_path / "missing.json"), "k": 2, "seed": 0}
        ))
        argv = [str(a).format(graph=k6_graph, tmp=tmp_path) for a in argv]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("gbskit: error:") and "missing" in err


class TestIntegerArguments:
    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "zero-one", "--n", 6, "--seed", -1, "--out", "{tmp}/g.json"],
        ["gen", "--kind", "zero-one", "--n", -2, "--seed", 0, "--out", "{tmp}/g.json"],
        ["gen", "--kind", "zero-one", "--n", 0, "--seed", 0, "--out", "{tmp}/g.json"],
        ["sample", "{dev}", "--count", 5, "--seed", -1, "--out", "{tmp}/p.txt"],
        ["solve", "{graph}", "--objective", "density", "--k", 3, "--algo", "rs",
         "--seed", -1, "--out", "{tmp}/t.csv"],
    ], ids=["gen-seed", "gen-negative-n", "gen-zero-n", "sample-seed", "solve-seed"])
    def test_negative_seed_or_empty_graph_exits_2(self, k6_graph, tmp_path, capsys,
                                                  argv):
        dev = tmp_path / "dev.json"
        assert run("encode", k6_graph, "--scale", 0.1, "--out", dev) == 0
        argv = [str(a).format(graph=k6_graph, dev=dev, tmp=tmp_path) for a in argv]
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert "must be >=" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.json", "k6.json"]

    @pytest.mark.parametrize("cfg, field", [
        ({"n_matrices": 3, "seed": -1}, "seed"),
        ({"n_matrices": 3, "seed": 1, "mode_count": -1}, "mode_count"),
    ])
    def test_negative_config_integer_exits_2(self, tmp_path, capsys, cfg, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outdir = tmp_path / "r"
        assert run("bench", "correlate", "--config", path, "--out", outdir) == 2
        assert f"{field!r} must be >= 0" in capsys.readouterr().err
        assert not outdir.exists()


class TestWrongFieldTypes:
    @pytest.mark.parametrize("graph", [
        {"n": 2, "entries": 5},
        {"n": 2, "entries": [[0, 1, "x", 0]]},
    ], ids=["entries-not-a-list", "entry-not-numeric"])
    def test_graph_exits_2(self, tmp_path, capsys, graph):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph))
        assert run("encode", path, "--scale", 0.1, "--out", tmp_path / "d.json") == 2
        assert "entries" in capsys.readouterr().err

    def test_boolean_graph_size_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": True, "entries": []}))
        assert run("encode", path, "--scale", 0.1, "--out", tmp_path / "d.json") == 2
        assert "'n' must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("modes", [True, 1.0], ids=["bool", "float"])
    def test_device_modes_not_integer_exits_2(self, tmp_path, capsys, modes):
        # a one-mode device: its field shapes (1, 1) equal (True, True)
        graph, dev = tmp_path / "g.json", tmp_path / "dev.json"
        assert run("gen", "--kind", "zero-one", "--n", 1, "--seed", 0,
                   "--out", graph) == 0
        assert run("encode", graph, "--scale", 0.1, "--out", dev) == 0
        dev.write_text(json.dumps(dict(json.loads(dev.read_text()), modes=modes)))
        out = tmp_path / "pool.txt"
        assert run("sample", dev, "--count", 5, "--seed", 0, "--out", out) == 2
        assert "'modes' must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_device_scale_exits_2(self, k6_graph, tmp_path, capsys):
        dev = tmp_path / "dev.json"
        assert run("encode", k6_graph, "--scale", 0.1, "--out", dev) == 0
        dev.write_text(json.dumps(dict(json.loads(dev.read_text()), scale="a")))
        assert run("sample", dev, "--count", 5, "--seed", 0,
                   "--out", tmp_path / "pool.txt") == 2
        assert "scale" in capsys.readouterr().err


class TestParser:
    def test_commands_dispatch_in_one_process(self, tmp_path):
        graph, dev = tmp_path / "g.json", tmp_path / "dev.json"
        assert run("gen", "--kind", "zero-one", "--n", 4, "--seed", 0,
                   "--out", graph) == 0
        assert run("encode", graph, "--scale", 0.1, "--out", dev) == 0
        assert files.load_graph(graph).n == 4
        assert files.load_device(dev).squeezing.shape == (4,)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dev.json", "g.json"]

    def test_main_reuses_one_parser(self, k6_graph, tmp_path, monkeypatch):
        def rebuild():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "_build_parser", rebuild)
        assert run("encode", k6_graph, "--scale", 0.1, "--out", tmp_path / "d.json") == 0

    def test_bench_help_lists_studies(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--help"])
        assert exc.value.code == 0
        choices = re.findall(r"\{(.*?)\}", capsys.readouterr().out)
        assert choices and all(c.split(",") == list(cli._STUDIES) for c in choices)

    def test_unknown_study_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("bench", "nope", "--config", tmp_path / "c.json", "--out", tmp_path / "r")
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "the following arguments are required: command" in capsys.readouterr().err


class TestStudyFields:
    """`_STUDIES` restates each study's parameters and some of its defaults."""

    @pytest.mark.parametrize("study", list(cli._STUDIES))
    def test_fields_are_the_study_parameters(self, study):
        function, writer, _, fields = cli._STUDIES[study]
        params = inspect.signature(getattr(bench, function)).parameters
        assert sorted(name for name, _, _ in fields) == sorted(params)
        assert callable(getattr(files, writer))

    @pytest.mark.parametrize("study, shared", [
        ("correlate", ["mode_count"]),
        ("advantage", ["objective", "pool", "pool_size"]),
        ("noise-sweep", ["pool_size", "classical_budget", "classical_trials",
                         "objective", "mean_clicks"]),
    ])
    def test_shared_defaults_agree(self, study, shared):
        function, _, _, fields = cli._STUDIES[study]
        params = inspect.signature(getattr(bench, function)).parameters
        stated = []
        for name, _, default in fields:
            own = params[name].default
            if default is cli._REQUIRED:
                assert own is inspect.Parameter.empty, name
            elif own is not inspect.Parameter.empty:
                assert default == own, name
                stated.append(name)
        assert stated == shared
