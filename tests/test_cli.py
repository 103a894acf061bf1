import json

import numpy as np
import pytest

from gbskit import files, sampler
from gbskit.cli import main
from gbskit.encoding import encode_graph
from gbskit.sampler import load_pool


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

    def test_bad_scale_exits_2(self, k6_graph, tmp_path):
        assert run("encode", k6_graph, "--scale", 5.0,
                   "--out", tmp_path / "d.json") == 2


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

    def test_cost_guard_exits_3(self, tmp_path):
        graph = tmp_path / "g.json"
        dev = tmp_path / "dev.json"
        assert run("gen", "--kind", "zero-one", "--n", 16, "--seed", 0,
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


class TestBench:
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
