import json
import os

import numpy as np
import pytest

from gbskit import files
from gbskit.bench import AdvantageReport, NoisePoint
from gbskit.encoding import encode_graph
from gbskit.errors import ValidationError
from gbskit.generators import random_complex_graph
from gbskit.solvers import RunTrace


class TestGraphIO:
    def test_roundtrip(self, tmp_path):
        g = random_complex_graph(7, seed=5)
        path = tmp_path / "g.json"
        files.save_graph(g, path)
        loaded = files.load_graph(path)
        assert loaded.n == 7
        assert np.allclose(loaded.adjacency, g.adjacency, atol=1e-15)

    def test_format_version_present(self, tmp_path):
        g = random_complex_graph(3, seed=1)
        path = tmp_path / "g.json"
        files.save_graph(g, path)
        assert json.loads(path.read_text())["format_version"] == files.FORMAT_VERSION

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"format_version": 1, "n": 2}))
        with pytest.raises(ValidationError, match="entries"):
            files.load_graph(path)

    def test_out_of_range_entry_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 2, "entries": [[0, 5, 1.0, 0.0]]}))
        with pytest.raises(ValidationError):
            files.load_graph(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{oops")
        with pytest.raises(ValidationError):
            files.load_graph(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("5")
        with pytest.raises(ValidationError, match="JSON object"):
            files.load_graph(path)

    def test_non_numeric_entry_rejected(self, tmp_path):
        path = tmp_path / "g.json"
        for entries in (5, [[0, 1, "x", 0]], [[0.0, 1, 1.0, 0.0]], [7]):
            path.write_text(json.dumps({"n": 2, "entries": entries}))
            with pytest.raises(ValidationError, match="entries"):
                files.load_graph(path)


class TestDeviceIO:
    def test_roundtrip(self, tmp_path):
        g = random_complex_graph(5, seed=2)
        dev = encode_graph(g, 0.1)
        path = tmp_path / "dev.json"
        files.save_device(dev, path)
        loaded = files.load_device(path)
        assert np.allclose(loaded.squeezing, dev.squeezing, atol=1e-15)
        assert np.allclose(loaded.interferometer, dev.interferometer, atol=1e-15)
        assert loaded.scale == dev.scale

    def test_missing_field_rejected(self, tmp_path):
        dev = encode_graph(random_complex_graph(2, seed=2), 0.1)
        path = tmp_path / "dev.json"
        files.save_device(dev, path)
        data = json.loads(path.read_text())
        del data["interferometer_im"]
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError,
                           match="device file missing field 'interferometer_im'"):
            files.load_device(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text(json.dumps({
            "modes": 2, "scale": 0.1, "squeezing": [0.1],
            "interferometer_re": [[1, 0], [0, 1]],
            "interferometer_im": [[0, 0], [0, 0]],
        }))
        with pytest.raises(ValidationError):
            files.load_device(path)

    @pytest.mark.parametrize("field, value", [
        ("scale", "a"), ("squeezing", ["a", 0.2]),
        ("squeezing", [[0.1], 0.2]), ("interferometer_im", [[0, None], [0, 0]]),
    ])
    def test_non_numeric_field_rejected(self, tmp_path, field, value):
        dev = encode_graph(random_complex_graph(2, seed=2), 0.1)
        path = tmp_path / "dev.json"
        files.save_device(dev, path)
        data = dict(json.loads(path.read_text()), **{field: value})
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=field):
            files.load_device(path)


class TestReports:
    def test_trace_csv_and_summary(self, tmp_path):
        trace = RunTrace(best_values=np.array([1.0, 2.0]), best_subset=(0, 3),
                         steps_used=2, seed=9)
        csv, summ = tmp_path / "t.csv", tmp_path / "t.json"
        files.save_trace(trace, csv, summ, {"algo": "rs"})
        assert csv.read_text().splitlines()[0] == "step,best_value"
        data = json.loads(summ.read_text())
        assert data["best_value"] == 2.0
        assert data["best_subset"] == [0, 3]
        assert data["parameters"]["algo"] == "rs"
        assert data["stream"] == 6

    def test_noise_table_handles_no_success(self, tmp_path):
        rows = [
            NoisePoint(1.0, 0.0, 24.5, 0.1, (0.08, 0.12), 10, 412, False),
            NoisePoint(0.0, 0.0, 24.5, None, None, 0, 0, True),
        ]
        csv, js = tmp_path / "n.csv", tmp_path / "n.json"
        files.save_noise_table(rows, csv, js)
        lines = csv.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "eta,epsilon,target,p_hat,ci_lo,ci_hi,trials,kept,no_success"
        assert lines[1].split(",")[2:8] == ["24.5", "0.1", "0.08", "0.12", "10", "412"]
        assert lines[2].endswith(",1")
        data = json.loads(js.read_text())
        assert data["rows"][1]["p_hat"] is None
        assert [r["kept"] for r in data["rows"]] == [412, 0]
        assert [r["target"] for r in data["rows"]] == [24.5, 24.5]

    def test_advantage_report(self, tmp_path):
        reports = [AdvantageReport(6, 1.5, 2.0, 10, 0.1)]
        csv, js = tmp_path / "a.csv", tmp_path / "a.json"
        files.save_advantage_report(reports, csv, js)
        assert "photon_click_k" in csv.read_text().splitlines()[0]
        assert json.loads(js.read_text())["reports"][0]["score_advantage"] == 1.5

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "x.txt"
        files.atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "x.txt"
        path.write_text("old")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(files.os, "replace", fail)
        with pytest.raises(OSError):
            files.atomic_write_text(path, "new")
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_chmod_closes_and_removes_the_temp_file(self, tmp_path, monkeypatch):
        path, seen = tmp_path / "x.txt", []

        def fail(fd, mode):
            seen.append(fd)
            raise OSError("chmod refused")

        monkeypatch.setattr(files.os, "fchmod", fail)
        with pytest.raises(OSError, match="chmod refused"):
            files.atomic_write_text(path, "new")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(OSError):  # EBADF: the descriptor was closed
            os.fstat(seen[0])
