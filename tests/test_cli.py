import ast
import csv
import json
import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from v2vchan.channel import SimConfig, load_tensor
from v2vchan.cli import (CONFIG_KEYS, EXIT_CONFIG, EXIT_DATA, EXIT_OK, RunConfig,
                         load_run_config, main)
from v2vchan.pipeline import SERIES_UNITS, analyze_tensor
from v2vchan.raytracer import TracerConfig
from v2vchan.scenarios import data_path


@pytest.fixture
def run_dir(tmp_path):
    """A small, fast free-space-ish run: ground-only scene, short drive."""
    scene = {
        "ground": {"extent": [-200, -200, 200, 200], "material": "asphalt"},
    }
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))

    def traj(path, x0, vx):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["t", "x", "y", "z", "vx", "vy", "vz"])
            for k in range(11):
                t = k * 0.01
                w.writerow([t, x0 + vx * t, 0.0, 1.5, vx, 0.0, 0.0])

    traj(tmp_path / "tx.csv", 0.0, 0.0)
    traj(tmp_path / "rx.csv", 60.0, -10.0)
    cfg = {
        "scene": str(scene_path),
        "tx_trajectory": str(tmp_path / "tx.csv"),
        "rx_trajectory": str(tmp_path / "rx.csv"),
        "output_dir": str(tmp_path / "out"),
        "n_freq_bins": 129,
        "fine_dt": 1e-3,
        "coarse_trace_dt": 0.01,
        "max_order": 1,
        "enable_diffuse": False,
        "n_avg": 5,
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg_path


class TestTraceCommand:
    def test_trace_writes_one_dump_per_step(self, run_dir):
        tmp, cfg = run_dir
        assert main(["trace", "-c", str(cfg)]) == EXIT_OK
        dumps = sorted((tmp / "out" / "trace").glob("paths_*.csv"))
        assert len(dumps) == 11
        for d in dumps:
            rows = d.read_text().strip().splitlines()
            assert rows[0].startswith("snapshot_t,kind,order,length_m,delay_s,gain_db")
            los_rows = [r for r in rows[1:] if ",los," in r]
            assert len(los_rows) == 1

    @pytest.mark.parametrize("which", ["tx.csv", "rx.csv"])
    def test_non_utf8_trajectory_exit_3(self, run_dir, capsys, which):
        tmp, cfg = run_dir
        text = (tmp / which).read_text()
        (tmp / which).write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
        assert main(["trace", "-c", str(cfg)]) == EXIT_DATA
        assert "not UTF-8" in capsys.readouterr().err

    def test_rerun_byte_identical(self, run_dir):
        tmp, cfg = run_dir
        assert main(["trace", "-c", str(cfg)]) == EXIT_OK
        first = {p.name: p.read_bytes() for p in (tmp / "out" / "trace").glob("*.csv")}
        assert main(["trace", "-c", str(cfg)]) == EXIT_OK
        second = {p.name: p.read_bytes() for p in (tmp / "out" / "trace").glob("*.csv")}
        assert first == second


    @pytest.mark.parametrize("command", ["trace", "synthesize"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_too_small_tile_size_exit_2_before_tracing(self, run_dir, capsys, monkeypatch,
                                                       command, workers):
        """A tile size that would lay more grid cells than the cap is
        refused from the count, before any tracing (and so any pool)
        starts, and without building the tile table."""
        import v2vchan.cli

        def tracing(*args, **kwargs):
            raise AssertionError("tracing started")

        monkeypatch.setattr(v2vchan.cli, "trace_trajectory", tracing)
        tmp, cfg = run_dir
        doc = json.loads(cfg.read_text())
        cfg.write_text(json.dumps({**doc, "enable_diffuse": True, "tile_size": 1e-9}))
        assert main([command, "-c", str(cfg), "--workers", str(workers)]) == EXIT_CONFIG
        assert "grid cells" in capsys.readouterr().err

    def test_small_tile_size_without_diffuse_is_not_counted(self, run_dir):
        tmp, cfg = run_dir
        doc = json.loads(cfg.read_text())
        cfg.write_text(json.dumps({**doc, "tile_size": 1e-9}))
        assert main(["trace", "-c", str(cfg)]) == EXIT_OK


class TestSynthesizeCommand:
    def test_tensor_written_with_header(self, run_dir):
        tmp, cfg = run_dir
        assert main(["synthesize", "-c", str(cfg)]) == EXIT_OK
        t = load_tensor(tmp / "out" / "channel.v2vc")
        assert t.n_time == 100            # 0.1 s / 1 ms
        assert (t.m_rx, t.m_tx) == (4, 4)
        assert t.n_bins == 129
        assert t.carrier_frequency == 5.9e9
        assert (tmp / "out" / "los_labels.csv").exists()

    def test_tensor_reread_bit_identical(self, run_dir):
        tmp, cfg = run_dir
        main(["synthesize", "-c", str(cfg)])
        a = (tmp / "out" / "channel.v2vc").read_bytes()
        main(["synthesize", "-c", str(cfg)])
        b = (tmp / "out" / "channel.v2vc").read_bytes()
        assert a == b


class TestAnalyzeCommand:
    def test_documented_outputs_exactly(self, run_dir):
        tmp, cfg = run_dir
        main(["synthesize", "-c", str(cfg)])
        out = tmp / "metrics"
        assert main(["analyze", str(tmp / "out" / "channel.v2vc"), "-c", str(cfg),
                     "-o", str(out)]) == EXIT_OK
        expected = {"gain.csv", "delay_spread.csv", "doppler_spread.csv",
                    "eigenvalues.csv", "correlation_tx.csv", "correlation_rx.csv",
                    "apdp.csv", "dsd.csv"}
        assert {p.name for p in out.iterdir()} == expected

    def test_static_run_zero_doppler(self, run_dir, tmp_path):
        # both vehicles parked: static channel, Doppler spread ~ 0
        tmp, cfg = run_dir
        doc = json.loads(cfg.read_text())
        rx = Path(doc["rx_trajectory"])
        rows = rx.read_text().splitlines()
        hdr, first = rows[0], rows[1].split(",")
        static_rows = [hdr]
        for k in range(11):
            static_rows.append(",".join([str(k * 0.01), first[1], first[2], first[3],
                                         "0.0", "0.0", "0.0"]))
        rx.write_text("\n".join(static_rows) + "\n")
        main(["synthesize", "-c", str(cfg)])
        out = tmp / "m2"
        main(["analyze", str(tmp / "out" / "channel.v2vc"), "-c", str(cfg), "-o", str(out)])
        rows = (out / "doppler_spread.csv").read_text().strip().splitlines()[1:]
        for r in rows:
            val = float(r.split(",")[1])
            assert val < 1.0  # Hz

    def test_gain_matches_friis(self, run_dir):
        # antenna-free variant: isotropic arrays, ground displaced far below
        # so its specular point misses the small polygon -> pure free space
        tmp, cfg = run_dir
        doc = json.loads(cfg.read_text())
        scene = {"ground": {"vertices": [[-1, -1, -500], [1, -1, -500],
                                         [1, 1, -500], [-1, 1, -500]],
                            "material": "asphalt"}}
        (tmp / "fs.json").write_text(json.dumps(scene))
        doc["scene"] = str(tmp / "fs.json")
        doc["array_type"] = "isotropic"
        doc["output_dir"] = str(tmp / "fsout")
        fs_cfg = tmp / "fs_run.json"
        fs_cfg.write_text(json.dumps(doc))
        main(["synthesize", "-c", str(fs_cfg)])
        out = tmp / "m3"
        main(["analyze", str(tmp / "fsout" / "channel.v2vc"), "-c", str(fs_cfg),
              "-o", str(out)])
        rows = (out / "gain.csv").read_text().strip().splitlines()[1:]
        lam = 299792458.0 / 5.9e9
        for row in rows:
            t0, g0 = (float(x) for x in row.split(","))
            d = 60.0 - 10.0 * t0
            friis = 20 * np.log10(lam / (4 * np.pi * d))
            assert abs(g0 - friis) < 0.1

    def test_malformed_tensor_exit_3(self, run_dir):
        tmp, cfg = run_dir
        bad = tmp / "bad.v2vc"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["analyze", str(bad), "-c", str(cfg)]) == EXIT_DATA

    @pytest.mark.parametrize("header", [{"n_time": 0}, {"dt": math.nan}])
    def test_malformed_tensor_header_exit_3(self, run_dir, write_tensor, header):
        tmp, cfg = run_dir
        bad = write_tensor(tmp / "bad.v2vc", **header)
        assert main(["analyze", str(bad), "-c", str(cfg)]) == EXIT_DATA

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)],
                             ids=["nan", "inf", "-inf", "nan-imag"])
    @pytest.mark.parametrize("where", [(0, 0, 0, 0), (17, 1, 0, 33), (39, 1, 1, 63)],
                             ids=["first", "middle", "last"])
    def test_non_finite_payload_exit_3(self, tmp_path, write_tensor, capsys, value, where):
        """One NaN or inf value anywhere in the payload is a data error,
        not an empty or infinite metric cell."""
        payload = np.ones((40, 2, 2, 64), dtype=np.complex64)
        payload[where] = value
        path = write_tensor(tmp_path / "t.v2vc", payload=payload.tobytes(),
                            n_time=40, m_rx=2, m_tx=2, n_bins=64)
        out = tmp_path / "out"
        assert main(["analyze", str(path), "--n-avg", "8", "-o", str(out)]) == EXIT_DATA
        assert "non-finite payload value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_avg", ["1", "5"])
    def test_window_the_tensor_cannot_hold_exit_2(self, tmp_path, write_tensor, capsys, n_avg):
        path = write_tensor(tmp_path / "t.v2vc")     # 4 time steps
        assert main(["analyze", str(path), "--n-avg", n_avg, "-o", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: n_avg={n_avg}")

    @pytest.mark.parametrize("n_avg, n_bins", [("4", 40), ("8", 16)])
    def test_noise_threshold_the_tensor_cannot_hold_exit_2(self, tmp_path, write_tensor,
                                                          capsys, n_avg, n_bins):
        path = write_tensor(tmp_path / "t.v2vc", n_time=8, n_bins=n_bins)
        assert main(["analyze", str(path), "--n-avg", n_avg, "--noise-threshold",
                     "-o", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: noise_threshold needs")

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, write_tensor, capsys,
                                                         monkeypatch):
        import v2vchan.cli

        def broken(*args, **kwargs):
            raise ValueError("defect inside the analysis")

        monkeypatch.setattr(v2vchan.cli, "analyze_tensor", broken)
        path = write_tensor(tmp_path / "t.v2vc")
        with pytest.raises(ValueError, match="defect inside the analysis"):
            main(["analyze", str(path), "--n-avg", "2", "-o", str(tmp_path)])
        assert "config error" not in capsys.readouterr().err

    def test_series_table_matches_analyze(self, run_dir):
        tmp, cfg = run_dir
        main(["synthesize", "-c", str(cfg)])
        results = analyze_tensor(load_tensor(tmp / "out" / "channel.v2vc"), n_avg=5)
        assert list(results) == [*SERIES_UNITS, "apdp", "dsd"]
        for name, unit in SERIES_UNITS.items():
            assert (results[name].kind, results[name].unit) == (name, unit)


    def test_single_element_ends_analyze_and_compare(self, tmp_path, write_tensor):
        """A 1 x 1 tensor: both correlation files hold only their times, and
        comparing two such directories reports no row for either end."""
        path = write_tensor(tmp_path / "t.v2vc")
        for out in ("mA", "mB"):
            assert main(["analyze", str(path), "--n-avg", "2", "-o",
                         str(tmp_path / out)]) == EXIT_OK
        for end in ("tx", "rx"):
            lines = (tmp_path / "mA" / f"correlation_{end}.csv").read_text().splitlines()
            assert lines[0] == "t_s" and len(lines) == 3
        assert self._report_rows(tmp_path) == ["gain", "delay_spread", "doppler_spread",
                                               "lambda_1"]

    @pytest.mark.parametrize("m", [2, 5])
    def test_two_element_ends_report_rows(self, tmp_path, write_tensor, m):
        """An m x m tensor: the correlation files keep their column names, so
        the report names its rows, in the order analyze writes them."""
        path = write_tensor(tmp_path / "t.v2vc", m_rx=m, m_tx=m)
        for out in ("mA", "mB"):
            assert main(["analyze", str(path), "--n-avg", "2", "-o",
                         str(tmp_path / out)]) == EXIT_OK
        pairs = [f"rho_{i}{j}" for i in range(1, m + 1) for j in range(i + 1, m + 1)]
        assert self._report_rows(tmp_path) == (
            ["gain", "delay_spread", "doppler_spread"]
            + [f"lambda_{i}" for i in range(1, m + 1)]
            + [f"tx_{p}" for p in pairs] + [f"rx_{p}" for p in pairs])

    @staticmethod
    def _report_rows(tmp_path) -> list[str]:
        """The metric names of ``compare mA mB``'s report rows, in order."""
        rep = tmp_path / "rep"
        assert main(["compare", str(tmp_path / "mA"), str(tmp_path / "mB"),
                     "-o", str(rep)]) == EXIT_OK
        return [r[0] for r in list(csv.reader((rep / "report.csv").open()))[1:]]


class TestCompareCommand:
    def _metrics(self, run_dir, out_name):
        tmp, cfg = run_dir
        main(["synthesize", "-c", str(cfg)])
        out = tmp / out_name
        main(["analyze", str(tmp / "out" / "channel.v2vc"), "-c", str(cfg), "-o", str(out)])
        return tmp, cfg, out

    def test_self_compare_all_zero(self, run_dir, capsys):
        tmp, cfg, out = self._metrics(run_dir, "mA")
        rep = tmp / "rep"
        capsys.readouterr()
        assert main(["compare", str(out), str(out), "-o", str(rep)]) == EXIT_OK
        assert capsys.readouterr().out == (rep / "report.txt").read_text() + "\n"
        rows = list(csv.reader((rep / "report.csv").open()))[1:]
        assert rows, "report should have rows"
        for name, seg, mu, sigma, n in rows:
            assert float(mu) == 0.0
            assert float(sigma) == 0.0

    def test_shifted_gain_mean_error(self, run_dir):
        tmp, cfg, out = self._metrics(run_dir, "mB")
        shifted = tmp / "mB_shift"
        shifted.mkdir()
        for p in out.iterdir():
            if p.name == "gain.csv":
                rows = p.read_text().strip().splitlines()
                new = [rows[0]]
                for r in rows[1:]:
                    t, v = r.split(",")
                    new.append(f"{t},{float(v) - 3.0}")
                (shifted / p.name).write_text("\n".join(new) + "\n")
            else:
                (shifted / p.name).write_bytes(p.read_bytes())
        rep = tmp / "rep2"
        assert main(["compare", str(out), str(shifted), "-o", str(rep)]) == EXIT_OK
        rows = list(csv.reader((rep / "report.csv").open()))[1:]
        gain_rows = [r for r in rows if r[0] == "gain"]
        assert gain_rows
        for r in gain_rows:
            assert float(r[2]) == pytest.approx(3.0, abs=1e-9)

    def test_report_rows_match_parameter_list(self, run_dir):
        tmp, cfg, out = self._metrics(run_dir, "mC")
        rep = tmp / "rep3"
        main(["compare", str(out), str(out), "-o", str(rep)])
        rows = list(csv.reader((rep / "report.csv").open()))[1:]
        names = [r[0] for r in rows]
        expected = (["gain", "delay_spread", "doppler_spread"]
                    + [f"lambda_{i}" for i in (1, 2, 3, 4)]
                    + [f"tx_rho_{ij}" for ij in ("12", "13", "14", "23", "24", "34")]
                    + [f"rx_rho_{ij}" for ij in ("12", "13", "14", "23", "24", "34")])
        # every expected parameter appears, in this order (a parameter has a
        # row per segment with samples)
        assert list(dict.fromkeys(names)) == expected

    @pytest.mark.parametrize("target, text", [
        pytest.param("labels", "t_s,label\n0.1\n", id="labels-one-field"),
        pytest.param("labels", "t_s,label\n", id="labels-header-only"),
        pytest.param("labels", "t_s,label\nnan,LOS\n", id="labels-nan-time"),
        pytest.param("labels", "t_s,label\n0.2,LOS\n0.1,NLOS\n", id="labels-unsorted"),
        pytest.param("labels", b"\xff\xfe" + "t_s,label\n0.1,LOS\n".encode("utf-16-le"),
                     id="labels-not-utf8"),
        pytest.param("gain", "", id="metric-empty"),
        pytest.param("gain", "t_s,value\n", id="metric-header-only"),
        pytest.param("gain", "t_s,value\n0.1,abc\n", id="metric-non-numeric"),
        pytest.param("gain", "t_s,value\n0.1,-80.0,-81.0\n0.2\n", id="metric-ragged"),
        pytest.param("gain", "t_s,value\ninf,-80.0\n", id="metric-inf-time"),
        pytest.param("gain", "t_s,value\n0.2,-80.0\n0.1,-81.0\n", id="metric-unsorted"),
    ])
    def test_malformed_input_exit_3(self, run_dir, capsys, target, text):
        tmp, cfg, out = self._metrics(run_dir, "mE")
        other = tmp / "mE_bad"
        other.mkdir()
        for p in out.iterdir():
            (other / p.name).write_bytes(p.read_bytes())
        bad = tmp / "labels.csv" if target == "labels" else other / f"{target}.csv"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = ["compare", str(out), str(other), "-o", str(tmp / "rep5")]
        if target == "labels":
            argv += ["--labels", str(bad)]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"data error: {bad}")

    def test_missing_metric_named_error(self, run_dir, capsys):
        tmp, cfg, out = self._metrics(run_dir, "mD")
        empty = tmp / "empty"
        empty.mkdir()
        assert main(["compare", str(out), str(empty), "-o", str(tmp / "rep4")]) == EXIT_CONFIG
        assert "gain.csv" in capsys.readouterr().err


class TestBundledIntersection:
    def test_los_rows_flip_once_at_corner_clear(self, tmp_path):
        # visibility oracle on the bundled scene: no LOS rows before the
        # corner clears (~4.05 s), exactly one per dump after
        cfg = {
            "scene": str(data_path("intersection_plain.json")),
            "tx_trajectory": str(data_path("tx_trajectory.csv")),
            "rx_trajectory": str(data_path("rx_trajectory.csv")),
            "output_dir": str(tmp_path / "out"),
            "coarse_trace_dt": 0.2,
            "fine_dt": 0.02,
            "max_order": 1,
            "enable_diffuse": False,
        }
        p = tmp_path / "run.json"
        p.write_text(json.dumps(cfg))
        assert main(["trace", "-c", str(p)]) == EXIT_OK
        dumps = sorted((tmp_path / "out" / "trace").glob("paths_*.csv"))
        assert len(dumps) == 31
        los_counts = []
        for d in dumps:
            rows = d.read_text().strip().splitlines()[1:]
            los_counts.append(sum(1 for r in rows if ",los," in r))
        assert all(c in (0, 1) for c in los_counts)
        flips = sum(1 for a, b in zip(los_counts, los_counts[1:]) if a != b)
        assert flips == 1
        assert los_counts[0] == 0 and los_counts[-1] == 1


class TestSceneValidate:
    def test_ok(self, capsys):
        assert main(["scene-validate", str(data_path("intersection_plain.json"))]) == EXIT_OK
        assert "21 surfaces" in capsys.readouterr().out

    def test_bad_file_exit_3(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        assert main(["scene-validate", str(p)]) == EXIT_DATA

    def test_non_utf8_file_exit_3(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe" + '{"ground": {}}'.encode("utf-16-le"))
        assert main(["scene-validate", str(p)]) == EXIT_DATA
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("polygon", "abc"), ("height", "abc"),
                                              ("height", [1, 2]), ("height", -5.0),
                                              ("tag", 7)])
    def test_malformed_footprint_exit_3(self, tmp_path, capsys, field, value):
        fp = {"polygon": [[0, 0], [10, 0], [10, 10], [0, 10]], "height": 5.0,
              "material": "concrete"}
        fp[field] = value
        p = tmp_path / "scene.json"
        p.write_text(json.dumps({"footprints": [fp],
                                 "ground": {"extent": [-50, -50, 50, 50]}}))
        assert main(["scene-validate", str(p)]) == EXIT_DATA
        assert field in capsys.readouterr().err

    def test_overflowing_footprint_warns_nothing(self, tmp_path, capsys):
        """Corners at 1e308 overflow the footprint checks' products: the file
        is still one data error, and numpy warns of nothing on the way."""
        fp = {"polygon": [[0, 0], [1e308, 0], [1e308, 1e308], [0, 1e308]], "height": 10.0,
              "material": "concrete"}
        p = tmp_path / "scene.json"
        p.write_text(json.dumps({"footprints": [fp],
                                 "ground": {"extent": [-50, -50, 50, 50]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scene-validate", str(p)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("data error:") == 1 and "overflowing polygon area" in err


class TestConfigHandling:
    def test_missing_config_file(self):
        assert main(["trace", "-c", "/nonexistent/run.json"]) == EXIT_CONFIG

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"scene": "x", "warp_speed": 9}))
        assert main(["trace", "-c", str(p)]) == EXIT_CONFIG

    def test_snapshot_dt_is_an_unknown_key(self, tmp_path, capsys):
        # the sounder's snapshot interval was a SimConfig field that nothing read
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"scene": "x", "snapshot_dt": 307.2e-6}))
        assert main(["trace", "-c", str(p)]) == EXIT_CONFIG
        assert "unknown keys: snapshot_dt" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["analyze", "t.v2vc"], ["compare", "a", "b"]])
    def test_workers_flag_only_on_tracing_commands(self, capsys, argv):
        # analysis runs in process: a worker count there would be ignored
        assert main([*argv, "--workers", "2"]) == EXIT_CONFIG
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_flag_overrides_config(self, run_dir):
        tmp, cfg = run_dir
        alt = tmp / "alt_out"
        assert main(["trace", "-c", str(cfg), "-o", str(alt)]) == EXIT_OK
        assert (alt / "trace").exists()

    def test_bad_value_exit_2(self, run_dir):
        tmp, cfg = run_dir
        doc = json.loads(cfg.read_text())
        doc["max_order"] = 9
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["trace", "-c", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["trace", "synthesize"])
    def test_positive_cull_exit_2(self, run_dir, capsys, command):
        # a floor above the strongest path used to drop every diffuse path
        # and leave a plausible-looking channel
        tmp, cfg = run_dir
        doc = json.loads(cfg.read_text())
        doc["cull_db"] = 10.0
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main([command, "-c", str(bad)]) == EXIT_CONFIG
        assert "'cull_db'" in capsys.readouterr().err
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("enable_diffuse", "false"), ("n_avg", 2.5), ("n_avg", True),
        ("carrier_frequency", math.nan), ("bandwidth", math.inf), ("noise_power", math.nan),
        ("cull_db", math.nan), ("tile_size", math.nan), ("max_order", "2"),
        ("carrier_frequency", "5.9e9"),
        pytest.param("fine_dt", 10 ** 400, id="fine_dt-10**400")])
    def test_value_of_wrong_type_exit_2(self, run_dir, capsys, key, value):
        tmp, cfg = run_dir
        doc = json.loads(cfg.read_text())
        doc[key] = value
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(doc))     # writes NaN and Infinity bare, as json.load reads them
        assert main(["trace", "-c", str(bad)]) == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["5.9e9", True, math.nan,
                                       pytest.param(10 ** 400, id="10**400")])
    def test_scene_value_of_wrong_type_exit_3(self, tmp_path, capsys, value):
        """A scene value is checked by the rule a run-config value is."""
        scene = {"footprints": [{"polygon": [[0, 0], [10, 0], [10, 10]], "height": value,
                                 "material": "concrete"}],
                 "ground": {"extent": [-50, -50, 50, 50]}}
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(scene))
        assert main(["scene-validate", str(p)]) == EXIT_DATA
        assert "'height'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        pytest.param("stride", -1, id="stride"), pytest.param("workers", -1, id="workers"),
        pytest.param("workers", 0, id="workers-zero"),
        pytest.param("noise_seed", -1, id="noise_seed")])
    def test_negative_count_exit_2(self, run_dir, key, value):
        tmp, cfg = run_dir
        doc = json.loads(cfg.read_text())
        doc[key] = value
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["trace", "-c", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["trace", "synthesize"])
    def test_trajectories_without_common_time_exit_2(self, run_dir, capsys, command):
        tmp, cfg = run_dir
        text = (tmp / "rx.csv").read_text().splitlines()
        rows = [line.split(",") for line in text[1:]]
        late = [",".join([str(float(r[0]) + 5.0)] + r[1:]) for r in rows]
        (tmp / "rx.csv").write_text("\n".join([text[0], *late]) + "\n")
        assert main([command, "-c", str(cfg)]) == EXIT_CONFIG
        assert "do not overlap in time" in capsys.readouterr().err

    def test_missing_scene_exit_2(self, run_dir):
        tmp, cfg = run_dir
        doc = json.loads(cfg.read_text())
        doc["scene"] = str(tmp / "no_such.json")
        bad = tmp / "bad2.json"
        bad.write_text(json.dumps(doc))
        assert main(["trace", "-c", str(bad)]) == EXIT_CONFIG

    def test_non_utf8_config_exit_2(self, run_dir, capsys):
        tmp, cfg = run_dir
        cfg.write_bytes(b"\xff\xfe" + cfg.read_text().encode("utf-16-le"))
        assert main(["trace", "-c", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: not UTF-8")

    @pytest.mark.parametrize("argv", [["trace", "-c", "{dir}"], ["analyze", "{dir}"],
                                      ["scene-validate", "{dir}"]])
    def test_directory_argument_exit_2(self, tmp_path, capsys, argv):
        assert main([a.format(dir=tmp_path) for a in argv]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_scene_is_a_directory_exit_2(self, run_dir, capsys):
        tmp, cfg = run_dir
        doc = json.loads(cfg.read_text())
        doc["scene"] = str(tmp)
        bad = tmp / "bad3.json"
        bad.write_text(json.dumps(doc))
        assert main(["trace", "-c", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_workers_flag_same_result(self, run_dir):
        tmp, cfg = run_dir
        main(["trace", "-c", str(cfg), "-o", str(tmp / "w1"), "--workers", "1"])
        main(["trace", "-c", str(cfg), "-o", str(tmp / "w2"), "--workers", "2"])
        a = {p.name: p.read_bytes() for p in (tmp / "w1" / "trace").glob("*.csv")}
        b = {p.name: p.read_bytes() for p in (tmp / "w2" / "trace").glob("*.csv")}
        assert a == b

    def test_workers_flag_same_synthesis(self, run_dir):
        # 100 fine steps: at two workers the synthesis runs as five chunks on the pool
        tmp, cfg = run_dir
        out = {}
        for workers in ("1", "2"):
            assert main(["synthesize", "-c", str(cfg), "-o", str(tmp / workers),
                         "--workers", workers]) == EXIT_OK
            out[workers] = {p.name: p.read_bytes() for p in (tmp / workers).iterdir()}
        assert sorted(out["1"]) == ["channel.v2vc", "los_labels.csv"]
        assert out["1"] == out["2"]


@pytest.mark.parametrize("argv, code", [(["scene-validate"], EXIT_DATA),
                                        (["trace", "-c"], EXIT_CONFIG)], ids=["scene", "config"])
def test_deeply_nested_json_exit_code(tmp_path, capsys, argv, code):
    """A file nested past the JSON parser's recursion limit is a malformed
    file like any other, not a RecursionError traceback."""
    p = tmp_path / "deep.json"
    p.write_text('{"ground": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main([*argv, str(p)]) == code
    assert "recursion" in capsys.readouterr().err


#: The config keys that belong to a run, not to SimConfig or TracerConfig.
RUN_ONLY_KEYS = {"scene", "tx_trajectory", "rx_trajectory", "output_dir", "array_type",
                 "n_avg", "stride", "noise_threshold", "noise_power", "noise_seed", "workers"}


def test_readme_config_loads_and_keys_are_documented(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "run.json").write_text(block)
    cfg = load_run_config(str(tmp_path / "run.json"), {})
    assert (cfg.sim.n_freq_bins, cfg.tracer.max_order, cfg.n_avg) == (193, 2, 91)
    sim_keys = {f.name for f in fields(SimConfig)}
    tracer_keys = {f.name for f in fields(TracerConfig)} - {"frequency"}
    assert CONFIG_KEYS == sim_keys | tracer_keys | RUN_ONLY_KEYS
    # RunConfig re-declares no SimConfig or TracerConfig field
    assert {f.name for f in fields(RunConfig)} == RUN_ONLY_KEYS | {"sim", "tracer"}
    assert [k for k in sorted(RUN_ONLY_KEYS) if f"`{k}`" not in readme] == []


def test_every_config_field_is_read():
    """Every field of ``SimConfig``, ``TracerConfig`` and ``RunConfig`` is
    read as an attribute somewhere in the package outside its own class: a
    field that only its own checks read is a setting that changes nothing."""
    reads = set()   # (enclosing class name or None, attribute name)
    for path in sorted((Path(__file__).parents[1] / "src" / "v2vchan").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {id(n): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for n in ast.walk(c)}
        reads |= {(owner.get(id(n)), n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{cls.__name__}.{f.name}" for cls in (SimConfig, TracerConfig, RunConfig)
              for f in fields(cls)
              if not any(attr == f.name and c != cls.__name__ for c, attr in reads)]
    assert unread == []


def test_no_module_reads_the_environment():
    """Runs are set by the config file and the flags alone: no module of the
    package reads ``os.environ`` or calls ``os.getenv``.  The one exception
    is ``channel._run_jobs``, which sets the BLAS thread count of the pool
    workers it starts and then puts the caller's values back."""
    env = {"environ", "environb", "getenv", "getenvb"}
    readers = []
    for path in sorted((Path(__file__).parents[1] / "src" / "v2vchan").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                  and (path.name, f.name) == ("channel.py", "_run_jobs") for n in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = {node.attr} if node.value.id == "os" else set()
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {a.name for a in node.names}
            else:
                continue
            if names & env:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_parser_is_built_once_per_process(monkeypatch, capsys, tmp_path):
    """Repeated ``main`` calls in one process share one parser: it is built
    on the first call, and bad flags, ``--help`` and the flags of one call
    leave nothing behind for the next."""
    import argparse

    import v2vchan.cli as cli

    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli.build_parser.cache_clear()
    scene = str(data_path("intersection_plain.json"))
    assert main(["scene-validate", scene]) == EXIT_OK
    assert main(["scene-validate", scene]) == EXIT_OK
    assert builds == ["v2vchan"]
    assert main(["trace", "--workers", "many"]) == EXIT_CONFIG
    assert main(["warp"]) == EXIT_CONFIG
    assert main([]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["--help"]) == EXIT_OK
    assert "scene-validate" in capsys.readouterr().out
    assert main(["analyze", "--help"]) == EXIT_OK
    assert "--n-avg" in capsys.readouterr().out
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda path, cfg: seen.append(cfg) or EXIT_OK)
    assert main(["analyze", "t.v2vc", "--n-avg", "7", "--stride", "3", "-o",
                 str(tmp_path)]) == EXIT_OK
    assert main(["analyze", "t.v2vc"]) == EXIT_OK
    assert [(c.n_avg, c.stride, c.output_dir) for c in seen] == [
        (7, 3, str(tmp_path)), (RunConfig().n_avg, 0, "out")]
    assert main(["scene-validate", scene]) == EXIT_OK
    assert builds == ["v2vchan"]
