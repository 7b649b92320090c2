"""Every CSV table writer, byte for byte: one header row, CRLF line ends,
floats as their ``repr``, NaN as an empty cell."""

import ast
from pathlib import Path

import numpy as np
import pytest

from v2vchan.channel import ChannelTensor
from v2vchan.compare import LOS, NLOS, ErrorStats, SegmentLabels, save_labels, save_report
from v2vchan.metrics import (Apdp, Dsd, MetricSeries, antenna_correlation, profile_to_csv,
                             series_to_csv)
from v2vchan.scene import Trajectory, save_trajectory


def written(write, obj, tmp_path) -> bytes:
    path = tmp_path / "table.csv"
    write(obj, path)
    return path.read_bytes()


@pytest.mark.parametrize("labels, name", [((), "value"), (("lambda_1",), "lambda_1")],
                         ids=["no_label", "label"])
def test_series_1d(tmp_path, labels, name):
    s = MetricSeries("delay_spread", np.array([0.0, 0.1 + 0.2, 0.5]),
                     np.array([1e-9, np.nan, 2.5e-8]), "s", labels)
    assert written(series_to_csv, s, tmp_path) == (
        f"t_s,{name}\r\n0.0,1e-09\r\n0.30000000000000004,\r\n0.5,2.5e-08\r\n".encode())


@pytest.mark.parametrize("unit, low", [("dB", b"-400.0"), ("", b"-inf")])
def test_series_floor_sentinel_in_db_only(tmp_path, unit, low):
    s = MetricSeries("gain", np.array([0.0, 1.0]), np.array([-np.inf, -3.25]), unit)
    assert written(series_to_csv, s, tmp_path) == (
        b"t_s,value\r\n0.0," + low + b"\r\n1.0,-3.25\r\n")


def test_series_2d(tmp_path):
    s = MetricSeries("eigenvalues", np.array([0.0, 0.25]),
                     np.array([[1.5, np.nan], [-np.inf, -7.0]]), "dB", ("lambda_1", "lambda_2"))
    assert written(series_to_csv, s, tmp_path) == (
        b"t_s,lambda_1,lambda_2\r\n0.0,1.5,\r\n0.25,-400.0,-7.0\r\n")


def test_series_without_columns(tmp_path):
    s = MetricSeries("correlation_tx", np.array([0.0, 0.5]), np.zeros((2, 0)))
    assert written(series_to_csv, s, tmp_path) == b"t_s\r\n0.0\r\n0.5\r\n"


@pytest.mark.parametrize("values, labels, header", [
    (np.zeros(0), (), b"t_s,value"),
    (np.zeros((0, 2)), ("tx_rho_12", "tx_rho_13"), b"t_s,tx_rho_12,tx_rho_13")],
    ids=["1d", "2d"])
def test_series_without_windows(tmp_path, values, labels, header):
    s = MetricSeries("gain", np.zeros(0), values, "dB", labels)
    assert written(series_to_csv, s, tmp_path) == header + b"\r\n"


# a complex series used to be written as its real parts, with only a ComplexWarning
@pytest.mark.parametrize("source", ["direct", "antenna_correlation"])
def test_complex_series_rejected(tmp_path, source):
    if source == "direct":
        series = MetricSeries("rho", np.array([0.0, 1.0]), np.array([1 + 2j, 3 + 0j]))
    else:
        tensor = ChannelTensor("frequency", np.ones((4, 2, 1, 8), dtype=complex), 0.0, 1e-3,
                               -120e6, 30e6, 5.9e9)
        series = antenna_correlation(tensor, "rx", 0, 1, n_avg=2, complex_values=True)
        assert np.iscomplexobj(series.values)
    with pytest.raises(ValueError, match=f"series {series.kind!r} is complex"):
        series_to_csv(series, tmp_path / "table.csv")
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("profile_type", [Apdp, Dsd])
def test_profile(tmp_path, profile_type):
    profile = profile_type(values=np.array([[1.0, 0.5, 0.0], [0.25, 1e-12, 2.0]]),
                           times=np.array([0.125, 0.375]), bins=np.array([-50.0, 0.0, 50.0]),
                           n_avg=2, stride=2)
    assert written(profile_to_csv, profile, tmp_path) == (
        b"t_s\\bin,-50.0,0.0,50.0\r\n0.125,1.0,0.5,0.0\r\n0.375,0.25,1e-12,2.0\r\n")


def test_trajectory(tmp_path):
    traj = Trajectory(np.array([0.0, 0.5]), np.array([[1.0, -2.5, 1.73], [6.0, -2.5, 1.73]]),
                      np.array([[10.0, 0.0, 0.0], [10.0, 0.1 + 0.2, 0.0]]), antenna_height=1.73)
    assert written(save_trajectory, traj, tmp_path) == (
        b"t,x,y,z,vx,vy,vz\r\n0.0,1.0,-2.5,1.73,10.0,0.0,0.0\r\n"
        b"0.5,6.0,-2.5,1.73,10.0,0.30000000000000004,0.0\r\n")


def test_labels(tmp_path):
    labels = SegmentLabels(times=np.array([0.0, 0.25, 0.5]),
                           is_los=np.array([True, False, True]))
    assert written(save_labels, labels, tmp_path) == (
        b"t_s,label\r\n0.0,LOS\r\n0.25,NLOS\r\n0.5,LOS\r\n")


def test_report(tmp_path):
    stats = {"gain": ErrorStats("gain", "dB", {LOS: (0.5, 0.1 + 0.2, 3), NLOS: (-1.25, 2.0, 7)}),
             "delay_spread": ErrorStats("delay_spread", "s", {NLOS: (1e-09, 2.5e-08, 4)})}
    save_report(stats, tmp_path / "report.txt", tmp_path / "report.csv")
    assert (tmp_path / "report.csv").read_bytes() == (
        b"metric,segment,mu,sigma,n\r\ngain,LOS,0.5,0.30000000000000004,3\r\n"
        b"gain,NLOS,-1.25,2.0,7\r\ndelay_spread,NLOS,1e-09,2.5e-08,4\r\n")


def test_one_csv_writer():
    """Tables are written only by ``scene._write_table``: no other module of
    the package constructs a ``csv.writer``."""
    sites = []
    for path in sorted((Path(__file__).parents[1] / "src" / "v2vchan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "writer":
                sites.append(path.name)
    assert sites == ["scene.py"]
