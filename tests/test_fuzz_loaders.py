"""Fuzzing of the file loaders (hypothesis).

Scene, trajectory and tensor files are derived from valid ones by
truncation, by replacing a value with one of another JSON type, a NaN, an
infinity or an oversized number, and (for tensors) by arbitrary header
fields and payload lengths; metric and label CSV files the same way as
trajectories.  Each loader must either return or raise one of
its documented exception types, and the CLI must turn every rejected file
into exit code 3 (data error), never a traceback.
"""

import contextlib
import copy
import csv
import io
import json
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TENSOR_HEADER
from v2vchan.channel import (_HEADER_FMT, ChannelTensor, TensorFormatError,
                             load_tensor)
from v2vchan.cli import EXIT_DATA, EXIT_OK, main
from v2vchan.compare import load_labels
from v2vchan.metrics import SeriesFormatError, series_from_csv
from v2vchan.pipeline import SERIES_UNITS
from v2vchan.scene import (GeometryError, MaterialReferenceError, Scene,
                           SceneFormatError, Trajectory, load_scene,
                           load_trajectory)

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

SCENE = {
    "materials": [{"name": "brick", "relative_permittivity": 4.0, "conductivity": 0.02,
                   "is_pec": False, "scattering_coefficient": 0.3}],
    "footprints": [{"tag": "block", "polygon": [[0, 0], [10, 0], [10, 10], [0, 10]],
                    "height": 5.0, "material": "brick"}],
    "obstacles": [{"tag": "panel", "material": "glass",
                   "surfaces": [[[20, 0, 0], [20, 5, 0], [20, 5, 3], [20, 0, 3]]]}],
    "ground": {"extent": [-50, -50, 50, 50], "material": "asphalt"},
}
TRAJECTORY = [["t", "x", "y", "z", "vx", "vy", "vz"]] + [
    [f"{0.01 * k:.2f}", f"{10.0 * 0.01 * k:.2f}", "0.0", "1.5", "10.0", "0.0", "0.0"]
    for k in range(5)]
METRIC = [["t_s", "rho_12", "rho_13"]] + [
    [f"{0.05 * k:.2f}", f"{0.1 * k:.1f}", ""] for k in range(4)]
LABELS = [["t_s", "label"]] + [[f"{0.05 * k:.2f}", "NLOS" if k < 2 else "LOS"]
                               for k in range(4)]

json_scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10 ** 400, 0, -1, 0.5]))
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


def _paths(node, prefix=()):
    """The key path of every value in a JSON document, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated_scenes(draw):
    """The JSON text of SCENE with one to three values replaced or deleted,
    possibly truncated."""
    doc = copy.deepcopy(SCENE)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for k in parent_path:
            parent = parent[k]
        if draw(st.booleans()) and isinstance(parent, dict):
            del parent[key]
        else:
            parent[key] = draw(json_values)
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


CSV_TOKENS = ["nan", "inf", "-inf", "1e400", "9" * 400, "", "abc", "0x10", "True",
              "-0.01", "0.02", None]


@st.composite
def mutated_csv(draw, table, tokens=CSV_TOKENS):
    """The CSV text of ``table`` with cells replaced by ``tokens`` or removed
    (None), possibly truncated."""
    rows = [list(r) for r in table]
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, len(rows[r]) - 1))
        token = draw(st.sampled_from(tokens))
        if token is None:
            del rows[r][c]
        else:
            rows[r][c] = token
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    text = buf.getvalue()
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text


dims = st.sampled_from([0, 1, 2, 3, 2 ** 32 - 1])
header_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.sampled_from([0.0, -1e-4, 1e-4, 5e-9]))


@st.composite
def mutated_tensors(draw):
    """Bytes of a tensor file with arbitrary header fields and payload length."""
    header = dict(TENSOR_HEADER)
    for key in draw(st.sets(st.sampled_from(list(header)[2:]))):
        if key == "domain":
            header[key] = draw(st.integers(0, 255))
        elif key in ("m_rx", "m_tx", "n_time", "n_bins"):
            header[key] = draw(dims)
        else:
            header[key] = draw(header_floats)
    n = header["n_time"] * header["m_rx"] * header["m_tx"] * header["n_bins"]
    n_bytes = max(0, min(8 * n, 4096) + draw(st.integers(-9, 9)))
    value = draw(st.sampled_from([1.0, math.nan, math.inf]))
    payload = np.full(n_bytes // 8 + 1, value, np.complex64).tobytes()[:n_bytes]
    raw = struct.pack(_HEADER_FMT, *header.values()) + payload
    if draw(st.booleans()):
        raw = raw[:draw(st.integers(0, len(raw)))]
    return raw


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@FUZZ
@given(text=mutated_scenes())
def test_load_scene_raises_only_documented_errors(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("scene") / "scene.json"
    path.write_text(text)
    try:
        scene = load_scene(path)
    except (SceneFormatError, MaterialReferenceError, GeometryError):
        assert _cli("scene-validate", str(path)) == EXIT_DATA
    else:
        assert isinstance(scene, Scene)
        for surf in scene.surfaces:
            m = surf.material
            assert np.isfinite([*surf.normal, surf.plane_offset, surf.area,
                                m.relative_permittivity, m.conductivity,
                                m.scattering_coefficient]).all()
        assert _cli("scene-validate", str(path)) == EXIT_OK


@FUZZ
@given(text=mutated_csv(TRAJECTORY))
def test_load_trajectory_raises_only_documented_errors(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("trajectory")
    (work / "tx.csv").write_text(text)
    try:
        traj = load_trajectory(work / "tx.csv")
    except SceneFormatError:
        (work / "rx.csv").write_text("\n".join(",".join(r) for r in TRAJECTORY) + "\n")
        (work / "scene.json").write_text(json.dumps({"ground": SCENE["ground"]}))
        (work / "run.json").write_text(json.dumps({
            "scene": str(work / "scene.json"), "tx_trajectory": str(work / "tx.csv"),
            "rx_trajectory": str(work / "rx.csv"), "output_dir": str(work / "out"),
            "max_order": 1, "enable_diffuse": False}))
        assert _cli("trace", "-c", str(work / "run.json")) == EXIT_DATA
    else:
        assert isinstance(traj, Trajectory)
        assert np.isfinite(traj.position).all()


@FUZZ
@given(raw=mutated_tensors())
def test_load_tensor_raises_only_documented_errors(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("tensor") / "t.v2vc"
    path.write_bytes(raw)
    try:
        tensor = load_tensor(path)
    except TensorFormatError:
        assert _cli("analyze", str(path), "-o", str(path.parent / "out")) == EXIT_DATA
    else:
        assert isinstance(tensor, ChannelTensor)
        assert min(tensor.data.shape) >= 1 and tensor.dt > 0 and tensor.dbin > 0
        assert np.isfinite([tensor.t0, tensor.dt, tensor.bin0, tensor.dbin,
                            tensor.carrier_frequency]).all()


def _metric_dir(path):
    """A directory holding every metric file ``compare`` reads, all valid."""
    path.mkdir()
    text = "t_s,value\n" + "".join(f"{0.05 * k:.2f},{-80.0 + k}\n" for k in range(4))
    for name in SERIES_UNITS:
        (path / f"{name}.csv").write_text(text)
    return path


def _valid_times(times):
    return np.isfinite(times).all() and (np.diff(times) > 0).all()


@FUZZ
@given(text=mutated_csv(METRIC))
def test_series_from_csv_raises_only_documented_errors(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("series")
    good, bad = _metric_dir(work / "a"), _metric_dir(work / "b")
    (bad / "correlation_tx.csv").write_text(text)
    try:
        series = series_from_csv(bad / "correlation_tx.csv")
    except SeriesFormatError:
        assert _cli("compare", str(good), str(bad), "-o", str(work / "rep")) == EXIT_DATA
    else:
        assert len(series.times) >= 1 and _valid_times(series.times)
        assert len(series.values) == len(series.times)


@FUZZ
@given(text=mutated_csv(LABELS, CSV_TOKENS + ["LOS", "nlos", "0.1"]))
def test_load_labels_raises_only_documented_errors(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("labels")
    metrics = _metric_dir(work / "m")
    (work / "labels.csv").write_text(text)
    try:
        labels = load_labels(work / "labels.csv")
    except SeriesFormatError:
        assert _cli("compare", str(metrics), str(metrics), "--labels", str(work / "labels.csv"),
                    "-o", str(work / "rep")) == EXIT_DATA
    else:
        assert len(labels.times) >= 1 and _valid_times(labels.times)
        assert labels.is_los.shape == labels.times.shape
