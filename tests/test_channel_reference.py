"""Array-level interpolation and synthesis against the object-level reference.

The reference is the per-path loop that ``synthesize_tensor`` used before it
worked on per-interval arrays: every fine step builds one interpolated
``PropagationPath`` per matched pair (``_lerp_path``), appends the paths held
until the next boundary, and synthesizes the list with ``synthesize_cir``.
"""

import numpy as np
import pytest

from v2vchan.antenna import default_sharkfin_array
from v2vchan.channel import (PathInterpolator, SimConfig, _match_paths, synthesize_cir,
                             synthesize_tensor)
from v2vchan.pipeline import trace_trajectory
from v2vchan.raytracer import SPEED_OF_LIGHT, PropagationPath, TracerConfig
from v2vchan.scenarios import intersection_scene, intersection_trajectories

SIM = SimConfig(n_freq_bins=193, fine_dt=625e-6)
TOL = 1e-12  # of max |h|


def _lerp_path(pa: PropagationPath, pb: PropagationPath, u: float) -> PropagationPath:
    length = (1 - u) * pa.length + u * pb.length
    inter = tuple(
        (sa, (1 - u) * qa + u * qb)
        for (sa, qa), (_, qb) in zip(pa.interactions, pb.interactions)
    )
    dep = (1 - u) * pa.departure + u * pb.departure
    arr = (1 - u) * pa.arrival + u * pb.arrival
    ndep, narr = np.linalg.norm(dep), np.linalg.norm(arr)
    dep = dep / ndep if ndep > 0 else pa.departure
    arr = arr / narr if narr > 0 else pa.arrival
    return PropagationPath(
        kind=pa.kind, order=pa.order, interactions=inter,
        length=length, delay=length / SPEED_OF_LIGHT,
        amplitude=(1 - u) * pa.amplitude + u * pb.amplitude,
        departure=dep, arrival=arr, tile=pa.tile,
    )


def reference_paths_at(interp: PathInterpolator, t: float) -> list[PropagationPath]:
    if len(interp.times) == 1:
        return list(interp.snapshots[0])
    if t < interp.times[0] - 1e-12 or t > interp.times[-1] + 1e-12:
        raise ValueError(f"time {t} outside the traced span")
    i = min(int(np.searchsorted(interp.times, t, side="right")) - 1, len(interp.times) - 2)
    i = max(i, 0)
    u = (t - interp.times[i]) / interp.dt
    u = min(max(u, 0.0), 1.0)
    if u == 1.0:
        return list(interp.snapshots[i + 1])
    pairs, only_a = _match_paths(interp.snapshots[i], interp.snapshots[i + 1])
    return [_lerp_path(pa, pb, u) for pa, pb in pairs] + only_a


def reference_tensor(snaps, arrays, times, tx_heading, rx_heading) -> np.ndarray:
    interp = PathInterpolator(snaps)

    def heading_at(h, t):
        return h(t) if callable(h) else float(h)

    return np.stack([
        synthesize_cir(reference_paths_at(interp, t), arrays, arrays, t, SIM,
                       tx_heading=heading_at(tx_heading, t),
                       rx_heading=heading_at(rx_heading, t))
        for t in times])


@pytest.fixture(scope="module")
def flip_slice():
    """Five traced snapshots across the intersection's NLOS -> LOS flip."""
    tx, rx = intersection_trajectories()
    tracer = TracerConfig(max_order=2, tile_size=1.0, enable_diffuse=True, cull_db=-40.0)
    snaps = trace_trajectory(intersection_scene(plain=True), tx, rx, tracer,
                             SIM.coarse_trace_dt, t0=4.04, t1=4.08, workers=1)
    return snaps, tx, rx, default_sharkfin_array()


def test_slice_has_births_and_deaths(flip_slice):
    snaps = flip_slice[0]
    births = deaths = 0
    for (_, a), (_, b) in zip(snaps, snaps[1:]):
        pairs, only_a = _match_paths(a, b)
        deaths += len(only_a)
        births += len(b) - len(pairs)
    los = [any(p.kind == "los" for p in paths) for _, paths in snaps]
    assert births > 0 and deaths > 0
    assert not los[0] and los[-1]


def _assert_close(got: np.ndarray, want: np.ndarray):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOL * np.abs(want).max()


def test_default_grid_callable_headings(flip_slice):
    snaps, tx, rx, arrays = flip_slice
    tensor = synthesize_tensor(PathInterpolator(snaps), arrays, arrays, SIM,
                               tx_heading=tx.heading, rx_heading=rx.heading)
    # the default grid, built as synthesize_tensor builds it
    times = snaps[0][0] + np.arange(tensor.n_time) * SIM.fine_dt
    want = reference_tensor(snaps, arrays, times, tx.heading, rx.heading)
    _assert_close(tensor.data, want)


def test_nonuniform_times_constant_headings_final_step(flip_slice):
    snaps, _, _, arrays = flip_slice
    t0, t1 = snaps[0][0], snaps[-1][0]
    rng = np.random.default_rng(5)
    # random, a coarse boundary, and both ends of the span
    times = np.sort(np.concatenate((rng.uniform(t0, t1, 23), [t0, snaps[2][0], t1])))
    tensor = synthesize_tensor(PathInterpolator(snaps), arrays, arrays, SIM,
                               times=times, tx_heading=0.3, rx_heading=-1.2)
    want = reference_tensor(snaps, arrays, times, 0.3, -1.2)
    _assert_close(tensor.data, want)
    # the final step lands on the last snapshot itself (u == 1)
    last = synthesize_cir(snaps[-1][1], arrays, arrays, t1, SIM, 0.3, -1.2)
    assert np.array_equal(tensor.data[-1], last)


def test_paths_at_view_matches_reference(flip_slice):
    snaps = flip_slice[0]
    interp = PathInterpolator(snaps)
    for t in (snaps[0][0], snaps[1][0] + 0.37 * SIM.coarse_trace_dt, snaps[-1][0]):
        got, want = interp.paths_at(t), reference_paths_at(interp, t)
        assert [p.match_key() for p in got] == [p.match_key() for p in want]
        for g, w in zip(got, want):
            assert g.length == pytest.approx(w.length, rel=1e-15)
            assert g.delay == pytest.approx(w.delay, rel=1e-15)
            assert np.allclose(g.amplitude, w.amplitude, rtol=1e-14, atol=0)
            assert np.allclose(g.departure, w.departure, rtol=0, atol=1e-15)
            assert np.allclose(g.arrival, w.arrival, rtol=0, atol=1e-15)
