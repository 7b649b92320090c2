"""Array-level interpolation and synthesis against the object-level reference.

The reference is the per-path loop that ``synthesize_tensor`` used before it
worked on path-set columns: every interval is matched by grouping
``PropagationPath`` rows on their identity in a ``defaultdict``
(``reference_match``), every fine step builds one interpolated row per
matched pair (``_lerp_path``), appends the rows held until the next
boundary, and synthesizes them with ``synthesize_cir``.
"""

from collections import defaultdict

import numpy as np
import pytest

from v2vchan.antenna import default_sharkfin_array
from v2vchan.channel import (PathInterpolator, SimConfig, _match_paths, synthesize_cir,
                             synthesize_tensor)
from v2vchan.pipeline import trace_trajectory
from v2vchan.raytracer import (KINDS, MAX_SPECULAR_ORDER, SPEED_OF_LIGHT, PathSet,
                               PropagationPath, TracerConfig, trace_los)
from v2vchan.scenarios import free_space_scene, intersection_scene, intersection_trajectories

SIM = SimConfig(n_freq_bins=193, fine_dt=625e-6)
TOL = 1e-12  # of max |h|


def _key(p: PropagationPath) -> tuple:
    """A row's identity across snapshots."""
    return (p.kind, tuple(sid for sid, _ in p.interactions), p.tile)


def _as_pathset(rows: list[PropagationPath]) -> PathSet:
    n = len(rows)
    surfaces = np.full((n, MAX_SPECULAR_ORDER), -1)
    points = np.full((n, MAX_SPECULAR_ORDER, 3), np.nan)
    for r, p in enumerate(rows):
        for j, (sid, q) in enumerate(p.interactions):
            surfaces[r, j], points[r, j] = sid, q
    return PathSet(
        kind=np.array([KINDS.index(p.kind) for p in rows], dtype=int),
        surfaces=surfaces, points=points,
        tile=np.array([-1 if p.tile is None else p.tile for p in rows], dtype=int),
        length=np.array([p.length for p in rows], dtype=float),
        amplitude=np.array([p.amplitude for p in rows], dtype=complex).reshape(-1, 2, 2),
        departure=np.array([p.departure for p in rows], dtype=float).reshape(-1, 3),
        arrival=np.array([p.arrival for p in rows], dtype=float).reshape(-1, 3))


def reference_match(a: PathSet, b: PathSet) -> tuple[list, list, list]:
    """Row indices (ia, ib, held) of the object-level join: rows grouped by
    identity, keys in sorted order, the k-th shortest-delay a-row of a key
    paired with its k-th shortest-delay b-row, leftover a-rows held."""
    groups = defaultdict(lambda: ([], []))
    for side, paths in enumerate((a, b)):
        for i, p in enumerate(paths):
            groups[_key(p)][side].append((p.delay, i))
    ia, ib, held = [], [], []
    for key in sorted(groups, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2])):
        la, lb = ([i for _, i in sorted(g, key=lambda x: x[0])] for g in groups[key])
        ia += la[:len(lb)]
        ib += lb[:len(la)]
        held += la[len(lb):]
    return ia, ib, held


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
    a, b = interp.snapshots[i], interp.snapshots[i + 1]
    ia, ib, held = reference_match(a, b)
    rows_a, rows_b = list(a), list(b)
    return [_lerp_path(rows_a[j], rows_b[k], u) for j, k in zip(ia, ib)] + [rows_a[j] for j in held]


def reference_tensor(snaps, arrays, times, tx_heading, rx_heading) -> np.ndarray:
    interp = PathInterpolator(snaps)

    def heading_at(h, t):
        return h(t) if callable(h) else float(h)

    return np.stack([
        synthesize_cir(_as_pathset(reference_paths_at(interp, t)), arrays, arrays, t, SIM,
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
        _, ib, held = _match_paths(a, b)
        deaths += len(held)
        births += len(b) - len(ib)
    los = [any(p.kind == "los" for p in paths) for _, paths in snaps]
    assert births > 0 and deaths > 0
    assert not los[0] and los[-1]


def _los(length: float) -> PathSet:
    return trace_los(free_space_scene(), (0.0, 0.0, 0.0), (length, 0.0, 0.0))


def _join_cases(snaps):
    """Adjacent snapshots of the flip slice, a snapshot against a shuffled
    subset of itself, and a hand-built key repeated with unequal counts."""
    pairs = [(a, b) for (_, a), (_, b) in zip(snaps, snaps[1:])]
    a = snaps[1][1]
    rows = np.random.default_rng(3).permutation(len(a))[:len(a) // 2]
    pairs.append((a, a.take(rows)))
    pairs.append((PathSet.concat([_los(100.0), _los(150.0)]), _los(149.0)))
    return pairs


def test_array_join_matches_object_join(flip_slice):
    for a, b in _join_cases(flip_slice[0]):
        got = tuple(x.tolist() for x in _match_paths(a, b))
        assert got == reference_match(a, b)
    a, b = _join_cases(flip_slice[0])[-1]
    assert reference_match(a, b) == ([0], [0], [1])


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


def test_given_times_constant_headings_final_step(flip_slice):
    snaps, _, _, arrays = flip_slice
    # eight steps per coarse interval: every coarse boundary and both ends of the span
    times = snaps[0][0] + np.arange(33) * (SIM.coarse_trace_dt / 8)
    assert [times[8 * k] for k in range(5)] == [t for t, _ in snaps]
    tensor = synthesize_tensor(PathInterpolator(snaps), arrays, arrays, SIM,
                               times=times, tx_heading=0.3, rx_heading=-1.2)
    want = reference_tensor(snaps, arrays, times, 0.3, -1.2)
    _assert_close(tensor.data, want)
    # the final step lands on the last snapshot itself (u == 1)
    last = synthesize_cir(snaps[-1][1], arrays, arrays, times[-1], SIM, 0.3, -1.2)
    assert np.array_equal(tensor.data[-1], last)


def test_paths_at_view_matches_reference(flip_slice):
    snaps = flip_slice[0]
    interp = PathInterpolator(snaps)
    for t in (snaps[0][0], snaps[1][0] + 0.37 * SIM.coarse_trace_dt, snaps[-1][0]):
        got, want = interp.paths_at(t), reference_paths_at(interp, t)
        assert [_key(p) for p in got] == [_key(p) for p in want]
        for g, w in zip(got, want):
            assert g.length == pytest.approx(w.length, rel=1e-15)
            assert g.delay == pytest.approx(w.delay, rel=1e-15)
            assert np.allclose(g.amplitude, w.amplitude, rtol=1e-14, atol=0)
            assert np.allclose(g.departure, w.departure, rtol=0, atol=1e-15)
            assert np.allclose(g.arrival, w.arrival, rtol=0, atol=1e-15)
