"""Array-level interpolation and synthesis against the object-level reference.

The reference is the per-path loop that ``synthesize_tensor`` used before it
worked on path-set columns: every interval is matched by grouping
``PropagationPath`` rows on their identity in a ``defaultdict``
(``reference_match``), every fine step builds one interpolated row per
matched pair (``_lerp_path``), appends the rows held until the next
boundary, and synthesizes them with ``synthesize_cir``.

The per-step kernel is pinned separately against ``reference_synthesize``,
the kernel with the three-operand ``np.einsum`` coupling over all four
(i, j) terms that the sum over the live terms replaced, and
``synthesize_tensor`` against itself at one and two workers.
``reference_columns_at`` pins ``PathInterpolator.paths_at`` to the step that
concatenated every column of the lerped start rows and the held rows.
"""

import math
import warnings
from collections import defaultdict
from dataclasses import fields, replace

import numpy as np
import pytest

from v2vchan.antenna import (AntennaPattern, ArrayElement, ArrayLayout,
                             default_sharkfin_array, isotropic_array)
from v2vchan.channel import (PathInterpolator, SimConfig, _match_paths, _synthesize,
                             synthesize_cir, synthesize_tensor)
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


def unique_join(a: PathSet, b: PathSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_match_paths`` as it numbered the identities with
    ``np.unique(keys, axis=0)``, which sorts the key rows as signed ints."""
    keys = np.concatenate([np.column_stack((p.kind, p.surfaces, p.tile)) for p in (a, b)])
    _, ident = np.unique(keys, axis=0, return_inverse=True)
    ranked = []
    for p, k in zip((a, b), np.split(ident.reshape(-1), [len(a)])):
        rows = np.lexsort((p.delay, k))
        k = k[rows]
        rank = np.arange(len(k)) - np.searchsorted(k, k)
        ranked.append((rows, k * (len(keys) + 1) + rank))
    (rows_a, code_a), (rows_b, code_b) = ranked
    _, ja, jb = np.intersect1d(code_a, code_b, assume_unique=True, return_indices=True)
    return rows_a[ja], rows_b[jb], np.delete(rows_a, ja)


def _identity_rows(rng, n: int, pool: np.ndarray) -> PathSet:
    """``n`` rows whose identities are drawn from ``pool`` (rows of kind,
    MAX_SPECULAR_ORDER surface ids and tile), so identities repeat within
    a set and across sets, with random delays."""
    ident = pool[rng.integers(0, len(pool), n)]
    dirs = rng.standard_normal((n, 3))
    return PathSet(kind=ident[:, 0], surfaces=ident[:, 1:-1],
                   points=np.full((n, MAX_SPECULAR_ORDER, 3), np.nan), tile=ident[:, -1],
                   length=rng.uniform(10.0, 500.0, n),
                   amplitude=np.ones((n, 2, 2), dtype=complex),
                   departure=dirs, arrival=-dirs)


def _identity_pool(rng, n: int) -> np.ndarray:
    """Identities of all three kinds: LOS, specular surface sequences padded
    with -1 and diffuse tiles with ids up to 2**40."""
    pool = np.full((n, MAX_SPECULAR_ORDER + 2), -1, dtype=int)
    pool[:, 0] = rng.integers(0, len(KINDS), n)
    order = rng.integers(1, MAX_SPECULAR_ORDER + 1, n)
    for r in np.flatnonzero(pool[:, 0] == KINDS.index("specular")):
        pool[r, 1:1 + order[r]] = rng.integers(0, 40, order[r])
    diffuse = pool[:, 0] == KINDS.index("diffuse")
    pool[diffuse, 1] = rng.integers(0, 40, diffuse.sum())
    pool[diffuse, -1] = rng.integers(0, 2 ** 40, diffuse.sum())
    return pool


@pytest.mark.parametrize("n_a, n_b, n_pool", [
    (0, 0, 5), (0, 30, 5), (30, 0, 5), (1, 1, 1), (60, 50, 4), (200, 230, 40),
    (300, 310, 2000)])
def test_sort_join_matches_unique_join(n_a, n_b, n_pool):
    """The lexsort numbering of the identities gives the rows, order and
    dtypes of the np.unique join: empty sides, identities repeated within a
    set, -1 surface padding, every kind and tile ids above 2**32."""
    rng = np.random.default_rng(n_a * 1000 + n_b + n_pool)
    pool = _identity_pool(rng, n_pool)
    for _ in range(5):
        a, b = _identity_rows(rng, n_a, pool), _identity_rows(rng, n_b, pool)
        for got, want in zip(_match_paths(a, b), unique_join(a, b)):
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()


def test_sort_join_matches_unique_join_on_traced_sets(flip_slice):
    for a, b in _join_cases(flip_slice[0]):
        for got, want in zip(_match_paths(a, b), unique_join(a, b)):
            assert got.tolist() == want.tolist()


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


def reference_synthesize(paths: PathSet, tx_array, rx_array, config: SimConfig,
                         tx_heading: float, rx_heading: float, magnitude: bool = False):
    """The per-step kernel with the ``np.einsum`` coupling: the (M_R, M_T,
    n_freq_bins) slice and the dropped-path count.  With ``magnitude`` every
    gain and amplitude factor is its modulus and the unit phases are left
    out, which gives each bin's sum over paths and (i, j) of
    |conj(g_rx)_i| |A_ij| |g_tx_j|, the scale of its rounding error."""
    taus, amp, dep, arr = paths.delay, paths.amplitude, paths.departure, paths.arrival
    m_r, m_t, n_b = rx_array.size, tx_array.size, config.n_freq_bins
    bins = np.rint(taus * config.bandwidth).astype(int)
    keep = bins < n_b
    taus, amp, dep, arr, bins = taus[keep], amp[keep], dep[keep], arr[keep], bins[keep]
    doa = -arr
    amp = amp * np.array([[1.0], [-1.0]])
    g_tx = tx_array.element_gains(dep, tx_heading)
    g_rx = np.conj(rx_array.element_gains(doa, rx_heading))
    if magnitude:
        g_tx, g_rx, amp = np.abs(g_tx), np.abs(g_rx), np.abs(amp)
    vals = np.einsum("npi,pij,mpj->nmp", g_rx, amp, g_tx)
    if not magnitude:
        f = config.carrier_frequency
        dtau_tx = (dep @ tx_array.world_offsets(tx_heading).T) / SPEED_OF_LIGHT
        dtau_rx = (doa @ rx_array.world_offsets(rx_heading).T) / SPEED_OF_LIGHT
        vals = (vals * np.exp(-2j * math.pi * f * taus)[None, None, :]
                * np.exp(2j * math.pi * f * dtau_rx).T[:, None, :]
                * np.exp(2j * math.pi * f * dtau_tx).T[None, :, :])
    idx = ((np.arange(m_r)[:, None, None] * m_t + np.arange(m_t)[None, :, None]) * n_b
           + bins[None, None, :]).ravel()
    flat = vals.ravel()
    acc = np.bincount(idx, weights=flat.real, minlength=m_r * m_t * n_b)
    if not magnitude:
        acc = acc + 1j * np.bincount(idx, weights=flat.imag, minlength=m_r * m_t * n_b)
    return acc.reshape(m_r, m_t, n_b), int((~keep).sum())


#: Bins to 40: the flip slice's longest paths (bin 51) are dropped.
KERNEL_SIM = SimConfig(n_freq_bins=40, fine_dt=625e-6)


def _kernel_cases(snaps):
    """Path sets of the flip slice: each snapshot, an interpolated step, an
    empty set, and a snapshot with -0.0 amplitude entries (whole matrices,
    single entries and mixed-sign zeros)."""
    sets = [paths for _, paths in snaps]
    sets.append(PathInterpolator(snaps).paths_at(snaps[1][0] + 0.4 * SIM.coarse_trace_dt))
    sets.append(sets[0].take(np.array([], dtype=int)))
    amp = sets[2].amplitude.copy()
    amp[::5] = complex(-0.0, -0.0)
    amp[1::5, 0, 1] = complex(-0.0, 0.0)
    amp[2::5, 1, 0] = complex(0.0, -0.0)
    amp[3::5, 1, 1] = -0.0
    sets.append(replace(sets[2], amplitude=amp))
    return sets


def _dual_pol_layout(seed: int) -> ArrayLayout:
    """Three elements with random complex V and H gains on two grids."""
    rng = np.random.default_rng(seed)
    grids = [rng.standard_normal((n_az, n_el, 2)) + 1j * rng.standard_normal((n_az, n_el, 2))
             for n_az, n_el in ((36, 19), (24, 13))]
    patterns = [AntennaPattern(g) for g in grids]
    return ArrayLayout([ArrayElement([0.0, 0.0, 0.0], patterns[0], 0.0),
                        ArrayElement([0.05, 0.0, 0.0], patterns[1], 120.0),
                        ArrayElement([0.1, 0.0, 0.0], patterns[0], 250.5)])


@pytest.mark.parametrize("make", [default_sharkfin_array, lambda: isotropic_array(4)],
                         ids=["sharkfin", "isotropic"])
def test_kernel_matches_einsum_reference_bit_for_bit(flip_slice, make):
    """Real, V-only patterns: the explicit sum is the einsum's arithmetic."""
    arrays = make()
    dropped = 0
    for paths in _kernel_cases(flip_slice[0]):
        for h_tx, h_rx in ((0.0, 0.0), (0.3, -1.2), (2 * math.pi, 1e-15)):
            got, n_got = _synthesize(paths, arrays, arrays, KERNEL_SIM, h_tx, h_rx)
            want, n_want = reference_synthesize(paths, arrays, arrays, KERNEL_SIM, h_tx, h_rx)
            assert n_got == n_want
            assert got.shape == want.shape == (4, 4, KERNEL_SIM.n_freq_bins)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            dropped += n_got
    assert dropped > 0


def _assert_within_dual_pol_bound(paths, tx, rx):
    """Complex V and H gains: numpy's complex multiply may fuse its
    multiply-add where einsum does not, so bits may move.  Both results
    round at most 8 times per term before the bin sum and once per path
    added to a bin, so they differ by at most 2 (8 + K) eps times the
    bin's magnitude sum, K being the paths in the bin."""
    eps = np.finfo(float).eps
    got, n_got = _synthesize(paths, tx, rx, KERNEL_SIM, 0.7, -2.1)
    want, n_want = reference_synthesize(paths, tx, rx, KERNEL_SIM, 0.7, -2.1)
    scale, _ = reference_synthesize(paths, tx, rx, KERNEL_SIM, 0.7, -2.1, magnitude=True)
    bins = np.rint(paths.delay * KERNEL_SIM.bandwidth).astype(int)
    per_bin = np.bincount(bins[bins < KERNEL_SIM.n_freq_bins], minlength=KERNEL_SIM.n_freq_bins)
    assert n_got == n_want
    assert np.all(np.abs(got - want) <= 2 * (8 + per_bin) * eps * scale)


def test_kernel_dual_polarisation_within_bound(flip_slice):
    for seed in range(3):
        rx, tx = _dual_pol_layout(seed), _dual_pol_layout(seed + 10)
        for paths in _kernel_cases(flip_slice[0]):
            _assert_within_dual_pol_bound(paths, tx, rx)


def _h_only_layout() -> ArrayLayout:
    """Two elements with real H gains only."""
    grid = np.zeros((24, 13, 2), dtype=complex)
    grid[..., 1] = np.random.default_rng(21).standard_normal((24, 13))
    pattern = AntennaPattern(grid)
    return ArrayLayout([ArrayElement([0.0, 0.0, 0.0], pattern, 0.0),
                        ArrayElement([0.05, 0.0, 0.0], pattern, 200.0)])


@pytest.mark.parametrize("tx_make, rx_make", [
    (default_sharkfin_array, lambda: _dual_pol_layout(4)),
    (lambda: _dual_pol_layout(5), default_sharkfin_array),
    (_h_only_layout, lambda: _dual_pol_layout(6)),
    (lambda: _dual_pol_layout(7), _h_only_layout)],
    ids=["v-tx-dual-rx", "dual-tx-v-rx", "h-tx-dual-rx", "dual-tx-h-rx"])
def test_kernel_mixed_live_polarisations_within_bound(flip_slice, tx_make, rx_make):
    """One end's array has a polarisation that is +0.0 everywhere, whose
    coupling terms the kernel skips; the other end is dual-polarised."""
    tx, rx = tx_make(), rx_make()
    assert {len(tx.live_pols), len(rx.live_pols)} == {1, 2}
    for paths in _kernel_cases(flip_slice[0]):
        _assert_within_dual_pol_bound(paths, tx, rx)


@pytest.mark.parametrize("tx_make, rx_make", [
    (default_sharkfin_array, _h_only_layout), (_h_only_layout, default_sharkfin_array),
    (_h_only_layout, _h_only_layout)], ids=["v-tx-h-rx", "h-tx-v-rx", "h-tx-h-rx"])
def test_kernel_single_polarisation_bit_for_bit(flip_slice, tx_make, rx_make):
    """Real single-polarisation arrays: one live term (or none, when the
    ends share no polarisation) gives the einsum's bits, the skipped terms'
    zeros included."""
    tx, rx = tx_make(), rx_make()
    for paths in _kernel_cases(flip_slice[0]):
        got, n_got = _synthesize(paths, tx, rx, KERNEL_SIM, 0.3, -1.2)
        want, n_want = reference_synthesize(paths, tx, rx, KERNEL_SIM, 0.3, -1.2)
        assert n_got == n_want
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_workers_give_identical_tensor(flip_slice):
    """Chunks of whole coarse intervals, in-process and on two spawned
    workers, against one pass of the kernel over the whole interpolator:
    the slice crosses three coarse boundaries and drops paths beyond the
    delay span."""
    snaps, tx, rx, arrays = flip_slice
    whole = PathInterpolator(snaps)
    times = snaps[0][0] + np.arange(64) * KERNEL_SIM.fine_dt
    one_pass = np.stack([_synthesize(whole.paths_at(t), arrays, arrays, KERNEL_SIM,
                                     tx.heading(t), rx.heading(t))[0] for t in times])
    out = {}
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tensor = synthesize_tensor(PathInterpolator(snaps), arrays, arrays, KERNEL_SIM,
                                       tx_heading=tx.heading, rx_heading=rx.heading,
                                       workers=workers)
        out[workers] = (tensor, [str(w.message) for w in caught])
    (t1, w1), (t2, w2) = out[1], out[2]
    assert t1.n_time == 64
    assert np.array_equal(t1.data.view(np.uint64), one_pass.view(np.uint64))
    assert np.array_equal(t1.data.view(np.uint64), t2.data.view(np.uint64))
    assert (t1.t0, t1.dt) == (t2.t0, t2.dt)
    assert len(w1) == 1 and " path(s) beyond" in w1[0] and w1 == w2


def reference_columns_at(interp: PathInterpolator, t: float) -> PathSet:
    """``paths_at`` as it built each step: the interval matched, and all
    eight columns of the lerped start rows and of the held rows
    concatenated."""
    i, u = interp._locate(t)
    if u == 1.0:
        return interp.snapshots[i + 1]
    a, b = interp.snapshots[i], interp.snapshots[i + 1]
    ia, ib, held = _match_paths(a, b)
    start, end, held = a.take(ia), b.take(ib), a.take(held)
    cols = {name: (1.0 - u) * getattr(start, name) + u * getattr(end, name)
            for name in ("length", "amplitude", "departure", "arrival")}
    for name in ("departure", "arrival"):
        norm = np.linalg.norm(cols[name], axis=-1, keepdims=True)
        cols[name] = np.divide(cols[name], norm, out=getattr(start, name).copy(),
                               where=norm > 0)
    return PathSet.concat([replace(start, **cols), held])


def test_paths_at_columns_match_reference(flip_slice):
    """Every column, dtype and bit, at each fine step of every interval of
    the flip slice, walked forward and then back (which rematches)."""
    snaps = flip_slice[0]
    interp = PathInterpolator(snaps)
    times = snaps[0][0] + np.arange(65) * (SIM.coarse_trace_dt / 16)
    for t in [*times, *times[::-1]]:
        got, want = interp.paths_at(t), reference_columns_at(interp, t)
        for f in fields(PathSet):
            g, w = getattr(got, f.name), getattr(want, f.name)
            assert g.dtype == w.dtype and g.shape == w.shape, f.name
            assert g.tobytes() == w.tobytes(), f.name
