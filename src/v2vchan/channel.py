"""Time-variant MIMO channel synthesis from per-snapshot path sets.

The delay-domain channel is the classic delta train: every path contributes
its polarimetric amplitude times exp(-j 2 pi f tau) into the delay bin
nearest to tau * B.  With this sign convention the tap phase of an
approaching link advances by +2 pi (f v / c) dt per step, which is what
produces positive Doppler for closing vehicles.

Coarse ray-traced snapshots (default every 10 ms) are interpolated to a
fine time grid by matching the rows of adjacent snapshots' path sets on
their (kind, surfaces, tile) identity, once per interval, and at every fine
step linearly interpolating length, amplitude and the renormalised
directions; delay, hence phase, follows from the length.
Interaction points are not interpolated; synthesis never reads them.
Matching is a join on that identity, numbered in the lexicographic order of
its integer columns by one ``np.lexsort``.  The tracer emits each identity
at most once per snapshot, so a match pairs one path with one; a hand-built
set that repeats an identity pairs its paths in delay order.  Unmatched
paths appear or vanish hard at the coarse boundary; a path missing from the
next snapshot keeps its last state until that boundary.

A tensor is synthesized in chunks of whole coarse intervals, each from a
window of the interpolator that holds only its own snapshots and keeps the
full grid's times and step, so a chunk's steps come out bit for bit as in
one pass.  The chunks run as jobs of :func:`_run_jobs`, the job runner
tracing shares: in order in process, writing into the tensor, or on a pool
of spawned worker processes, whose blocks are placed in step order.  The
tensor does not depend on the worker count.  Within a chunk the kernel
runs on batches of whole fine steps of one interval, their path rows
stacked step-major: as many steps as keep a batch within
``_CHUNK_VALUES // (M_R M_T)`` rows, so its coupling array holds at most
one chunk of values, and at least one.  A step on a snapshot's own time is
a batch of its own.  The kernel's operations are elementwise over the rows,
and the ones that read a step's heading (the element offsets and their
delays) run per step, so a step's slice is bit for bit the one it has
alone, whatever the batch.  Within a step, the polarimetric
coupling g_rx^H A g_tx is summed over its (i, j) terms whose receive
polarisation i and transmit polarisation j are both live in their arrays
(:attr:`ArrayLayout.live_pols`): one term, (V, V), for the bundled
shark-fin and isotropic arrays.  A skipped term has a gain that is +0.0 at
every query, so it is a complex zero; adding it could change only the sign
of a zero entry, and the bin sums, which start at +0.0, take none.  The
gains come per live polarisation, real where only the real plane is live
(so are neither conjugated nor stored with an imaginary part), and only the
H row of A that a live term reads is sign-flipped into the DoA basis.  A
real factor scales both parts as its complex form with a zero imaginary
part does, and a flip or a zero part can change only the sign of a zero, so
the slices keep their bits.  For real, vertical-only patterns the sum rounds
exactly as the three-operand ``np.einsum``; for complex dual-polarized
patterns numpy's complex multiply may fuse a multiply-add where
``np.einsum`` does not, and the two differ by a few ulps of the terms'
magnitudes.

Frequency-domain tensors store bins in increasing frequency order (carrier
at the center bin).  ``cir_to_ctf`` is an unnormalized forward DFT and
``ctf_to_cir`` the matching 1/N inverse, optionally Hann-windowed across
the band before transforming, mirroring channel-sounder processing.
"""

from __future__ import annotations

import copy
import itertools
import math
import os
import struct
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import get_context

import numpy as np

from .antenna import ArrayLayout
from .raytracer import (DEFAULT_CARRIER, SPEED_OF_LIGHT, PathSet, _require_finite,
                        _require_integer)
from .scene import _uniform_times

TENSOR_MAGIC = b"V2VC"
TENSOR_VERSION = 1


class TensorFormatError(ValueError):
    """Channel tensor file is malformed."""


@dataclass
class SimConfig:
    """Sounder and sampling parameters for channel synthesis: the carrier,
    the band and its delay bins, the ray-tracer's snapshot interval and the
    synthesized time step.  A measured tensor carries its own snapshot
    interval (:attr:`ChannelTensor.dt`)."""

    carrier_frequency: float = DEFAULT_CARRIER   # 5.9 GHz ITS band; the campaign used 5.6e9
    bandwidth: float = 240e6
    n_freq_bins: int = 769
    coarse_trace_dt: float = 10e-3     # ray-tracer snapshot interval
    fine_dt: float = 100e-6            # synthesized tensor time step

    def __post_init__(self):
        _require_finite(self)
        _require_integer(self, "n_freq_bins")
        if min(self.carrier_frequency, self.bandwidth,
               self.coarse_trace_dt, self.fine_dt) <= 0 or self.n_freq_bins < 1:
            raise ValueError("all SimConfig parameters must be positive")
        ratio = self.coarse_trace_dt / self.fine_dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("fine_dt must divide coarse_trace_dt exactly")

    @property
    def max_delay(self) -> float:
        return self.n_freq_bins / self.bandwidth


@dataclass
class ChannelTensor:
    """Complex channel indexed (time, rx element, tx element, bin).

    ``domain`` is 'delay' (bin axis = excess delay, spacing 1/B) or
    'frequency' (bin axis = baseband frequency offsets, increasing, carrier
    at index n_bins // 2).
    """

    domain: str
    data: np.ndarray
    t0: float
    dt: float
    bin0: float
    dbin: float
    carrier_frequency: float

    def __post_init__(self):
        if self.domain not in ("delay", "frequency"):
            raise ValueError(f"domain must be 'delay' or 'frequency', not {self.domain!r}")
        if self.data.ndim != 4:
            raise ValueError("tensor data must be (time, rx, tx, bin)")
        if min(self.data.shape) < 1:
            raise ValueError("all tensor dimensions must be >= 1")
        if not np.isfinite([self.t0, self.dt, self.bin0, self.dbin,
                            self.carrier_frequency]).all():
            raise ValueError("axis origins, spacings and carrier must be finite")
        if self.dt <= 0 or self.dbin <= 0:
            raise ValueError("axis spacings must be positive")

    @property
    def n_time(self) -> int:
        return self.data.shape[0]

    @property
    def m_rx(self) -> int:
        return self.data.shape[1]

    @property
    def m_tx(self) -> int:
        return self.data.shape[2]

    @property
    def n_bins(self) -> int:
        return self.data.shape[3]

    @property
    def time_axis(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_time) * self.dt

    @property
    def bin_axis(self) -> np.ndarray:
        return self.bin0 + np.arange(self.n_bins) * self.dbin


def _synthesize_steps(cols: dict, tx_array: ArrayLayout, rx_array: ArrayLayout,
                      config: SimConfig, tx_headings, rx_headings, out: np.ndarray) -> int:
    """Write the (M_R, M_T, n_freq_bins) slices of a batch of steps into the
    C-ordered ``out`` (one slice per heading) and return the number of paths
    dropped beyond the delay span.

    ``cols`` maps the names of the steps' length, amplitude, departure and
    arrival columns to them (the fields of a :class:`PathSet`, say), the
    same number of rows per step, stacked step-major.  Every operation is
    elementwise over the rows, or per step where it reads the step's
    heading: ``world_offsets`` and the ``dep @ off.T`` product.  Taps
    accumulate in row order into ``out`` from +0.0, so a step's slice is bit
    for bit the one it has as a batch of its own, and the row order fixes
    the float result."""
    taus, amp, dep, arr = (cols["length"] / SPEED_OF_LIGHT, cols["amplitude"],
                           cols["departure"], cols["arrival"])
    m_r, m_t = rx_array.size, tx_array.size
    f = config.carrier_frequency
    bins = np.rint(taus * config.bandwidth).astype(int)
    step = np.repeat(np.arange(len(tx_headings)), len(taus) // len(tx_headings))
    keep = bins < config.n_freq_bins
    dropped = int((~keep).sum())
    if dropped:
        taus, amp, dep, arr, bins, step = (x[keep] for x in (taus, amp, dep, arr, bins, step))
    counts = np.bincount(step, minlength=len(tx_headings))
    doa = -arr                                         # (P, 3) arrival DoA
    g_tx = tx_array._gains(dep, np.repeat(tx_headings, counts))   # (M_T, P) per live polarisation
    g_rx = [np.conj(g) if g.dtype == complex else g
            for g in rx_array._gains(doa, np.repeat(rx_headings, counts))]
    # polarimetric coupling per (rx element, tx element, path): sum over the
    # live (i, j) of conj(g_rx)_i A_ij g_tx_j, in the order (0, 0), (0, 1),
    # (1, 0), (1, 1), the H row of A sign-flipped into the DoA basis
    terms = (g_r[:, None, :] * (-amp[:, i, j] if i else amp[:, i, j]) * g_t[None, :, :]
             for i, g_r in zip(rx_array.live_pols, g_rx)
             for j, g_t in zip(tx_array.live_pols, g_tx))
    coup = next(terms, None)
    if coup is None:                                   # no pair of live polarisations
        coup = np.zeros((m_r, m_t, len(taus)), dtype=complex)
    for term in terms:
        coup += term
    del g_tx, g_rx, terms   # dropped as soon as read: they set the batch's heap peak
    # element-offset delays enter the phase only, the offsets turned by each
    # step's headings
    dtau_tx, dtau_rx = np.empty((len(taus), m_t)), np.empty((len(taus), m_r))
    ends = np.cumsum(counts).tolist()
    for a, b, h_tx, h_rx in zip([0] + ends, ends, tx_headings, rx_headings):
        dtau_tx[a:b] = (dep[a:b] @ tx_array.world_offsets(h_tx).T) / SPEED_OF_LIGHT  # (P, M_T)
        dtau_rx[a:b] = (doa[a:b] @ rx_array.world_offsets(h_rx).T) / SPEED_OF_LIGHT  # (P, M_R)
    base = np.exp(-2j * math.pi * f * taus)            # (P,)
    ph_tx = np.exp(2j * math.pi * f * dtau_tx)         # (P, M_T)
    ph_rx = np.exp(2j * math.pi * f * dtau_rx)         # (P, M_R)
    del dtau_tx, dtau_rx    # likewise
    vals = coup
    vals *= base
    vals *= ph_rx.T[:, None, :]
    vals *= ph_tx.T[None, :, :]
    # accumulate over a combined (step, n, m, bin) index: np.add.at adds in
    # index order, so each bin sums its paths in row order from +0.0, as one
    # bincount per component would
    pair_idx = (np.arange(m_r)[:, None, None] * m_t
                + np.arange(m_t)[None, :, None]) * config.n_freq_bins
    out[...] = 0.0
    np.add.at(out.reshape(-1), (pair_idx + (step * out[0].size + bins)).ravel(), vals.ravel())
    return dropped


def _synthesize(paths: PathSet, tx_array: ArrayLayout, rx_array: ArrayLayout,
                config: SimConfig, tx_heading: float,
                rx_heading: float) -> tuple[np.ndarray, int]:
    """The (M_R, M_T, n_freq_bins) slice of a path set and the number of
    paths dropped beyond the delay span: :func:`_synthesize_steps` on one
    step."""
    out = np.empty((1, rx_array.size, tx_array.size, config.n_freq_bins), dtype=complex)
    dropped = _synthesize_steps(vars(paths), tx_array, rx_array, config, [tx_heading],
                                [rx_heading], out)
    return out[0], dropped


def synthesize_cir(paths: PathSet, tx_array: ArrayLayout,
                   rx_array: ArrayLayout, t: float, config: SimConfig,
                   tx_heading: float = 0.0, rx_heading: float = 0.0) -> np.ndarray:
    """One delay-domain time slice, shape (M_R, M_T, n_freq_bins).

    Each path lands in the delay bin round(tau * B) with value
    g_rx(n)^H . A_k . g_tx(m) . exp(-j 2 pi f tau_nm), where A_k is the
    path's polarimetric matrix (H row sign-flipped into the receive DoA
    basis) and tau_nm adds the element-offset delays to the phase only.
    Paths whose delay exceeds the unambiguous span are dropped and counted
    in a single warning.
    """
    slice_, dropped = _synthesize(paths, tx_array, rx_array, config, tx_heading, rx_heading)
    if dropped:
        warnings.warn(f"{dropped} path(s) beyond the unambiguous delay span "
                      f"{config.max_delay * 1e6:.2f} us dropped", RuntimeWarning, stacklevel=2)
    return slice_


def _match_paths(a: PathSet, b: PathSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair the rows of adjacent snapshots by their (kind, surfaces, tile) identity.

    Within an identity the k-th shortest-delay a-row pairs with the k-th
    shortest-delay b-row.  Leftover a-rows are held until the boundary;
    leftover b-rows are born there.  The tracer emits each identity at most
    once per snapshot, so there an identity pairs one row with one.
    Returns row indices (ia, ib, held): a-row ia[k] pairs with b-row ib[k],
    and held lists the held a-rows.  Both follow the sorted identity order,
    then delay rank, which fixes the row order and so the float result of
    synthesis.
    """
    keys = np.concatenate([np.column_stack((p.kind, p.surfaces, p.tile)) for p in (a, b)])
    # number the identities in the lexicographic order of the key columns,
    # as np.unique(keys, axis=0) would: sort, then count the rows that differ
    # from the one before
    order = np.lexsort(keys.T[::-1])
    ident = np.empty(len(keys), dtype=int)
    ident[order] = np.cumsum(np.r_[0, (keys[order[1:]] != keys[order[:-1]]).any(axis=1)])
    ranked = []
    for p, k in zip((a, b), np.split(ident, [len(a)])):
        rows = np.lexsort((p.delay, k))
        k = k[rows]
        rank = np.arange(len(k)) - np.searchsorted(k, k)
        ranked.append((rows, k * (len(keys) + 1) + rank))   # (identity, rank) as one int
    (rows_a, code_a), (rows_b, code_b) = ranked
    _, ja, jb = np.intersect1d(code_a, code_b, assume_unique=True, return_indices=True)
    return rows_a[ja], rows_b[jb], np.delete(rows_a, ja)


class PathInterpolator:
    """Evaluate the traced path set at arbitrary times between snapshots.

    Each coarse interval is matched once: its matched rows at both ends
    and the rows held until the interval's end are kept as path sets, and
    so is the interval's path set with the start's values, whose identity
    and point columns every step of the interval shares.  Only the
    interval last evaluated is kept; going back rematches.
    """

    def __init__(self, coarse: list[tuple[float, PathSet]]):
        self.times = _uniform_times([t for t, _ in coarse], "coarse snapshot times")
        self.snapshots = [paths for _, paths in coarse]
        self.dt = float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0
        self._current: tuple = (None,)

    def _locate(self, t: float) -> tuple[int, float]:
        """(i, u): t lies at fraction u of interval i.  u == 1.0 means the
        path set is snapshot i + 1's (i == -1 for a single snapshot)."""
        if not self.times[0] - 1e-12 <= t <= self.times[-1] + 1e-12:   # NaN fails too
            raise ValueError(f"time {t} outside the traced span")
        if len(self.times) == 1:
            return -1, 1.0
        i = int(self._intervals(t))
        u = (t - self.times[i]) / self.dt
        return i, min(max(u, 0.0), 1.0)

    def _intervals(self, t):
        """The coarse interval i that evaluates each time of ``t`` (a time or
        an array): the one it lies in, interval 0 before the span and the
        last from the last snapshot on.  Counting the inner snapshot times
        at or before ``t`` gives that index with no clipping (0 for one or
        two snapshots)."""
        return np.searchsorted(self.times[1:-1], t, side="right")

    def paths_at(self, t: float) -> PathSet:
        """The path set at time ``t``.

        On a snapshot's own time (u == 1) this is that snapshot's set
        itself.  Inside an interval the rows are the matched pairs, with
        length, amplitude and the renormalised directions lerped and the
        start's identity and interaction points, then the held rows.  The
        identity and point columns are the interval's, shared by its steps;
        only the four lerped columns are new arrays.  This is the one-step
        case of :meth:`_batches`.
        """
        i, u = self._locate(t)
        if u == 1.0:
            return self.snapshots[i + 1]
        return replace(self._interval(i)[3], **self._lerped(i, np.array([u])))

    def _interval(self, i: int) -> tuple[PathSet, PathSet, PathSet, PathSet]:
        """Interval i's matched rows at its start and end, its held rows and
        its path set with the start's values, matched on first use."""
        if self._current[0] != i:
            a, b = self.snapshots[i], self.snapshots[i + 1]
            ia, ib, held = _match_paths(a, b)
            start, held = a.take(ia), a.take(held)
            self._current = (i, start, b.take(ib), held, PathSet.concat([start, held]))
        return self._current[1:]

    def _lerped(self, i: int, u: np.ndarray) -> dict:
        """The four lerped columns of interval i at the fractions ``u``
        (each below 1), one step per fraction, stacked step-major: each
        step's matched rows lerped, then the held rows."""
        start, end, held, rows = self._interval(i)
        m = len(start)
        cols = {}
        for name in ("length", "amplitude", "departure", "arrival"):
            a, b = getattr(start, name), getattr(end, name)
            # one fraction per step, in the column's dtype: a complex column
            # multiplies by (u + 0j), as it did by the one-step scalar
            w = u.reshape(-1, *[1] * a.ndim).astype(a.dtype)
            col = np.empty((len(u), len(rows), *a.shape[1:]), dtype=a.dtype)
            lerp = (1.0 - w) * a + w * b
            col[:, :m] = a if name in ("departure", "arrival") else lerp
            if name in ("departure", "arrival"):        # unit directions; 0 keeps the start
                norm = np.linalg.norm(lerp, axis=-1, keepdims=True)
                np.divide(lerp, norm, out=col[:, :m], where=norm > 0)
            col[:, m:] = getattr(held, name)
            cols[name] = col.reshape(-1, *a.shape[1:])
        return cols

    def _batches(self, times, rows: int):
        """(k0, k1, columns) over ``times`` in order: the four lerped
        columns of steps k0..k1 - 1 (:meth:`_lerped`), or a snapshot's own.
        A batch holds as many steps of one interval as keep its rows within
        ``rows``, and at least one; a step on a snapshot's own time (u == 1)
        is a batch of its own.  Each step's rows are bit for bit those of
        :meth:`paths_at`."""
        k0 = 0
        while k0 < len(times):
            i, u = self._locate(times[k0])
            steps = max(1, rows // max(1, len(self._interval(i)[3]))) if u < 1.0 else 1
            fractions = [u]
            for t in times[k0 + 1:k0 + steps]:
                j, v = self._locate(t)
                if j != i or v == 1.0:
                    break
                fractions.append(v)
            cols = self._lerped(i, np.array(fractions)) if u < 1.0 else vars(self.snapshots[i + 1])
            yield k0, k0 + len(fractions), cols
            k0 += len(fractions)

    def window(self, lo: int, hi: int) -> PathInterpolator:
        """This interpolator cut to snapshots lo..hi.  It evaluates every time
        of intervals lo..hi - 1 bit for bit as this one does: it keeps this
        one's snapshot times and step, where a step re-derived from the cut
        times could differ by an ulp and move the interpolation fractions."""
        sub = copy.copy(self)
        sub.times, sub.snapshots = self.times[lo:hi + 1], self.snapshots[lo:hi + 1]
        sub._current = (None,)
        return sub


def _job_count(workers: int) -> int:
    """The number of jobs to cut work into for ``workers`` processes: four
    per worker, so that a slow job is made up by the others' next ones.
    Both callers of :func:`_run_jobs` call it before doing any work, so it
    is where ``workers`` below 1 is rejected."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    return 4 * workers


#: Thread-count variables a worker's BLAS reads when it loads numpy; two
#: workers each running the default thread count oversubscribe the cores.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_jobs(fn, jobs, workers: int):
    """``fn(*job)`` for each tuple of ``jobs``, as an iterator in job order.

    At one worker the jobs run in this process as the iterator is advanced,
    taken from ``jobs`` one at a time, so a job's inputs are dropped before
    the next job is made.  Above one, the jobs run one per task on
    ``workers`` processes started with ``spawn`` whatever the platform's
    default: each imports the package afresh, so ``fn`` must be a
    module-level function, and it, every job and every result are pickled.
    Callers pass at most one worker per job, so a single job never starts a
    pool.  The workers start with one BLAS thread each: the
    :data:`_BLAS_THREAD_VARS` are "1" in ``os.environ`` while the pool
    starts them, within ``pool.map``, and then hold the caller's values again
    (or are unset), also when starting raises.  Other threads of this
    process can see the change while it lasts.
    """
    if workers == 1:
        return itertools.starmap(fn, jobs)
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(saved, "1"))
    try:
        pool = ProcessPoolExecutor(workers, mp_context=get_context("spawn"))
        results = pool.map(fn, *zip(*jobs))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    pool.shutdown(wait=False)   # its workers exit once the submitted jobs are done
    return results


#: Fine steps per synthesis chunk, at least, unless that leaves fewer than
#: four chunks per worker.  A chunk runs on to the next coarse boundary, so
#: each interval is matched in one chunk only.
_CHUNK_STEPS = 64


def _synthesize_chunk(interp: PathInterpolator, times, tx_headings, rx_headings,
                      tx_array: ArrayLayout, rx_array: ArrayLayout, config: SimConfig,
                      out: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Fine steps k0..k1 - 1 of a tensor: their (k1 - k0, M_R, M_T,
    n_freq_bins) block, written into ``out`` when given, and the paths
    dropped beyond the delay span.

    ``times`` and the two heading sequences are those steps' values;
    ``interp`` needs to cover only their coarse intervals (see
    :meth:`PathInterpolator.window`).  Steps are synthesized in batches
    (:meth:`PathInterpolator._batches`) of as many steps of one interval as
    keep a batch's path rows within ``_CHUNK_VALUES // (M_R M_T)``, each
    batch by one :func:`_synthesize_steps` call into its slice of the block.
    """
    block = out if out is not None else np.empty(
        (len(times), rx_array.size, tx_array.size, config.n_freq_bins), dtype=complex)
    rows = max(1, _CHUNK_VALUES // (rx_array.size * tx_array.size))
    dropped = 0
    for k0, k1, cols in interp._batches(times, rows):
        dropped += _synthesize_steps(cols, tx_array, rx_array, config, tx_headings[k0:k1],
                                     rx_headings[k0:k1], block[k0:k1])
    return block, dropped


def synthesize_tensor(interp: PathInterpolator, tx_array: ArrayLayout,
                      rx_array: ArrayLayout, config: SimConfig,
                      times: np.ndarray | None = None,
                      tx_heading=None, rx_heading=None, workers: int = 1) -> ChannelTensor:
    """Delay-domain tensor over a fine time grid.

    Headings may be constants (radians) or callables such as
    :meth:`Trajectory.heading`: a callable is called once, with the array of
    all step times, and returns one heading per step, or one for all of
    them (another shape raises ValueError).  The default time grid runs
    from the first traced snapshot in steps of ``config.fine_dt``,
    duration / fine_dt samples in total.  Given ``times`` must be a uniform
    grid, checked before any step is synthesized, since the tensor records
    only its start and step.

    The steps are cut into chunks of whole coarse intervals, at least four
    per worker, each synthesized by :func:`_synthesize_chunk` from a window
    of ``interp`` holding only its own snapshots and run by
    :func:`_run_jobs`; a chunk synthesizes its steps in batches of at most
    one chunk of coupling values.  In process a chunk writes straight into
    its slice of the tensor; on ``workers`` > 1 processes its block is
    returned and placed.  The result does not depend on the worker count or
    the batches.  Paths dropped
    beyond the delay span are summed over all steps into one warning.
    """
    if times is None:
        span = interp.times[-1] - interp.times[0]
        n = max(1, int(round(span / config.fine_dt)))
        times = interp.times[0] + np.arange(n) * config.fine_dt
        dt = config.fine_dt   # so time_axis rebuilds exactly this grid
    else:
        times = _uniform_times(times, "synthesis times")
        dt = float(times[1] - times[0]) if len(times) > 1 else config.fine_dt

    interval = interp._intervals(times)
    min_steps = min(_CHUNK_STEPS, -(-len(times) // _job_count(workers)))
    cuts = [0]
    for k in np.flatnonzero(np.diff(interval)) + 1:
        if k - cuts[-1] >= min_steps:
            cuts.append(int(k))
    bounds = list(zip(cuts, cuts[1:] + [len(times)]))
    workers = min(workers, len(bounds))
    # a callable's result of another shape than the times' raises ValueError
    tx_h, rx_h = (np.broadcast_to(np.asarray(h(times) if callable(h) else float(h or 0.0),
                                             dtype=float), times.shape).tolist()
                  for h in (tx_heading, rx_heading))
    data = np.empty((len(times), rx_array.size, tx_array.size, config.n_freq_bins),
                    dtype=complex)
    # made one at a time, so that in process a used window and the interval
    # it matched are dropped before the next, and each chunk is given its
    # slice of the tensor, where a returned block would sit beside it
    jobs = ((interp.window(interval[k0], interval[k1 - 1] + 1), times[k0:k1],
             tx_h[k0:k1], rx_h[k0:k1], tx_array, rx_array, config,
             data[k0:k1] if workers == 1 else None) for k0, k1 in bounds)
    dropped = 0
    for (block, n_dropped), (k0, k1) in zip(_run_jobs(_synthesize_chunk, jobs, workers),
                                            bounds):
        data[k0:k1] = block   # numpy skips the copy of a slice onto itself
        dropped += n_dropped
    if dropped:
        warnings.warn(f"{dropped} path(s) beyond the unambiguous delay span "
                      f"{config.max_delay * 1e6:.2f} us dropped over {len(times)} time steps",
                      RuntimeWarning, stacklevel=2)
    return ChannelTensor(
        domain="delay", data=data, t0=float(times[0]), dt=dt,
        bin0=0.0, dbin=1.0 / config.bandwidth,
        carrier_frequency=config.carrier_frequency,
    )


def hann_window(n: int) -> np.ndarray:
    """Symmetric Hann window, endpoints zero."""
    i = np.arange(n)
    return 0.5 - 0.5 * np.cos(2.0 * math.pi * i / (n - 1)) if n > 1 else np.ones(1)


#: Values per time chunk of the transforms and kernels: a chunk holds as
#: many whole time rows as fit, at least one, and bounds the values in flight
#: beside each kernel's output and window-sized arrays.  A pass that
#: :func:`_each_chunk` splits over two threads keeps that bound across both,
#: each thread working on half a chunk at a time.
_CHUNK_VALUES = 1 << 16


def _chunks(data: np.ndarray, lo: int = 0, hi: int | None = None, values: int | None = None):
    """(a, b) bounds of consecutive chunks covering rows [lo, hi) of
    ``data``, each as many whole rows as hold ``values`` values (by default
    ``_CHUNK_VALUES``), and at least one."""
    hi = len(data) if hi is None else hi
    values = _CHUNK_VALUES if values is None else values
    rows = max(1, values // max(1, data[0].size))
    for a in range(lo, hi, rows):
        yield a, min(a + rows, hi)


def _half_chunks(data: np.ndarray, lo: int, hi: int) -> list | None:
    """The half-chunk bounds that :func:`_each_chunk` and :func:`_pipelined`
    split rows [lo, hi) of ``data`` into, or None when the rows fit one
    chunk or a row is too large for two to fit: such a pass runs in the
    calling thread on :func:`_chunks` bounds and starts no thread."""
    half = _CHUNK_VALUES // 2
    if (hi - lo) * data[0].size <= _CHUNK_VALUES or data[0].size > half:
        return None
    return list(_chunks(data, lo, hi, half))


def _each_chunk(fn, data: np.ndarray, lo: int = 0, hi: int | None = None) -> None:
    """``fn(a, b)`` for chunk bounds covering rows [lo, hi) of ``data``.

    Rows that fit one chunk, or a row too large for two to fit, run in this
    thread on :func:`_chunks` bounds.  Otherwise the rows are cut into
    half-size chunks: this thread takes every other one, starting with the
    first, and one helper thread takes the rest, so at most one chunk's
    worth of values is in flight.  ``fn`` must write only its own rows (or
    columns) and call nothing that depends on the thread it runs on; the
    helper is gone when this returns, whether ``fn`` raised or not, and an
    exception raised on either thread propagates with the helper's pending
    chunks cancelled.

    This even/odd split suits an ``fn`` of a few large calls that release
    the GIL (the APDP's powers, the DSD's column DFTs).  A step of many
    small numpy calls holds the GIL between them and gains nothing on two
    threads; :func:`_pipelined` overlaps such a step with its transform.
    """
    hi = len(data) if hi is None else hi
    bounds = _half_chunks(data, lo, hi)
    if bounds is None:
        for a, b in _chunks(data, lo, hi):
            fn(a, b)
        return
    pool = ThreadPoolExecutor(1)
    try:
        helper = [pool.submit(fn, a, b) for a, b in bounds[1::2]]
        for a, b in bounds[::2]:
            fn(a, b)
        for future in helper:
            future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _pipelined(produce, consume, data: np.ndarray, lo: int = 0, hi: int | None = None) -> None:
    """``consume(a, b, produce(a, b))`` for chunk bounds covering rows
    [lo, hi) of ``data``, in row order.

    Rows that fit one chunk, or a row too large for two to fit, run in this
    thread on :func:`_chunks` bounds.  Otherwise the rows are cut into
    half-size chunks: one helper thread runs ``produce`` on them in order,
    one half-chunk ahead of this thread, which runs ``consume`` on each in
    order, so at most two half-chunks, one chunk's worth of values, are in
    flight.  Each consumed half-chunk queues the produce after the one
    running, so the helper goes from one produce to the next without
    waiting for this thread to wake.  ``produce`` should be work that
    releases the GIL (a transform, a random draw); it may keep state across
    calls (a generator), since one thread calls it, in row order.
    ``consume`` may hold the GIL, as ``metrics._step_values`` does: split by
    :func:`_each_chunk` it ran at 0.66-0.77x its one-thread speed.  The
    helper is gone when this returns, whether either raised or not, and an
    exception raised on either thread propagates with its type, the
    helper's pending work cancelled.
    """
    hi = len(data) if hi is None else hi
    bounds = _half_chunks(data, lo, hi)
    if bounds is None:
        for a, b in _chunks(data, lo, hi):
            consume(a, b, produce(a, b))
        return
    pool = ThreadPoolExecutor(1)
    try:
        ahead = deque(pool.submit(produce, a, b) for a, b in bounds[:2])
        for i, (a, b) in enumerate(bounds):
            value = ahead.popleft().result()
            consume(a, b, value)
            del value   # freed before the next is queued: two are held at most
            if i + 2 < len(bounds):
                ahead.append(pool.submit(produce, *bounds[i + 2]))
    finally:
        pool.shutdown(cancel_futures=True)


def _upcast(chunk: np.ndarray) -> np.ndarray:
    """``chunk`` in complex128, the precision every transform and metric
    computes in; a no-op for complex128 input."""
    return np.asarray(chunk, dtype=complex)


def _ctf_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The shifted complex128 DFT along the bins of a chunk of delay rows,
    written into ``out`` (a new C-ordered array when None), the shift as
    two slice copies.  Each row's DFT does not depend on the chunking, so
    any chunk equals the same rows of the whole-tensor transform bit for bit.
    """
    n = rows.shape[-1]
    shift = n // 2
    spec = np.fft.fft(_upcast(rows), axis=-1)
    out = np.empty(spec.shape, dtype=complex) if out is None else out
    out[..., shift:] = spec[..., :n - shift]
    out[..., :shift] = spec[..., n - shift:]
    return out


def cir_to_ctf(tensor: ChannelTensor) -> ChannelTensor:
    """Delay -> frequency via an unnormalized forward DFT along the bin axis.

    The resulting bin axis is fftshifted so frequencies increase and the
    carrier sits at index n_bins // 2.  The transform runs over time chunks
    (:func:`_ctf_rows`) into one preallocated complex128 output.
    """
    if tensor.domain != "delay":
        raise ValueError("cir_to_ctf expects a delay-domain tensor")
    n = tensor.n_bins
    h = np.empty(tensor.data.shape, dtype=complex)
    for a, b in _chunks(tensor.data):
        _ctf_rows(tensor.data[a:b], out=h[a:b])
    df = 1.0 / (n * tensor.dbin)
    return ChannelTensor(domain="frequency", data=h, t0=tensor.t0, dt=tensor.dt,
                         bin0=-(n // 2) * df, dbin=df,
                         carrier_frequency=tensor.carrier_frequency)


def ctf_to_cir(tensor: ChannelTensor, window: str = "hann") -> ChannelTensor:
    """Frequency -> delay; the band is windowed before the inverse DFT.

    ``window`` is 'hann' (sounder-style sidelobe suppression) or 'rect'.
    With 'rect' this inverts :func:`cir_to_ctf` to machine precision.
    """
    if tensor.domain != "frequency":
        raise ValueError("ctf_to_cir expects a frequency-domain tensor")
    n = tensor.n_bins
    if window == "hann":
        w = hann_window(n)
    elif window == "rect":
        w = np.ones(n)
    else:
        raise ValueError("window must be 'hann' or 'rect'")
    data = np.empty(tensor.data.shape, dtype=complex)
    for a, b in _chunks(tensor.data):
        data[a:b] = np.fft.ifft(np.fft.ifftshift(_upcast(tensor.data[a:b]) * w, axes=-1),
                                axis=-1)
    db = 1.0 / (n * tensor.dbin)
    return ChannelTensor(domain="delay", data=data, t0=tensor.t0, dt=tensor.dt,
                         bin0=0.0, dbin=db,
                         carrier_frequency=tensor.carrier_frequency)


def add_measurement_noise(tensor: ChannelTensor, noise_power_per_bin: float,
                          seed: int) -> ChannelTensor:
    """Add circularly symmetric complex Gaussian noise, deterministic per seed.

    The result is a complex128 copy.  All real parts are drawn, then all
    imaginary parts, in time chunks from one generator, so the values do
    not depend on the chunking.  A tensor larger than one chunk draws on
    :func:`_pipelined`'s helper thread while this one adds the previous
    draw to the input's part, writing the copy; the draw is most of the
    work and stays on one thread, in order.  The power must be finite and
    >= 0.
    """
    if not 0 <= noise_power_per_bin < math.inf:
        raise ValueError(f"noise power must be finite and >= 0, not {noise_power_per_bin}")
    if noise_power_per_bin == 0:
        return replace(tensor, data=tensor.data.astype(complex))
    data = np.empty(tensor.data.shape, dtype=complex)  # the one copy
    rng = np.random.default_rng(seed)
    scale = math.sqrt(noise_power_per_bin / 2.0)
    for src, part in ((tensor.data.real, data.real), (tensor.data.imag, data.imag)):
        def add(a, b, noise):
            part[a:b] = src[a:b]
            part[a:b] += np.multiply(scale, noise, out=noise)
        _pipelined(lambda a, b: rng.standard_normal(part[a:b].shape), add, data)
    return replace(tensor, data=data)


_HEADER_FMT = "<4sB B I I I I d d d d d"  # magic, version, domain, M_R, M_T, N_t, N_b, t0, dt, bin0, dbin, f_c


def save_tensor(tensor: ChannelTensor, path) -> None:
    """Write the binary tensor format (little-endian, complex64 payload),
    one time chunk at a time."""
    dom = 0 if tensor.domain == "delay" else 1
    header = struct.pack(_HEADER_FMT, TENSOR_MAGIC, TENSOR_VERSION, dom,
                         tensor.m_rx, tensor.m_tx, tensor.n_time, tensor.n_bins,
                         tensor.t0, tensor.dt, tensor.bin0, tensor.dbin,
                         tensor.carrier_frequency)
    with open(path, "wb") as f:
        f.write(header)
        for a, b in _chunks(tensor.data):
            f.write(np.ascontiguousarray(tensor.data[a:b], dtype="<c8"))


def load_tensor(path) -> ChannelTensor:
    """Read the binary tensor format; any malformed file raises TensorFormatError.

    The data keep the file's complex64 values, read into one array.  The
    payload length is checked against the header from the file size before
    anything is allocated, and every value must be finite; the check scans
    the payload's float32 parts chunk by chunk.
    """
    size = struct.calcsize(_HEADER_FMT)
    with open(path, "rb") as f:
        raw = f.read(size)
        if len(raw) < size:
            raise TensorFormatError(f"{path}: truncated header")
        magic, version, dom, m_r, m_t, n_t, n_b, t0, dt, bin0, dbin, fc = struct.unpack(
            _HEADER_FMT, raw)
        if magic != TENSOR_MAGIC:
            raise TensorFormatError(f"{path}: bad magic {magic!r}")
        if version != TENSOR_VERSION:
            raise TensorFormatError(f"{path}: unsupported version {version}")
        expected = n_t * m_r * m_t * n_b
        n_bytes = os.fstat(f.fileno()).st_size - size
        if n_bytes != 8 * expected:
            raise TensorFormatError(f"{path}: payload has {n_bytes} bytes, "
                                    f"expected {expected} complex64 values")
        try:
            data = np.empty((n_t, m_r, m_t, n_b), dtype="<c8")
            tensor = ChannelTensor(domain={0: "delay", 1: "frequency"}.get(dom, dom),
                                   data=data, t0=t0, dt=dt, bin0=bin0,
                                   dbin=dbin, carrier_frequency=fc)
        except ValueError as e:
            raise TensorFormatError(f"{path}: {e}") from e
        if f.readinto(data) != n_bytes:
            raise TensorFormatError(f"{path}: payload changed while it was read")
    for a, b in _chunks(data):
        if not np.isfinite(data[a:b].view("<f4")).all():
            raise TensorFormatError(f"{path}: non-finite payload value in time steps "
                                    f"{a} to {b - 1}")
    return tensor
