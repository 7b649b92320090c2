"""Time-variant MIMO channel synthesis from per-snapshot path lists.

The delay-domain channel is the classic delta train: every path contributes
its polarimetric amplitude times exp(-j 2 pi f tau) into the delay bin
nearest to tau * B.  With this sign convention the tap phase of an
approaching link advances by +2 pi (f v / c) dt per step, which is what
produces positive Doppler for closing vehicles.

Coarse ray-traced snapshots (default every 10 ms) are interpolated to a
fine time grid by matching paths between adjacent snapshots on their
(kind, surface sequence, tile) identity, holding each interval's matches
as arrays, and at every fine step (one at a time) linearly interpolating
length, amplitude and the renormalised directions, recomputing delay (hence
phase) from the length, then running ``synthesize_cir``'s array kernel.
Interaction points are not interpolated; synthesis never reads them.
Matching is a join on that identity.  The tracer emits each identity at
most once per snapshot, so a match pairs one path with one; a hand-built
list that repeats an identity pairs its paths in delay order.  Unmatched paths appear or vanish hard at the coarse
boundary; a path missing from the next snapshot keeps its last state until
that boundary.

Frequency-domain tensors store bins in increasing frequency order (carrier
at the center bin).  ``cir_to_ctf`` is an unnormalized forward DFT and
``ctf_to_cir`` the matching 1/N inverse, optionally Hann-windowed across
the band before transforming, mirroring channel-sounder processing.
"""

from __future__ import annotations

import math
import struct
import warnings
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from .antenna import ArrayLayout
from .raytracer import SPEED_OF_LIGHT, PropagationPath, _require_finite

TENSOR_MAGIC = b"V2VC"
TENSOR_VERSION = 1


class TensorFormatError(ValueError):
    """Channel tensor file is malformed."""


@dataclass
class SimConfig:
    """Sounder and sampling parameters for channel synthesis."""

    carrier_frequency: float = 5.9e9   # 5.6e9 matches the measurement campaign
    bandwidth: float = 240e6
    n_freq_bins: int = 769
    snapshot_dt: float = 307.2e-6      # sounder snapshot interval
    coarse_trace_dt: float = 10e-3     # ray-tracer snapshot interval
    fine_dt: float = 100e-6            # synthesized tensor time step

    def __post_init__(self):
        _require_finite(self)
        if min(self.carrier_frequency, self.bandwidth, self.snapshot_dt,
               self.coarse_trace_dt, self.fine_dt) <= 0 or self.n_freq_bins < 1:
            raise ValueError("all SimConfig parameters must be positive")
        ratio = self.coarse_trace_dt / self.fine_dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("fine_dt must divide coarse_trace_dt exactly")

    @property
    def delay_resolution(self) -> float:
        return 1.0 / self.bandwidth

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


def _stack(paths: list[PropagationPath]) -> tuple[np.ndarray, ...]:
    """A path list as arrays: length (P,), delay (P,), amplitude (P, 2, 2),
    departure (P, 3), arrival (P, 3), rows in list order."""
    return (np.array([p.length for p in paths], dtype=float),
            np.array([p.delay for p in paths], dtype=float),
            np.array([p.amplitude for p in paths], dtype=complex).reshape(-1, 2, 2),
            np.array([p.departure for p in paths], dtype=float).reshape(-1, 3),
            np.array([p.arrival for p in paths], dtype=float).reshape(-1, 3))


def _synthesize(arrays: tuple[np.ndarray, ...], tx_array: ArrayLayout,
                rx_array: ArrayLayout, config: SimConfig,
                tx_heading: float, rx_heading: float) -> tuple[np.ndarray, int]:
    """The (M_R, M_T, n_freq_bins) slice of a path set held as :func:`_stack`
    arrays, and the number of paths dropped beyond the delay span.  Taps
    accumulate in row order, so the row order fixes the float result."""
    _, taus, amp, dep, arr = arrays
    m_r, m_t = rx_array.size, tx_array.size
    f = config.carrier_frequency
    bins = np.rint(taus * config.bandwidth).astype(int)
    keep = bins < config.n_freq_bins
    dropped = int((~keep).sum())
    if dropped:
        taus, amp, dep, arr, bins = taus[keep], amp[keep], dep[keep], arr[keep], bins[keep]
    doa = -arr                                         # (P, 3) arrival DoA
    amp = amp * np.array([[1.0], [-1.0]])              # H flip into the DoA basis
    g_tx = tx_array.element_gains(dep, tx_heading)     # (M_T, P, 2)
    g_rx = rx_array.element_gains(doa, rx_heading)     # (M_R, P, 2)
    # polarimetric coupling per (rx element, tx element, path)
    coup = np.einsum("npi,pij,mpj->nmp", np.conj(g_rx), amp, g_tx)
    # element-offset delays enter the phase only
    off_tx = tx_array.world_offsets(tx_heading)        # (M_T, 3)
    off_rx = rx_array.world_offsets(rx_heading)
    dtau_tx = (dep @ off_tx.T) / SPEED_OF_LIGHT        # (P, M_T)
    dtau_rx = (doa @ off_rx.T) / SPEED_OF_LIGHT        # (P, M_R)
    base = np.exp(-2j * math.pi * f * taus)            # (P,)
    ph_tx = np.exp(2j * math.pi * f * dtau_tx)         # (P, M_T)
    ph_rx = np.exp(2j * math.pi * f * dtau_rx)         # (P, M_R)
    vals = coup * base[None, None, :] * ph_rx.T[:, None, :] * ph_tx.T[None, :, :]
    # accumulate with one bincount over a combined (n, m, bin) index
    pair_idx = (np.arange(m_r)[:, None, None] * m_t
                + np.arange(m_t)[None, :, None]) * config.n_freq_bins
    flat_idx = (pair_idx + bins[None, None, :]).ravel()
    flat_vals = vals.ravel()
    size = m_r * m_t * config.n_freq_bins
    acc = (np.bincount(flat_idx, weights=flat_vals.real, minlength=size)
           + 1j * np.bincount(flat_idx, weights=flat_vals.imag, minlength=size))
    return acc.reshape(m_r, m_t, config.n_freq_bins), dropped


def synthesize_cir(paths: list[PropagationPath], tx_array: ArrayLayout,
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
    slice_, dropped = _synthesize(_stack(paths), tx_array, rx_array, config,
                                  tx_heading, rx_heading)
    if dropped:
        warnings.warn(f"{dropped} path(s) beyond the unambiguous delay span "
                      f"{config.max_delay * 1e6:.2f} us dropped", RuntimeWarning, stacklevel=2)
    return slice_


def _match_paths(a: list[PropagationPath], b: list[PropagationPath]):
    """Pair paths between adjacent snapshots by :meth:`PropagationPath.match_key`.

    Within a key the k-th shortest-delay a-path pairs with the k-th
    shortest-delay b-path.  Leftover a-paths are held until the boundary;
    leftover b-paths are born there.  The tracer emits each key at most once
    per snapshot, so there a key pairs one path with one.  Returns (pairs,
    only_a): the matched (a, b) pairs and the held a-paths, both in sorted
    key order, which fixes the row order and so the float result of
    synthesis.
    """
    groups = defaultdict(lambda: ([], []))
    for side, paths in enumerate((a, b)):
        for p in paths:
            groups[p.match_key()][side].append(p)
    pairs, only_a = [], []
    for key in sorted(groups, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2])):
        la, lb = (sorted(g, key=lambda p: p.delay) for g in groups[key])
        pairs.extend(zip(la, lb))
        only_a.extend(la[len(lb):])
    return pairs, only_a


class PathInterpolator:
    """Evaluate the traced path set at arbitrary times between snapshots.

    Each coarse interval is matched once and held as :func:`_stack` arrays
    (matched pairs at both ends, then the paths held until the interval's
    end).  Only the interval last evaluated is kept; going back rematches.
    Interpolated :meth:`paths_at` paths keep the start's interaction points.
    """

    def __init__(self, coarse: list[tuple[float, list[PropagationPath]]]):
        if len(coarse) < 1:
            raise ValueError("need at least one coarse snapshot")
        self.times = np.array([t for t, _ in coarse])
        self.snapshots = [paths for _, paths in coarse]
        if len(self.times) > 1:
            dt = np.diff(self.times)
            if np.any(dt <= 0) or (dt.max() - dt.min()) > 1e-9:
                raise ValueError("coarse snapshots must be uniformly spaced in time")
            self.dt = float(dt[0])
        else:
            self.dt = 0.0
        self._current: tuple = (None,)

    def _locate(self, t: float) -> tuple[int, float]:
        """(i, u): t lies at fraction u of interval i.  u == 1.0 means the
        path set is snapshot i + 1's (i == -1 for a single snapshot)."""
        if len(self.times) == 1:
            return -1, 1.0
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise ValueError(f"time {t} outside the traced span")
        i = min(int(np.searchsorted(self.times, t, side="right")) - 1, len(self.times) - 2)
        i = max(i, 0)
        u = (t - self.times[i]) / self.dt
        return i, min(max(u, 0.0), 1.0)

    def arrays_at(self, t: float) -> tuple[np.ndarray, ...]:
        """The :meth:`paths_at` path set as :func:`_stack` arrays, same row
        order.  Inside an interval the next call overwrites them."""
        i, u = self._locate(t)
        if u == 1.0:
            return _stack(self.snapshots[i + 1])
        if self._current[0] != i:
            pairs, held = _match_paths(self.snapshots[i], self.snapshots[i + 1])
            lead = [pa for pa, _ in pairs]
            a, b = _stack(lead), _stack([pb for _, pb in pairs])
            # rows [:n] are the lerped pairs, rows [n:] the held paths
            now = tuple(np.concatenate(x) for x in zip(a, _stack(held)))
            self._current = (i, lead, held, a, b, now)
        _, lead, _, a, b, now = self._current
        n, w = len(lead), 1.0 - u
        for x, xa, xb in zip(now, a, b):
            x[:n] = w * xa + u * xb
        now[1][:n] = now[0][:n] / SPEED_OF_LIGHT      # delay from the lerped length
        for x, xa in zip(now[3:], a[3:]):               # unit directions; 0 keeps the start
            norm = np.linalg.norm(x[:n], axis=-1, keepdims=True)
            x[:n] = np.divide(x[:n], norm, out=xa.copy(), where=norm > 0)
        return now

    def paths_at(self, t: float) -> list[PropagationPath]:
        i, u = self._locate(t)
        if u == 1.0:
            return list(self.snapshots[i + 1])
        length, delay, amp, dep, arr = self.arrays_at(t)
        _, lead, held = self._current[:3]
        return [replace(p, length=float(length[k]), delay=float(delay[k]), amplitude=amp[k].copy(),
                        departure=dep[k].copy(), arrival=arr[k].copy())
                for k, p in enumerate(lead)] + held


def interpolate_snapshots(coarse: list[tuple[float, list[PropagationPath]]],
                          fine_dt: float) -> list[tuple[float, list[PropagationPath]]]:
    """Resample coarse (t, paths) snapshots onto a fine uniform grid."""
    interp = PathInterpolator(coarse)
    if len(interp.times) > 1:
        ratio = interp.dt / fine_dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("fine_dt must divide the coarse spacing exactly")
    t0, t1 = interp.times[0], interp.times[-1]
    n = int(round((t1 - t0) / fine_dt)) + 1 if len(interp.times) > 1 else 1
    out = []
    for k in range(n):
        t = t0 + k * fine_dt
        out.append((t, interp.paths_at(t)))
    return out


def synthesize_tensor(interp: PathInterpolator | list, tx_array: ArrayLayout,
                      rx_array: ArrayLayout, config: SimConfig,
                      times: np.ndarray | None = None,
                      tx_heading=None, rx_heading=None) -> ChannelTensor:
    """Delay-domain tensor over a fine time grid.

    ``interp`` is a PathInterpolator or a coarse (t, paths) list.  Headings
    may be callables of t or constants (radians).  The default time grid
    runs from the first traced snapshot in steps of ``config.fine_dt``,
    duration / fine_dt samples in total.  Steps are synthesized one at a
    time from the interpolator's arrays; paths dropped beyond the delay span
    are summed over all steps into one warning.
    """
    if not isinstance(interp, PathInterpolator):
        interp = PathInterpolator(interp)
    if times is None:
        span = interp.times[-1] - interp.times[0]
        n = max(1, int(round(span / config.fine_dt)))
        times = interp.times[0] + np.arange(n) * config.fine_dt
        dt = config.fine_dt   # so time_axis rebuilds exactly this grid
    else:
        times = np.asarray(times, dtype=float)
        dt = float(times[1] - times[0]) if len(times) > 1 else config.fine_dt

    def heading_at(h, t):
        return h(t) if callable(h) else float(h or 0.0)

    data = np.empty((len(times), rx_array.size, tx_array.size, config.n_freq_bins),
                    dtype=complex)
    dropped = 0
    for k, t in enumerate(times):
        data[k], n_dropped = _synthesize(interp.arrays_at(t), tx_array, rx_array, config,
                                         heading_at(tx_heading, t), heading_at(rx_heading, t))
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


def cir_to_ctf(tensor: ChannelTensor) -> ChannelTensor:
    """Delay -> frequency via an unnormalized forward DFT along the bin axis.

    The resulting bin axis is fftshifted so frequencies increase and the
    carrier sits at index n_bins // 2.
    """
    if tensor.domain != "delay":
        raise ValueError("cir_to_ctf expects a delay-domain tensor")
    h = np.fft.fftshift(np.fft.fft(tensor.data, axis=-1), axes=-1)
    n = tensor.n_bins
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
    data = np.fft.ifft(np.fft.ifftshift(tensor.data * w, axes=-1), axis=-1)
    db = 1.0 / (n * tensor.dbin)
    return ChannelTensor(domain="delay", data=data, t0=tensor.t0, dt=tensor.dt,
                         bin0=0.0, dbin=db,
                         carrier_frequency=tensor.carrier_frequency)


def add_measurement_noise(tensor: ChannelTensor, noise_power_per_bin: float,
                          seed: int) -> ChannelTensor:
    """Add circularly symmetric complex Gaussian noise, deterministic per seed."""
    if noise_power_per_bin < 0:
        raise ValueError("noise power must be >= 0")
    if noise_power_per_bin == 0:
        return replace(tensor, data=tensor.data.copy())
    rng = np.random.default_rng(seed)
    scale = math.sqrt(noise_power_per_bin / 2.0)
    data = tensor.data.astype(complex)  # the one copy; noise is added in place
    data.real += scale * rng.standard_normal(data.shape)
    data.imag += scale * rng.standard_normal(data.shape)
    return replace(tensor, data=data)


_HEADER_FMT = "<4sB B I I I I d d d d d"  # magic, version, domain, M_R, M_T, N_t, N_b, t0, dt, bin0, dbin, f_c


def save_tensor(tensor: ChannelTensor, path) -> None:
    """Write the binary tensor format (little-endian, complex64 payload)."""
    dom = 0 if tensor.domain == "delay" else 1
    header = struct.pack(_HEADER_FMT, TENSOR_MAGIC, TENSOR_VERSION, dom,
                         tensor.m_rx, tensor.m_tx, tensor.n_time, tensor.n_bins,
                         tensor.t0, tensor.dt, tensor.bin0, tensor.dbin,
                         tensor.carrier_frequency)
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(tensor.data.astype(np.complex64)).tobytes())


def load_tensor(path) -> ChannelTensor:
    """Read the binary tensor format; any malformed file raises TensorFormatError."""
    with open(path, "rb") as f:
        raw = f.read(struct.calcsize(_HEADER_FMT))
        if len(raw) < struct.calcsize(_HEADER_FMT):
            raise TensorFormatError(f"{path}: truncated header")
        magic, version, dom, m_r, m_t, n_t, n_b, t0, dt, bin0, dbin, fc = struct.unpack(
            _HEADER_FMT, raw)
        if magic != TENSOR_MAGIC:
            raise TensorFormatError(f"{path}: bad magic {magic!r}")
        if version != TENSOR_VERSION:
            raise TensorFormatError(f"{path}: unsupported version {version}")
        payload = f.read()
    expected = n_t * m_r * m_t * n_b
    if len(payload) != 8 * expected:
        raise TensorFormatError(f"{path}: payload has {len(payload)} bytes, "
                                f"expected {expected} complex64 values")
    try:
        data = np.frombuffer(payload, dtype=np.complex64).reshape(n_t, m_r, m_t, n_b)
        return ChannelTensor(domain={0: "delay", 1: "frequency"}.get(dom, dom),
                             data=data.astype(complex), t0=t0, dt=dt, bin0=bin0,
                             dbin=dbin, carrier_frequency=fc)
    except ValueError as e:
        raise TensorFormatError(f"{path}: {e}") from e
