"""Channel metrics: APDP, gain, delay/Doppler spreads, eigenvalues, correlations.

All metrics slide a window of ``n_avg`` tensor time steps with a configurable
stride (default non-overlapping).  Window timestamps are the window centers.
Undefined values (all-zero windows, fully skipped correlation windows) are
emitted as NaN in memory and as empty fields in CSV exports, never as 0, so
they cannot contaminate error statistics downstream.  A linear 0 in dB
columns exports as the -400 dB floor sentinel.

Measurement emulation: :func:`estimate_noise_floor` estimates the per-bin
noise level from the signal-free region of a profile and
:func:`apply_noise_threshold` zeroes every bin below that level plus 3 dB,
the same processing applied to the sounder data before gain and spread
computation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelTensor

DB_FLOOR_SENTINEL = -400.0
DEFAULT_N_AVG = 185  # 57 ms / 307.2 us, about ten wavelengths of travel at 10 m/s


class SeriesFormatError(ValueError):
    """A metric or label CSV file is malformed (see :func:`series_from_csv`
    and :func:`compare.load_labels`)."""


@dataclass
class Apdp:
    """Averaged power delay profile per sliding window (linear power)."""

    values: np.ndarray   # (n_windows, n_delay_bins), >= 0
    times: np.ndarray    # (n_windows,) window-center seconds
    bins: np.ndarray     # (n_delay_bins,) delay bin centers, seconds
    n_avg: int
    stride: int


@dataclass
class Dsd:
    """Doppler spectral density per sliding window (linear power)."""

    values: np.ndarray   # (n_windows, n_doppler_bins)
    times: np.ndarray
    bins: np.ndarray     # (n_doppler_bins,) Doppler frequencies, Hz, increasing
    n_avg: int
    stride: int


@dataclass
class MetricSeries:
    """Time series of one channel metric; NaN marks undefined windows."""

    kind: str
    times: np.ndarray
    values: np.ndarray             # (n_windows,) or (n_windows, k)
    unit: str = ""
    labels: tuple[str, ...] = ()   # column names when values is 2-D


def _window_starts(n_time: int, n_avg: int, stride: int) -> np.ndarray:
    if n_avg < 1:
        raise ValueError("n_avg must be >= 1")
    if n_avg > n_time:
        raise ValueError(f"n_avg={n_avg} exceeds the {n_time} available time steps")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    n_win = (n_time - n_avg) // stride + 1
    return np.arange(n_win) * stride


def _window_times(tensor: ChannelTensor, starts: np.ndarray, n_avg: int) -> np.ndarray:
    return tensor.t0 + (starts + (n_avg - 1) / 2.0) * tensor.dt


def compute_apdp(tensor: ChannelTensor, n_avg: int = DEFAULT_N_AVG,
                 stride: int | None = None) -> Apdp:
    """Mean |h|^2 over each window and over all antenna pairs, per delay bin."""
    if tensor.domain != "delay":
        raise ValueError("compute_apdp expects a delay-domain tensor")
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    power = np.abs(tensor.data) ** 2
    vals = np.empty((len(starts), tensor.n_bins))
    for k, s in enumerate(starts):
        vals[k] = power[s:s + n_avg].mean(axis=(0, 1, 2))
    return Apdp(values=vals, times=_window_times(tensor, starts, n_avg),
                bins=tensor.bin_axis.copy(), n_avg=n_avg, stride=stride)


def _lowest_decile_mean(region: np.ndarray) -> float:
    """Mean of the lowest-decile nonzero values of ``region``; 0 when all are zero."""
    nz = region[region > 0]
    if nz.size == 0:
        return 0.0
    nz = np.sort(nz)
    k = max(1, int(math.ceil(0.1 * nz.size)))
    return float(nz[:k].mean())


def estimate_noise_floor(apdp: Apdp) -> float:
    """Noise level from the signal-free region of the APDP.

    Uses the mean of the lowest-decile nonzero bins across the largest-delay
    quarter of the delay axis.  Returns 0 when that region is entirely zero.
    """
    if apdp.values.shape[1] < 32:
        raise ValueError("noise-floor estimation needs >= 32 delay bins")
    return _lowest_decile_mean(apdp.values[:, 3 * apdp.values.shape[1] // 4:])


def estimate_noise_floor_dsd(dsd: Dsd) -> float:
    """Noise level from the outer eighth at each end of the Doppler axis (the
    largest |Doppler|), estimated as :func:`estimate_noise_floor` does.  With
    fewer than 8 bins those edges would be empty or the whole spectrum."""
    n = dsd.values.shape[1]
    if n < 8:
        raise ValueError("noise-floor estimation needs >= 8 Doppler bins")
    return _lowest_decile_mean(
        np.concatenate([dsd.values[:, :n // 8], dsd.values[:, -(n // 8):]], axis=1))


def apply_noise_threshold(profile, noise_floor: float):
    """Zero every bin below noise_floor + 3 dB; works on Apdp and Dsd alike."""
    if noise_floor < 0:
        raise ValueError("noise floor must be >= 0")
    thr = noise_floor * 10.0 ** 0.3
    vals = np.where(profile.values >= thr, profile.values, 0.0)
    return replace(profile, values=vals)


def channel_gain(apdp: Apdp) -> MetricSeries:
    """Per-window sum over delay bins, in dB (-inf for all-zero windows)."""
    total = apdp.values.sum(axis=1)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(total)
    return MetricSeries(kind="gain", times=apdp.times.copy(), values=db, unit="dB")


def _central_spread(values: np.ndarray, axis_bins: np.ndarray) -> np.ndarray:
    """Root second central moment per window; NaN where undefined."""
    out = np.full(values.shape[0], np.nan)
    for k in range(values.shape[0]):
        p = values[k]
        nz = p > 0
        n_nz = int(nz.sum())
        if n_nz == 0:
            continue
        if n_nz == 1:
            out[k] = 0.0  # a single component has exactly zero spread
            continue
        total = p.sum()
        mean = (p @ axis_bins) / total
        var = (p @ ((axis_bins - mean) ** 2)) / total
        out[k] = math.sqrt(max(var, 0.0))
    return out


def rms_delay_spread(apdp: Apdp) -> MetricSeries:
    """Normalized second-order central moment of the APDP, in seconds."""
    vals = _central_spread(apdp.values, apdp.bins)
    return MetricSeries(kind="delay_spread", times=apdp.times.copy(), values=vals, unit="s")


def compute_dsd(tensor: ChannelTensor, n_avg: int = DEFAULT_N_AVG,
                stride: int | None = None) -> Dsd:
    """Doppler spectral density: windowed time-DFT, averaged over delay bins
    and antenna pairs, Doppler axis centered (fftshift)."""
    if tensor.domain != "delay":
        raise ValueError("compute_dsd expects a delay-domain tensor")
    if n_avg < 2:
        raise ValueError("n_avg must be >= 2 for a Doppler transform")
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    vals = np.empty((len(starts), n_avg))
    for k, s in enumerate(starts):
        block = tensor.data[s:s + n_avg]                       # (n_avg, MR, MT, nb)
        spec = np.fft.fftshift(np.fft.fft(block, axis=0), axes=0)
        vals[k] = (np.abs(spec) ** 2).mean(axis=(1, 2, 3))
    doppler = np.fft.fftshift(np.fft.fftfreq(n_avg, d=tensor.dt))
    return Dsd(values=vals, times=_window_times(tensor, starts, n_avg),
               bins=doppler, n_avg=n_avg, stride=stride)


def rms_doppler_spread(dsd: Dsd) -> MetricSeries:
    """Normalized second-order central moment of the DSD, in Hz."""
    vals = _central_spread(dsd.values, dsd.bins)
    return MetricSeries(kind="doppler_spread", times=dsd.times.copy(), values=vals, unit="Hz")


def eigenvalue_series(tensor: ChannelTensor, n_avg: int = DEFAULT_N_AVG,
                      stride: int | None = None) -> MetricSeries:
    """Eigenvalues of the window-averaged H H^H of the normalized channel.

    Per window the (time, frequency) channel matrices are scaled so the
    window-average squared Frobenius norm equals min(M_R, M_T); the
    eigenvalues of the window-averaged H H^H then sum to that constant, and
    an identity channel reports 0 dB on every eigenvalue.  The window sum of
    H H^H over frequency bins is the Gram matrix X_t X_t^H of each time
    step's M_R x (M_T * n_bins) block, so it is one batched matmul per
    window, summed over the window's time steps.  Values in dB, sorted
    descending; all-zero windows yield NaN.
    """
    if tensor.domain != "frequency":
        raise ValueError("eigenvalue_series expects a frequency-domain tensor")
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    m_min = min(tensor.m_rx, tensor.m_tx)
    n_mat = n_avg * tensor.n_bins                  # channel matrices per window
    vals = np.full((len(starts), m_min), np.nan)
    for k, s in enumerate(starts):
        x = tensor.data[s:s + n_avg].reshape(n_avg, tensor.m_rx, -1)   # a view when C-ordered
        gram = (x @ np.conj(x).transpose(0, 2, 1)).sum(axis=0)
        mean_fro2 = float(np.trace(gram).real) / n_mat
        if mean_fro2 == 0.0:
            continue
        r = (m_min / mean_fro2) * gram / n_mat
        lam = np.linalg.eigvalsh(r)[::-1][:m_min]
        lam = np.maximum(lam, 0.0)
        lam[lam < lam.max() * 1e-12] = 0.0  # numerical zeros -> -inf dB sentinel
        with np.errstate(divide="ignore"):
            vals[k] = 10.0 * np.log10(lam)
    labels = tuple(f"lambda_{i + 1}" for i in range(m_min))
    return MetricSeries(kind="eigenvalues", times=_window_times(tensor, starts, n_avg),
                        values=vals, unit="dB", labels=labels)


def _end_elements(tensor: ChannelTensor, end: str) -> tuple[str, int]:
    """Lower-cased ``end`` and its element count; ValueError when invalid."""
    if tensor.domain != "frequency":
        raise ValueError("antenna correlation expects a frequency-domain tensor")
    end = end.lower()
    if end not in ("tx", "rx"):
        raise ValueError("end must be 'tx' or 'rx'")
    return end, tensor.m_tx if end == "tx" else tensor.m_rx


def _element(tensor: ChannelTensor, end: str, i: int) -> np.ndarray:
    """(n_time, opposite-end elements, n_bins) samples of element ``i``."""
    return tensor.data[:, i, :, :] if end == "rx" else tensor.data[:, :, i, :]


def _element_power(tensor: ChannelTensor, end: str, i: int) -> np.ndarray:
    """(n_time, n_bins) power of element ``i`` summed over the opposite end."""
    return (np.abs(_element(tensor, end, i)) ** 2).sum(axis=1)


def _pair_correlation(tensor: ChannelTensor, end: str, i: int, j: int, p_i: np.ndarray,
                      p_j: np.ndarray, starts: np.ndarray, n_avg: int) -> np.ndarray:
    """Complex window correlation of elements ``i`` and ``j`` with powers
    ``p_i`` and ``p_j``; NaN where every sample of a window is skipped."""
    a, b = _element(tensor, end, i), _element(tensor, end, j)
    num_t = ((a * np.conj(b)) if end == "rx" else (np.conj(a) * b)).sum(axis=1)
    den_t = np.sqrt(p_i * p_j)
    vals = np.full(len(starts), np.nan, dtype=complex)
    for k, s in enumerate(starts):
        num = num_t[s:s + n_avg]
        den = den_t[s:s + n_avg]
        ok = den > 0
        if not ok.any():
            continue
        vals[k] = (num[ok] / den[ok]).sum() / ok.sum()
    return vals


def antenna_correlation(tensor: ChannelTensor, end: str, i: int, j: int,
                        n_avg: int = DEFAULT_N_AVG, stride: int | None = None,
                        complex_values: bool = False) -> MetricSeries:
    """Time-variant correlation between two same-end antenna elements.

    Per (time, frequency) sample the correlation sums products over the
    opposite end's elements, normalized by the geometric mean of the two
    element powers; samples where either element has zero power are skipped.
    The window value is the accumulated sum divided by the number of
    accumulated samples, so its magnitude stays in [0, 1].  Element indices
    are 0-based.
    """
    end, n_el = _end_elements(tensor, end)
    if i == j:
        raise ValueError("element indices must differ")
    if not (0 <= i < n_el and 0 <= j < n_el):
        raise ValueError("element index out of range")
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    vals = _pair_correlation(tensor, end, i, j, _element_power(tensor, end, i),
                             _element_power(tensor, end, j), starts, n_avg)
    return MetricSeries(kind=f"correlation_{end}", times=_window_times(tensor, starts, n_avg),
                        values=vals if complex_values else np.abs(vals), unit="",
                        labels=(f"rho_{i + 1}{j + 1}",))


def correlation_matrix_series(tensor: ChannelTensor, end: str,
                              n_avg: int = DEFAULT_N_AVG,
                              stride: int | None = None) -> MetricSeries:
    """|rho| for every element pair of one end, one column per pair; each
    element's power is computed once and shared by its pairs."""
    end, n_el = _end_elements(tensor, end)
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    power = [_element_power(tensor, end, i) for i in range(n_el)]
    pairs = [(i, j) for i in range(n_el) for j in range(i + 1, n_el)]
    cols = [np.abs(_pair_correlation(tensor, end, i, j, power[i], power[j], starts, n_avg))
            for i, j in pairs]
    return MetricSeries(kind=f"correlation_{end}", times=_window_times(tensor, starts, n_avg),
                        values=np.column_stack(cols), unit="",
                        labels=tuple(f"rho_{i + 1}{j + 1}" for i, j in pairs))


def _format_value(v: float, db_column: bool) -> str:
    if np.isnan(v):
        return ""
    if db_column and np.isneginf(v):
        return repr(DB_FLOOR_SENTINEL)
    return repr(float(v))


def series_to_csv(series: MetricSeries, path) -> None:
    """Write ``t_s,value`` (or one column per label); missing values empty."""
    db = series.unit == "dB"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        if series.values.ndim == 1:
            w.writerow(["t_s", series.labels[0] if series.labels else "value"])
            for t, v in zip(series.times, series.values):
                w.writerow([repr(float(t)), _format_value(v, db)])
        else:
            w.writerow(["t_s", *series.labels])
            for t, row in zip(series.times, series.values):
                w.writerow([repr(float(t))] + [_format_value(v, db) for v in row])


def _read_timed_csv(path) -> tuple[list[str], np.ndarray, list[tuple[int, list[str]]]]:
    """The header, the first-column times and the (line, other cells) of
    every row of a CSV time table; blank lines are skipped.

    The file must be UTF-8 text with a header of at least two fields, one or
    more rows as long as the header, and times that are finite and strictly
    increasing (the nearest-window lookups bisect them); anything else
    raises SeriesFormatError.
    """
    header, times, rows = None, [], []
    try:
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            for row in reader:
                if not row:
                    continue
                if header is None:
                    header = row
                    continue
                where = f"{path}:{reader.line_num}"
                if len(row) != len(header):
                    raise SeriesFormatError(
                        f"{where}: {len(row)} fields, the header has {len(header)}")
                try:
                    times.append(float(row[0]))
                except ValueError as e:
                    raise SeriesFormatError(f"{where}: {e}") from e
                rows.append((reader.line_num, row[1:]))
    except UnicodeDecodeError as e:
        raise SeriesFormatError(f"{path}: not UTF-8 text: {e}") from e
    except csv.Error as e:
        raise SeriesFormatError(f"{path}: {e}") from e
    if header is None or len(header) < 2:
        raise SeriesFormatError(f"{path}: expected a header with a time and a value column")
    if not rows:
        raise SeriesFormatError(f"{path}: no rows after the header")
    times = np.asarray(times)
    if not np.isfinite(times).all() or np.any(np.diff(times) <= 0):
        raise SeriesFormatError(f"{path}: times must be finite and strictly increasing")
    return header, times, rows


def series_from_csv(path, kind: str = "", unit: str = "") -> MetricSeries:
    """Read a :func:`series_to_csv` file; empty fields read as NaN.  A
    malformed file raises SeriesFormatError."""
    header, times, rows = _read_timed_csv(path)
    vals = []
    for line, cells in rows:
        try:
            vals.append([float(c) if c.strip() else np.nan for c in cells])
        except ValueError as e:
            raise SeriesFormatError(f"{path}:{line}: {e}") from e
    vals = np.asarray(vals)
    if vals.shape[1] == 1:
        vals = vals[:, 0]
    return MetricSeries(kind=kind, times=times, values=vals,
                        unit=unit, labels=tuple(header[1:]) if vals.ndim == 2 else ())


def profile_to_csv(profile, path) -> None:
    """Heat-map grid export for Apdp/Dsd: first row bin axis, then one row
    ``t_s,<power per bin>`` per window."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t_s\\bin", *[repr(float(b)) for b in profile.bins]])
        for t, row in zip(profile.times, profile.values):
            w.writerow([repr(float(t))] + [repr(float(v)) for v in row])
