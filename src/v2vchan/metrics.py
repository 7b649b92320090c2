"""Channel metrics: APDP, gain, delay/Doppler spreads, eigenvalues, correlations.

All metrics slide a window of ``n_avg`` tensor time steps with a configurable
stride (default non-overlapping).  Window timestamps are the window centers.
Undefined values (all-zero windows, fully skipped correlation windows) are
emitted as NaN in memory and as empty fields in CSV exports, never as 0, so
they cannot contaminate error statistics downstream.  A linear 0 in dB
columns exports as the -400 dB floor sentinel.

The eigenvalues and antenna correlations are frequency-domain metrics.
One per-step kernel computes every value they need from a chunk of CTF
rows: the Gram matrices for the eigenvalues, and each element's power and
each pair's per-bin ratio and its validity for the correlations.  One
sliding pass feeds it: :func:`frequency_metrics` transforms each chunk of a
delay tensor once and never holds the CTF, while
:func:`eigenvalue_series`, :func:`correlation_matrix_series` and
:func:`antenna_correlation` read the rows of a frequency-domain tensor.
Both routes give the same bits, since a step's values depend only on its
own row.

The APDP, the DSD and that sliding pass compute in chunks of
``channel._CHUNK_VALUES`` values (time rows, or the DSD's window columns)
through :func:`channel._each_chunk`: a pass larger than one chunk is cut
into half-size chunks that the calling thread and one helper thread take in
turn, numpy's FFTs and ufunc loops releasing the GIL, so at most one chunk
is in flight; a pass that fits one chunk starts no thread.  No option sets
this, and since every value depends only on its own row or column, the
output does not depend on the split.

Measurement emulation: :func:`estimate_noise_floor` estimates the per-bin
noise level from the signal-free region of a profile and
:func:`apply_noise_threshold` zeroes every bin below that level plus 3 dB,
the same processing applied to the sounder data before gain and spread
computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelTensor, _ctf_rows, _each_chunk, _upcast
from .scene import _read_table, _write_table

DB_FLOOR_SENTINEL = -400.0
DEFAULT_N_AVG = 185  # 57 ms / 307.2 us, about ten wavelengths of travel at 10 m/s
#: Fewest delay bins (APDP) and Doppler bins (DSD, = n_avg) the noise-floor
#: estimators accept.
_FLOOR_MIN_BINS, _FLOOR_MIN_DOPPLER_BINS = 32, 8


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


def _sliding(data: np.ndarray, starts: np.ndarray, n_avg: int, bufs: tuple, step):
    """Yield the index of each window once ``bufs``, arrays of ``n_avg``
    rows, hold its per-step values in time order.

    ``step(a, b)`` returns the values of time steps [a, b), one array per
    buffer; it is called on time chunks of ``data`` by
    :func:`channel._each_chunk`, so possibly on two threads at once, each
    call writing only its own rows of the buffers.  Steps shared with the
    previous window are moved up (one flat, forward, overlapping copy), not
    computed again.
    """
    end = 0  # one past the last step the buffers hold
    for k, s in enumerate(starts):
        keep = max(0, end - s)
        for buf in bufs:
            flat, row = buf.reshape(-1), buf[0].size
            flat[:keep * row] = flat[(n_avg - keep) * row:]

        def fill(a, b):
            for buf, values in zip(bufs, step(a, b)):
                buf[a - s:b - s] = values
        _each_chunk(fill, data, s + keep, s + n_avg)
        end = s + n_avg
        yield k


def compute_apdp(tensor: ChannelTensor, n_avg: int = DEFAULT_N_AVG,
                 stride: int | None = None) -> Apdp:
    """Mean |h|^2 over each window and over all antenna pairs, per delay bin."""
    if tensor.domain != "delay":
        raise ValueError("compute_apdp expects a delay-domain tensor")
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    data = tensor.data
    power = np.empty((n_avg,) + data.shape[1:])   # |h|^2 of one window
    vals = np.empty((len(starts), tensor.n_bins))
    for k in _sliding(data, starts, n_avg, (power,),
                      lambda a, b: (np.abs(_upcast(data[a:b])) ** 2,)):
        vals[k] = power.mean(axis=(0, 1, 2))
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
    if apdp.values.shape[1] < _FLOOR_MIN_BINS:
        raise ValueError(f"noise-floor estimation needs >= {_FLOOR_MIN_BINS} delay bins")
    return _lowest_decile_mean(apdp.values[:, 3 * apdp.values.shape[1] // 4:])


def estimate_noise_floor_dsd(dsd: Dsd) -> float:
    """Noise level from the outer eighth at each end of the Doppler axis (the
    largest |Doppler|), estimated as :func:`estimate_noise_floor` does.  With
    fewer than 8 bins those edges would be empty or the whole spectrum."""
    n = dsd.values.shape[1]
    if n < _FLOOR_MIN_DOPPLER_BINS:
        raise ValueError(f"noise-floor estimation needs >= {_FLOOR_MIN_DOPPLER_BINS} Doppler bins")
    return _lowest_decile_mean(
        np.concatenate([dsd.values[:, :n // 8], dsd.values[:, -(n // 8):]], axis=1))


def apply_noise_threshold(profile, noise_floor: float):
    """Zero every bin below noise_floor + 3 dB; works on Apdp and Dsd alike.
    The floor must be finite and >= 0."""
    if not 0 <= noise_floor < math.inf:
        raise ValueError(f"noise floor must be finite and >= 0, not {noise_floor}")
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
    and antenna pairs, Doppler axis centered (fftshift).

    Each window is transformed in blocks of its (rx, tx, bin) columns, each
    block copied transposed so every DFT reads contiguous samples; the
    powers land in one window-sized array laid out as the whole-window
    transform's, and the shift is applied to the averaged vector.
    """
    if tensor.domain != "delay":
        raise ValueError("compute_dsd expects a delay-domain tensor")
    if n_avg < 2:
        raise ValueError("n_avg must be >= 2 for a Doppler transform")
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    n_cols = tensor.data[0].size
    power = np.empty((n_avg, n_cols))       # |DFT|^2 of one window, (Doppler, column)
    vals = np.empty((len(starts), n_avg))
    for k, s in enumerate(starts):
        block = tensor.data[s:s + n_avg].reshape(n_avg, n_cols).T   # a view when C-ordered

        def fill(a, b):
            cols = np.array(block[a:b], dtype=complex, order="C")
            power[:, a:b] = (np.abs(np.fft.fft(cols, axis=-1)) ** 2).T
        _each_chunk(fill, block)
        vals[k] = np.fft.fftshift(power.mean(axis=1))
    doppler = np.fft.fftshift(np.fft.fftfreq(n_avg, d=tensor.dt))
    return Dsd(values=vals, times=_window_times(tensor, starts, n_avg),
               bins=doppler, n_avg=n_avg, stride=stride)


def rms_doppler_spread(dsd: Dsd) -> MetricSeries:
    """Normalized second-order central moment of the DSD, in Hz."""
    vals = _central_spread(dsd.values, dsd.bins)
    return MetricSeries(kind="doppler_spread", times=dsd.times.copy(), values=vals, unit="Hz")


def _element(chunk: np.ndarray, end: str, i: int) -> np.ndarray:
    """(rows, opposite-end elements, n_bins) samples of element ``i`` in a
    chunk of whole time rows."""
    return chunk[:, i, :, :] if end == "rx" else chunk[:, :, i, :]


def _pairs(n_el: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n_el) for j in range(i + 1, n_el)]


def _step_values(x: np.ndarray, gram: bool, ends) -> list[np.ndarray]:
    """Per-step values of the frequency-domain metrics for the CTF rows
    ``x``, (rows, M_R, M_T, n_bins) complex128 in C order.

    With ``gram`` set, first the Gram matrices X_t X_t^H, X_t being step
    t's M_R x (M_T * n_bins) block, as one batched product.  Then for each
    ``(end, pairs)`` of ``ends`` the (rows, pairs, n_bins) per-bin ratio of
    each pair's product, summed over the opposite end, to the geometric mean
    of the two element powers, and where that mean is nonzero (a ratio is
    read only there).  Each product is computed as ``conj(.) *= other``, the
    form numpy gives a whole-tensor ``a * np.conj(b)`` or ``np.conj(a) * b``
    of 256 KiB or more (it reuses the temporary and puts it first); with
    fused multiply-adds the complex product rounds differently in that
    form.  Every value of a step depends only on that step's row.
    """
    out = []
    if gram:
        g = x.reshape(len(x), x.shape[1], -1)
        out.append(g @ np.conj(g).transpose(0, 2, 1))
    for end, pairs in ends:
        power = {i: (np.abs(_element(x, end, i)) ** 2).sum(axis=1)
                 for i in {i for pair in pairs for i in pair}}
        ratio = np.empty((len(x), len(pairs), x.shape[-1]), dtype=complex)
        ok = np.empty(ratio.shape, dtype=bool)
        for p, (i, j) in enumerate(pairs):
            xi, xj = _element(x, end, i), _element(x, end, j)
            prod, other = (np.conj(xj), xi) if end == "rx" else (np.conj(xi), xj)
            num = np.multiply(prod, other, out=prod).sum(axis=1)
            den = np.sqrt(power[i] * power[j])
            nonzero = den > 0
            ratio[:, p] = np.divide(num, den, out=num, where=nonzero)
            ok[:, p] = nonzero
        out += [ratio, ok]
    return out


def _frequency_series(tensor: ChannelTensor, n_avg: int, stride: int | None, gram: bool,
                      ends, magnitudes: bool = True) -> list[MetricSeries]:
    """Series of the frequency-domain metrics from one sliding pass of
    :func:`_step_values` over the CTF rows of ``tensor``: a delay-domain
    tensor's rows are transformed chunk by chunk (:func:`channel._ctf_rows`),
    a frequency-domain tensor's are read as they are.

    Gives the eigenvalue series when ``gram`` is set (a window sums its
    steps' Gram matrices), then per ``(end, pairs)`` of ``ends`` one column
    per pair of the correlation, |rho| when ``magnitudes`` is set (a window
    averages a pair's ratios where its ``ok`` is set, NaN where none is).
    An end of one element has no pairs, and its values are (windows, 0).
    """
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    data, rows = tensor.data, _ctf_rows if tensor.domain == "delay" else _upcast
    m_min, n_mat = min(tensor.m_rx, tensor.m_tx), n_avg * tensor.n_bins
    bufs = [np.empty((n_avg, tensor.m_rx, tensor.m_rx), dtype=complex)] if gram else []
    for _, pairs in ends:
        shape = (n_avg, len(pairs), tensor.n_bins)
        bufs += [np.empty(shape, dtype=complex), np.empty(shape, dtype=bool)]
    eig = np.full((len(starts), m_min), np.nan)
    corr = [np.full((len(pairs), len(starts)), np.nan, dtype=complex) for _, pairs in ends]
    for k in _sliding(data, starts, n_avg, bufs,
                      lambda a, b: _step_values(rows(data[a:b]), gram, ends)):
        if gram:
            total = bufs[0].sum(axis=0)
            mean_fro2 = float(np.trace(total).real) / n_mat
        if gram and mean_fro2 != 0.0:
            r = (m_min / mean_fro2) * total / n_mat
            lam = np.linalg.eigvalsh(r)[::-1][:m_min]
            lam = np.maximum(lam, 0.0)
            lam[lam < lam.max() * 1e-12] = 0.0  # numerical zeros -> -inf dB sentinel
            with np.errstate(divide="ignore"):
                eig[k] = 10.0 * np.log10(lam)
        for vals, ratio, ok in zip(corr, bufs[gram::2], bufs[gram + 1::2]):
            for p in range(len(vals)):
                if ok[:, p].any():
                    vals[p, k] = ratio[:, p][ok[:, p]].sum() / ok[:, p].sum()
    times = _window_times(tensor, starts, n_avg)
    series = []
    if gram:
        series.append(MetricSeries(kind="eigenvalues", times=times, values=eig, unit="dB",
                                   labels=tuple(f"lambda_{i + 1}" for i in range(m_min))))
    for (end, pairs), vals in zip(ends, corr):
        series.append(MetricSeries(
            kind=f"correlation_{end}", times=times.copy(), unit="",
            values=np.ascontiguousarray((np.abs(vals) if magnitudes else vals).T),
            labels=tuple(f"rho_{i + 1}{j + 1}" for i, j in pairs)))
    return series


def frequency_metrics(tensor: ChannelTensor, n_avg: int = DEFAULT_N_AVG,
                      stride: int | None = None) -> list[MetricSeries]:
    """Eigenvalues and both ends' correlation magnitudes of a delay-domain
    tensor, from one sliding pass that transforms each time step once and
    never holds the CTF.

    Returns the series of ``eigenvalue_series(cir_to_ctf(tensor))``, then
    of ``correlation_matrix_series`` for 'tx' and 'rx', bit for bit: each
    step's values depend only on its own row's DFT.
    """
    if tensor.domain != "delay":
        raise ValueError("frequency_metrics expects a delay-domain tensor")
    return _frequency_series(tensor, n_avg, stride, True,
                             (("tx", _pairs(tensor.m_tx)), ("rx", _pairs(tensor.m_rx))))


def eigenvalue_series(tensor: ChannelTensor, n_avg: int = DEFAULT_N_AVG,
                      stride: int | None = None) -> MetricSeries:
    """Eigenvalues of the window-averaged H H^H of the normalized channel.

    Per window the (time, frequency) channel matrices are scaled so the
    window-average squared Frobenius norm equals min(M_R, M_T); the
    eigenvalues of the window-averaged H H^H then sum to that constant, and
    an identity channel reports 0 dB on every eigenvalue.  The window sum of
    H H^H over frequency bins is the sum of the Gram matrices X_t X_t^H of
    the window's time steps, X_t being step t's M_R x (M_T * n_bins) block.
    Each step's Gram matrix is computed once, in time chunks, and windows
    sum them.  Values in dB, sorted descending; all-zero windows yield NaN.
    """
    if tensor.domain != "frequency":
        raise ValueError("eigenvalue_series expects a frequency-domain tensor")
    return _frequency_series(tensor, n_avg, stride, True, ())[0]


def _end_elements(tensor: ChannelTensor, end: str) -> tuple[str, int]:
    """Lower-cased ``end`` and its element count; ValueError when invalid."""
    if tensor.domain != "frequency":
        raise ValueError("antenna correlation expects a frequency-domain tensor")
    end = end.lower()
    if end not in ("tx", "rx"):
        raise ValueError("end must be 'tx' or 'rx'")
    return end, tensor.m_tx if end == "tx" else tensor.m_rx


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
    series = _frequency_series(tensor, n_avg, stride, False, ((end, [(i, j)]),), False)[0]
    vals = series.values[:, 0].copy()
    return replace(series, values=vals if complex_values else np.abs(vals))


def correlation_matrix_series(tensor: ChannelTensor, end: str,
                              n_avg: int = DEFAULT_N_AVG,
                              stride: int | None = None) -> MetricSeries:
    """|rho| for every element pair of one end, one column per pair; each
    element's power is computed once per time step and shared by its pairs.
    An end of one element gives no columns."""
    end, n_el = _end_elements(tensor, end)
    return _frequency_series(tensor, n_avg, stride, False, ((end, _pairs(n_el)),))[0]


def series_to_csv(series: MetricSeries, path) -> None:
    """Write ``t_s,value`` (or one column per label, so only ``t_s`` for a
    series without columns); missing values empty, -inf in a dB series as
    ``DB_FLOOR_SENTINEL``.  A complex series raises ValueError."""
    if np.iscomplexobj(series.values):
        raise ValueError(f"series {series.kind!r} is complex; a metric CSV holds real values")
    values = np.asarray(series.values, dtype=float)
    if series.unit == "dB":
        values = np.where(values == -np.inf, DB_FLOOR_SENTINEL, values)
    header = (["t_s", *series.labels] if values.ndim == 2
              else ["t_s", series.labels[0] if series.labels else "value"])
    _write_table(path, header, np.column_stack((series.times, values)).tolist())


def _read_timed_csv(path, header=None) -> tuple[list[str], np.ndarray, list]:
    """The header, the first-column times and the (line, other cells) rows
    of a CSV time table read by :func:`scene._read_table`, which raises
    SeriesFormatError for a malformed file.  The times must be finite and
    strictly increasing: the nearest-window lookups bisect them.
    """
    header, rows = _read_table(path, SeriesFormatError, header, min_fields=1)
    times = []
    for line, cells in rows:
        try:
            times.append(float(cells[0]))
        except ValueError as e:
            raise SeriesFormatError(f"{path}:{line}: {e}") from e
    times = np.asarray(times)
    if not np.isfinite(times).all() or np.any(np.diff(times) <= 0):
        raise SeriesFormatError(f"{path}: times must be finite and strictly increasing")
    return header, times, [(line, cells[1:]) for line, cells in rows]


def series_from_csv(path, kind: str = "", unit: str = "") -> MetricSeries:
    """Read a :func:`series_to_csv` file; empty fields read as NaN, and a
    file of ``t_s`` alone as a series without columns.  A single value
    column named ``value`` reads as a 1-D series; any other column name is
    kept as the one label of a 2-D series.  A malformed file raises
    SeriesFormatError."""
    header, times, rows = _read_timed_csv(path)
    vals = []
    for line, cells in rows:
        try:
            vals.append([float(c) if c.strip() else np.nan for c in cells])
        except ValueError as e:
            raise SeriesFormatError(f"{path}:{line}: {e}") from e
    vals = np.asarray(vals)
    if [c.strip() for c in header[1:]] == ["value"]:
        vals = vals[:, 0]
    return MetricSeries(kind=kind, times=times, values=vals,
                        unit=unit, labels=tuple(header[1:]) if vals.ndim == 2 else ())


def profile_to_csv(profile, path) -> None:
    """Heat-map grid export for Apdp/Dsd: first row ``t_s\\bin`` and the bin
    axis, then one row ``t_s,<power per bin>`` per window."""
    _write_table(path, ["t_s\\bin", *np.asarray(profile.bins, dtype=float).tolist()],
                 np.column_stack((profile.times, profile.values)).astype(float).tolist())
