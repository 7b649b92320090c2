"""Chunked analysis kernels against the whole-tensor formulations they replaced.

The references below are the transforms and metrics as they were when each
held whole-tensor temporaries: ``|h|^2`` of the whole tensor for the APDP,
one (n_avg, M_R, M_T, bins) transform per DSD window, one batched Gram
matmul per eigenvalue window, whole-tensor pair products for the
correlations, one shifted transform of the whole tensor for the CTF, two
whole-tensor draws for the noise and one complex64 copy for the file.  The
kernels must equal them bit for bit (compared as raw float bits, NaN
included, and as bytes for files) for any window stride, any chunk size
and either input precision: a complex64 tensor is analysed exactly as its
complex128 copy.
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from v2vchan import channel
from v2vchan.channel import (_HEADER_FMT, TENSOR_MAGIC, TENSOR_VERSION, ChannelTensor,
                             add_measurement_noise, cir_to_ctf, ctf_to_cir, hann_window,
                             save_tensor)
from v2vchan.metrics import (Apdp, Dsd, _pairs, _step_values,
                             _window_starts, _window_times, antenna_correlation,
                             apply_noise_threshold, channel_gain, compute_apdp, compute_dsd,
                             correlation_matrix_series, eigenvalue_series,
                             estimate_noise_floor, estimate_noise_floor_dsd,
                             rms_delay_spread, rms_doppler_spread)
from v2vchan.pipeline import analyze_tensor


# --- references: the whole-tensor formulations ---------------------------------

def reference_apdp(tensor, n_avg, stride=None):
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    power = np.abs(tensor.data) ** 2
    vals = np.empty((len(starts), tensor.n_bins))
    for k, s in enumerate(starts):
        vals[k] = power[s:s + n_avg].mean(axis=(0, 1, 2))
    return Apdp(values=vals, times=_window_times(tensor, starts, n_avg),
                bins=tensor.bin_axis.copy(), n_avg=n_avg, stride=stride)


def reference_dsd(tensor, n_avg, stride=None):
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    vals = np.empty((len(starts), n_avg))
    for k, s in enumerate(starts):
        block = tensor.data[s:s + n_avg]
        spec = np.fft.fftshift(np.fft.fft(block, axis=0), axes=0)
        vals[k] = (np.abs(spec) ** 2).mean(axis=(1, 2, 3))
    doppler = np.fft.fftshift(np.fft.fftfreq(n_avg, d=tensor.dt))
    return Dsd(values=vals, times=_window_times(tensor, starts, n_avg),
               bins=doppler, n_avg=n_avg, stride=stride)


def reference_eigenvalues(tensor, n_avg, stride=None):
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    m_min = min(tensor.m_rx, tensor.m_tx)
    n_mat = n_avg * tensor.n_bins
    vals = np.full((len(starts), m_min), np.nan)
    for k, s in enumerate(starts):
        x = tensor.data[s:s + n_avg].reshape(n_avg, tensor.m_rx, -1)
        gram = (x @ np.conj(x).transpose(0, 2, 1)).sum(axis=0)
        mean_fro2 = float(np.trace(gram).real) / n_mat
        if mean_fro2 == 0.0:
            continue
        r = (m_min / mean_fro2) * gram / n_mat
        lam = np.linalg.eigvalsh(r)[::-1][:m_min]
        lam = np.maximum(lam, 0.0)
        lam[lam < lam.max() * 1e-12] = 0.0
        with np.errstate(divide="ignore"):
            vals[k] = 10.0 * np.log10(lam)
    return vals


def _reference_element(tensor, end, i):
    return tensor.data[:, i, :, :] if end == "rx" else tensor.data[:, :, i, :]


def reference_element_power(tensor, end, i):
    return (np.abs(_reference_element(tensor, end, i)) ** 2).sum(axis=1)


def reference_pair_correlation(tensor, end, i, j, starts, n_avg):
    a, b = _reference_element(tensor, end, i), _reference_element(tensor, end, j)
    p_i, p_j = reference_element_power(tensor, end, i), reference_element_power(tensor, end, j)
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


def reference_pair_ratio(tensor, end, i, j):
    """Per-step ratio of a pair's product to its power product, formed from
    whole-tensor products as :func:`reference_pair_correlation` forms it,
    and where that power product is nonzero."""
    a, b = _reference_element(tensor, end, i), _reference_element(tensor, end, j)
    num = ((a * np.conj(b)) if end == "rx" else (np.conj(a) * b)).sum(axis=1)
    den = np.sqrt(reference_element_power(tensor, end, i) * reference_element_power(tensor, end, j))
    ok = den > 0
    return num[ok] / den[ok], ok


def reference_correlations(tensor, end, n_avg, stride=None):
    stride = n_avg if stride is None else stride
    starts = _window_starts(tensor.n_time, n_avg, stride)
    n_el = tensor.m_tx if end == "tx" else tensor.m_rx
    pairs = [(i, j) for i in range(n_el) for j in range(i + 1, n_el)]
    return np.column_stack([np.abs(reference_pair_correlation(tensor, end, i, j, starts, n_avg))
                            for i, j in pairs])


def reference_ctf(tensor):
    return np.fft.fftshift(np.fft.fft(tensor.data, axis=-1), axes=-1)


def reference_cir(tensor, window):
    n = tensor.n_bins
    w = hann_window(n) if window == "hann" else np.ones(n)
    return np.fft.ifft(np.fft.ifftshift(tensor.data * w, axes=-1), axis=-1)


def reference_noise(tensor, power, seed):
    if power == 0:
        return tensor.data.copy()
    rng = np.random.default_rng(seed)
    scale = math.sqrt(power / 2.0)
    data = tensor.data.astype(complex)
    data.real += scale * rng.standard_normal(data.shape)
    data.imag += scale * rng.standard_normal(data.shape)
    return data


def reference_file(tensor):
    dom = 0 if tensor.domain == "delay" else 1
    header = struct.pack(_HEADER_FMT, TENSOR_MAGIC, TENSOR_VERSION, dom,
                         tensor.m_rx, tensor.m_tx, tensor.n_time, tensor.n_bins,
                         tensor.t0, tensor.dt, tensor.bin0, tensor.dbin,
                         tensor.carrier_frequency)
    return header + np.ascontiguousarray(tensor.data.astype(np.complex64)).tobytes()


def reference_analysis(tensor, n_avg, stride=None, threshold=False):
    apdp = reference_apdp(tensor, n_avg, stride)
    dsd = reference_dsd(tensor, n_avg, stride)
    if threshold:
        apdp = apply_noise_threshold(apdp, estimate_noise_floor(apdp))
        dsd = apply_noise_threshold(dsd, estimate_noise_floor_dsd(dsd))
    ctf = ChannelTensor("frequency", reference_ctf(tensor), tensor.t0, tensor.dt, 0.0, 1.0,
                        tensor.carrier_frequency)
    return {"gain": channel_gain(apdp).values, "delay_spread": rms_delay_spread(apdp).values,
            "doppler_spread": rms_doppler_spread(dsd).values,
            "eigenvalues": reference_eigenvalues(ctf, n_avg, stride),
            "correlation_tx": reference_correlations(ctf, "tx", n_avg, stride),
            "correlation_rx": reference_correlations(ctf, "rx", n_avg, stride),
            "apdp": apdp.values, "dsd": dsd.values}


# --- inputs ----------------------------------------------------------------------

def _tensor(domain, data):
    return ChannelTensor(domain, data, 0.25, 307.2e-6, 0.0, 1 / 240e6, 5.6e9)


def random_data(seed, shape, dtype=complex):
    """Taps of widely spread power with exact zeros: one whole element, a
    few bins, and (with enough steps) a run of all-zero time steps, so
    zero-power samples, skipped pairs and NaN windows all occur."""
    rng = np.random.default_rng(seed)
    data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    data *= 10.0 ** rng.uniform(-6, 0, shape)
    data[:, 0, -1, :] = 0             # one tx element silent towards rx 0
    data[..., 1::7] = 0               # silent bins
    if shape[0] >= 12:
        data[6:12] = 0                # silent steps: all-zero windows
    return data.astype(dtype)


def bits(a):
    """Raw float bits, so NaN payloads and signed zeros compare too."""
    a = np.ascontiguousarray(a)
    return a.view(np.uint64) if a.dtype.kind in "fc" else a


def assert_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(bits(got), bits(want))


#: Bins of the window tests.  At 40 time steps each element's slice is then
#: 40 x 4 x 128 complex values (320 KiB), so the references' whole-tensor
#: pair products are computed as numpy computes those of every real run: in
#: place, over the conjugated temporary (numpy reuses a temporary of 256 KiB
#: or more), which the kernels do explicitly at any size.
NB = 128

#: Chunk sizes in time rows of the (n, 4, 4, NB)-shaped tests: one row,
#: seven rows, and more rows than any tensor here.
CHUNK_ROWS = [1, 7, 10_000]

#: (n_time, n_avg, stride): stride below, equal to and above n_avg, n_avg
#: equal to the whole tensor, and a single window.
WINDOWS = [(40, 6, 2), (40, 6, 6), (40, 6, 9), (40, 40, 3), (40, 12, 100), (41, 5, None)]


@pytest.fixture(params=CHUNK_ROWS, ids=lambda r: f"rows{r}")
def chunk_rows(request, monkeypatch):
    """Set the kernels' chunk to this many time rows of a 4 x 4 x NB tensor."""
    monkeypatch.setattr(channel, "_CHUNK_VALUES", request.param * 4 * 4 * NB)
    return request.param


# --- kernels against references ------------------------------------------------------

@pytest.mark.parametrize("n_time, n_avg, stride", WINDOWS)
def test_delay_metrics_equal_reference(chunk_rows, n_time, n_avg, stride):
    t = _tensor("delay", random_data(1, (n_time, 4, 4, NB)))
    got, want = compute_apdp(t, n_avg, stride), reference_apdp(t, n_avg, stride)
    assert_bits(got.values, want.values)
    assert_bits(got.times, want.times)
    got, want = compute_dsd(t, n_avg, stride), reference_dsd(t, n_avg, stride)
    assert_bits(got.values, want.values)
    assert_bits(got.bins, want.bins)


@pytest.mark.parametrize("n_time, n_avg, stride", WINDOWS)
def test_frequency_metrics_equal_reference(chunk_rows, n_time, n_avg, stride):
    t = _tensor("frequency", random_data(2, (n_time, 4, 4, NB)))
    assert_bits(eigenvalue_series(t, n_avg, stride).values,
                reference_eigenvalues(t, n_avg, stride))
    for end in ("tx", "rx"):
        assert_bits(correlation_matrix_series(t, end, n_avg, stride).values,
                    reference_correlations(t, end, n_avg, stride))


@pytest.mark.parametrize("end", ["tx", "rx"])
def test_pair_correlation_equals_reference(chunk_rows, end):
    """The per-step kernel's (ratio, ok) of each pair, run chunk by chunk,
    and the windows ``antenna_correlation`` forms from them."""
    t = _tensor("frequency", random_data(3, (40, 4, 4, NB)))
    starts = _window_starts(40, 6, 2)
    pairs = [(0, 1), (0, 3), (2, 3)]
    steps = [_step_values(t.data[a:b], False, ((end, pairs),))
             for a, b in channel._chunks(t.data)]
    ratio, ok = (np.concatenate(parts) for parts in zip(*steps))
    for p, (i, j) in enumerate(pairs):
        want_ratio, want_ok = reference_pair_ratio(t, end, i, j)
        assert np.array_equal(ok[:, p], want_ok)
        assert_bits(ratio[:, p][ok[:, p]], want_ratio)
        assert_bits(antenna_correlation(t, end, i, j, 6, 2, complex_values=True).values,
                    reference_pair_correlation(t, end, i, j, starts, 6))


def test_nan_windows_where_reference_has_them():
    t = _tensor("frequency", random_data(4, (40, 4, 4, NB)))
    eig = eigenvalue_series(t, 6, 6).values
    corr = correlation_matrix_series(t, "tx", 6, 6).values
    assert np.isnan(eig).all(axis=1).any() and np.isnan(corr).all(axis=1).any()
    assert_bits(eig, reference_eigenvalues(t, 6, 6))
    assert_bits(corr, reference_correlations(t, "tx", 6, 6))


def test_transforms_noise_and_file_equal_reference(chunk_rows, tmp_path):
    t = _tensor("delay", random_data(5, (40, 4, 4, NB)))
    ctf = cir_to_ctf(t)
    assert_bits(ctf.data, reference_ctf(t))
    for window in ("hann", "rect"):
        assert_bits(ctf_to_cir(ctf, window).data, reference_cir(ctf, window))
    for power in (0.0, 1e-3):
        assert_bits(add_measurement_noise(t, power, seed=8).data, reference_noise(t, power, 8))
    save_tensor(t, tmp_path / "t.v2vc")
    assert (tmp_path / "t.v2vc").read_bytes() == reference_file(t)


@pytest.mark.parametrize("threshold", [False, True])
@pytest.mark.parametrize("stride", [None, 3])
def test_analysis_equals_reference(chunk_rows, threshold, stride):
    t = _tensor("delay", random_data(6, (48, 4, 4, NB)))
    got = analyze_tensor(t, n_avg=8, stride=stride, threshold=threshold)
    want = reference_analysis(t, 8, stride, threshold)
    for name, values in want.items():
        assert_bits(got[name].values, values)


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64], ids=["c128", "c64"])
@pytest.mark.parametrize("n_time, n_avg, stride", WINDOWS)
def test_analysis_equals_public_ctf_metrics(chunk_rows, dtype, n_time, n_avg, stride):
    """The one pass of ``analyze_tensor`` over the delay tensor gives what the
    public frequency-domain functions give on ``cir_to_ctf`` of it, bit for
    bit, so the two routes cannot drift apart."""
    t = _tensor("delay", random_data(10, (n_time, 4, 4, NB), dtype))
    got = analyze_tensor(t, n_avg, stride)
    ctf = cir_to_ctf(t)
    want = eigenvalue_series(ctf, n_avg, stride)
    assert_bits(got["eigenvalues"].values, want.values)
    assert_bits(got["eigenvalues"].times, want.times)
    for end in ("tx", "rx"):
        series, want = got[f"correlation_{end}"], correlation_matrix_series(ctf, end, n_avg, stride)
        assert_bits(series.values, want.values)
        assert series.labels == want.labels
        for col, (i, j) in enumerate(_pairs(4)):
            rho = antenna_correlation(ctf, end, i, j, n_avg, stride, complex_values=True)
            assert_bits(np.ascontiguousarray(series.values[:, col]), np.abs(rho.values))


# --- complex64 input is analysed as its complex128 copy ----------------------------

def test_complex64_input_equals_its_complex128_copy(chunk_rows, tmp_path):
    d64 = random_data(7, (40, 4, 4, NB), np.complex64)
    d128 = d64.astype(complex)
    for domain in ("delay", "frequency"):
        a, b = _tensor(domain, d64), _tensor(domain, d128)
        if domain == "delay":
            assert_bits(cir_to_ctf(a).data, cir_to_ctf(b).data)
            assert_bits(compute_apdp(a, 8, 2).values, compute_apdp(b, 8, 2).values)
            assert_bits(compute_dsd(a, 8, 2).values, compute_dsd(b, 8, 2).values)
            want = analyze_tensor(b, 8, 2, threshold=True)
            for name, series in analyze_tensor(a, 8, 2, threshold=True).items():
                assert_bits(series.values, want[name].values)
        else:
            assert_bits(ctf_to_cir(a).data, ctf_to_cir(b).data)
            assert_bits(eigenvalue_series(a, 8, 2).values, eigenvalue_series(b, 8, 2).values)
            for end in ("tx", "rx"):
                assert_bits(correlation_matrix_series(a, end, 8, 2).values,
                            correlation_matrix_series(b, end, 8, 2).values)
                assert_bits(antenna_correlation(a, end, 0, 2, 8, 2, complex_values=True).values,
                            antenna_correlation(b, end, 0, 2, 8, 2, complex_values=True).values)
        assert_bits(add_measurement_noise(a, 1e-3, 2).data, add_measurement_noise(b, 1e-3, 2).data)
        assert_bits(add_measurement_noise(a, 0.0, 2).data, d128)
        save_tensor(a, tmp_path / "a.v2vc")
        save_tensor(b, tmp_path / "b.v2vc")
        assert (tmp_path / "a.v2vc").read_bytes() == (tmp_path / "b.v2vc").read_bytes()


# --- bounded heap -------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
def test_analysis_heap_is_bounded(dtype):
    """Beside the tensor, ``analyze_tensor`` holds only window- and
    chunk-sized buffers (it never holds the CTF), so at 600 steps and n_avg
    91 its extra heap stays within a quarter of the tensor's complex128
    size."""
    data = random_data(9, (600, 4, 4, 193), dtype)
    t = _tensor("delay", data)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        analyze_tensor(t, n_avg=91)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = data.size * 16
    assert peak <= 0.25 * size, (peak / size, peak, size)
