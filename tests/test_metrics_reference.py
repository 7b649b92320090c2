"""Analysis kernels against the formulations they replaced.

``eigenvalue_series`` forms each window's sum of H H^H as one batched Gram
matmul over the window's M_R x (M_T * n_bins) blocks.  The reference below
is the formulation it replaced: the window is copied into a stack of
(time, frequency) channel matrices and reduced with one ``einsum``.  The two
sum the same products in a different order, so linear eigenvalues agree to
rounding.  ``correlation_matrix_series`` shares each element's power
between its pairs and must equal ``antenna_correlation`` pair by pair, bit
for bit.
"""

import numpy as np
import pytest

from v2vchan.channel import ChannelTensor
from v2vchan.metrics import (antenna_correlation, correlation_matrix_series,
                             eigenvalue_series, series_to_csv)

REL = 1e-12


def freq_tensor(data, dt=307.2e-6):
    data = np.asarray(data, dtype=complex)
    df = 240e6 / data.shape[3]
    return ChannelTensor(domain="frequency", data=data, t0=0.0, dt=dt,
                         bin0=-(data.shape[3] // 2) * df, dbin=df, carrier_frequency=5.9e9)


def rand_h(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def einsum_eigenvalues(tensor, n_avg, stride=None):
    """Linear eigenvalues per window, the moveaxis + einsum way; NaN rows for
    all-zero windows."""
    stride = n_avg if stride is None else stride
    m_min = min(tensor.m_rx, tensor.m_tx)
    starts = np.arange((tensor.n_time - n_avg) // stride + 1) * stride
    out = np.full((len(starts), m_min), np.nan)
    for k, s in enumerate(starts):
        block = tensor.data[s:s + n_avg]
        h = np.moveaxis(block, 3, 1).reshape(-1, tensor.m_rx, tensor.m_tx)
        mean_fro2 = float(np.mean(np.sum(np.abs(h) ** 2, axis=(1, 2))))
        if mean_fro2 == 0.0:
            continue
        r = (m_min / mean_fro2) * np.einsum("kij,klj->il", h, np.conj(h)) / h.shape[0]
        lam = np.maximum(np.linalg.eigvalsh(r)[::-1][:m_min], 0.0)
        lam[lam < lam.max() * 1e-12] = 0.0
        out[k] = lam
    return out


def linear(series):
    return 10.0 ** (series.values / 10.0)


@pytest.mark.parametrize("shape, n_avg, stride", [
    ((12, 2, 4, 16), 4, None),   # M_R < M_T, default stride
    ((12, 4, 2, 16), 4, None),   # M_R > M_T
    ((13, 2, 4, 9), 5, 2),       # overlapping windows
    ((13, 4, 2, 9), 5, 3),
    ((10, 4, 4, 7), 3, 1),
])
def test_eigenvalues_match_einsum_reference(shape, n_avg, stride):
    t = freq_tensor(rand_h(0, shape))
    got = linear(eigenvalue_series(t, n_avg=n_avg, stride=stride))
    want = einsum_eigenvalues(t, n_avg, stride)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=REL, atol=0.0)


def test_all_zero_window_nan_like_reference():
    h = rand_h(1, (9, 2, 4, 8))
    h[3:6] = 0.0   # the second of three windows carries no power
    t = freq_tensor(h)
    got = eigenvalue_series(t, n_avg=3)
    want = einsum_eigenvalues(t, 3)
    assert np.isnan(got.values[1]).all() and np.isnan(want[1]).all()
    assert not np.isnan(got.values[[0, 2]]).any()
    assert np.allclose(linear(got)[[0, 2]], want[[0, 2]], rtol=REL, atol=0.0)


@pytest.mark.parametrize("m_rx, m_tx", [(2, 4), (4, 2)])
def test_rank_one_zeros_like_reference(tmp_path, m_rx, m_tx):
    rng = np.random.default_rng(2)
    u = rng.standard_normal(m_rx) + 1j * rng.standard_normal(m_rx)
    v = rng.standard_normal(m_tx) + 1j * rng.standard_normal(m_tx)
    gain = rng.standard_normal((8, 1, 1, 16)) + 1j * rng.standard_normal((8, 1, 1, 16))
    t = freq_tensor(gain * np.multiply.outer(u, v)[None, :, :, None])
    got = eigenvalue_series(t, n_avg=4, stride=2)
    want = einsum_eigenvalues(t, 4, 2)
    assert np.array_equal(want[:, 1:], np.zeros_like(want[:, 1:]))
    assert np.all(np.isneginf(got.values[:, 1:]))
    assert np.allclose(linear(got), want, rtol=REL, atol=0.0)
    series_to_csv(got, tmp_path / "eig.csv")
    rows = (tmp_path / "eig.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[2:] == ["-400.0"] for r in rows)


@pytest.mark.parametrize("end", ["tx", "rx"])
def test_matrix_series_equals_pairwise_correlation(end):
    h = rand_h(3, (10, 2, 4, 12))
    h[4, :, :, 3] = 0.0    # a skipped sample inside a window
    t = freq_tensor(h)
    got = correlation_matrix_series(t, end, n_avg=4, stride=3)
    n_el = 4 if end == "tx" else 2
    pairs = [(i, j) for i in range(n_el) for j in range(i + 1, n_el)]
    assert got.values.shape == (3, len(pairs))
    for col, (i, j) in enumerate(pairs):
        ref = antenna_correlation(t, end, i, j, n_avg=4, stride=3)
        assert got.labels[col] == ref.labels[0]
        assert np.array_equal(got.values[:, col], ref.values)
        assert np.array_equal(got.times, ref.times)


def test_matrix_series_end_is_case_insensitive():
    t = freq_tensor(rand_h(4, (6, 2, 4, 8)))
    upper = correlation_matrix_series(t, "TX", n_avg=3)
    lower = correlation_matrix_series(t, "tx", n_avg=3)
    assert upper.kind == lower.kind == "correlation_tx"
    assert upper.labels == lower.labels and len(upper.labels) == 6
    assert np.array_equal(upper.values, lower.values)


@pytest.mark.parametrize("end", ["up", "", "t x"])
def test_matrix_series_rejects_invalid_end(end):
    t = freq_tensor(rand_h(5, (6, 2, 4, 8)))
    with pytest.raises(ValueError, match="end must be"):
        correlation_matrix_series(t, end, n_avg=3)
