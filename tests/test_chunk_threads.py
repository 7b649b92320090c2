"""Analysis passes split over two threads by ``channel._each_chunk``.

A pass whose rows fit one chunk runs in the calling thread on the usual
chunk bounds; a larger one is cut into half-size chunks, alternately run by
the caller and one helper thread.  The series and profiles must equal, bit
for bit, those of the serial loop over whole chunks, the helper must be gone
when a pass returns or raises, and an exception on either thread must reach
the caller with its type.
"""

import sys
import threading

import numpy as np
import pytest

from v2vchan import channel, metrics
from v2vchan.channel import ChannelTensor, _chunks, _each_chunk, cir_to_ctf
from v2vchan.metrics import (antenna_correlation, compute_dsd, correlation_matrix_series,
                             eigenvalue_series, frequency_metrics)
from v2vchan.pipeline import analyze_tensor

from test_analysis_reference import assert_bits, random_data

#: Bins of the (n_time, 4, 4, NB) tensors below, a row of 1 552 values: a
#: chunk holds 42 time rows, a half-chunk 21.  Across its columns a DSD
#: window holds 1 552 rows of n_avg values.
NB = 97

#: (n_avg, stride) on 200 steps.  The time passes of (16, 4) fit one chunk;
#: of (43, 43) take three half-chunks (the fewest rows that leave one chunk
#: always do); of (84, 30) take four, then fit one chunk; of (100, 50) take
#: five, then three.  The DSD's column passes take one, three, four and five
#: half-chunks.
WINDOWS = [(16, 4), (43, 43), (84, 30), (100, 50)]

RUNS = 20


def _serial(fn, data, lo=0, hi=None):
    """The loop every pass ran before it was split: whole chunks in order."""
    for a, b in _chunks(data, lo, hi):
        fn(a, b)


def _all_arrays(result):
    """Every array of a metric result, in a fixed order."""
    if isinstance(result, dict):
        return [a for k in sorted(result) for a in _all_arrays(result[k])]
    if isinstance(result, list):
        return [a for r in result for a in _all_arrays(r)]
    return [result.values, result.times] + ([result.bins] if hasattr(result, "bins") else [])


def _cases(data):
    delay = ChannelTensor("delay", data, 0.0, 307.2e-6, 0.0, 1 / 240e6, 5.9e9)
    freq = cir_to_ctf(delay)
    return {
        "analyze_tensor": lambda n, s: analyze_tensor(delay, n, s, threshold=True),
        "frequency_metrics": lambda n, s: frequency_metrics(delay, n, s),
        "compute_dsd": lambda n, s: compute_dsd(delay, n, s),
        "eigenvalue_series": lambda n, s: eigenvalue_series(freq, n, s),
        "correlation_matrix_series": lambda n, s: correlation_matrix_series(freq, "rx", n, s),
        "antenna_correlation": lambda n, s: antenna_correlation(freq, "tx", 1, 2, n, s,
                                                                complex_values=True),
    }


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("n_avg, stride", WINDOWS)
def test_threads_equal_serial_loop(monkeypatch, dtype, n_avg, stride):
    cases = _cases(random_data(3, (200, 4, 4, NB), dtype))
    with monkeypatch.context() as m:
        m.setattr(metrics, "_each_chunk", _serial)
        want = {name: _all_arrays(run(n_avg, stride)) for name, run in cases.items()}
    for name, run in cases.items():
        for _ in range(RUNS):
            got = _all_arrays(run(n_avg, stride))
            assert len(got) == len(want[name]), name
            for g, w in zip(got, want[name]):
                assert_bits(g, w)


def test_windows_cover_the_split_counts(monkeypatch):
    """The passes of WINDOWS run in one chunk and in three, four and five
    half-chunks, in time rows and in DSD columns alike."""
    counts = {"rows": set(), "cols": set()}

    def spy(fn, data, lo=0, hi=None):
        hi = len(data) if hi is None else hi
        n = (1 if (hi - lo) * data[0].size <= channel._CHUNK_VALUES
             else len(list(_chunks(data, lo, hi, channel._CHUNK_VALUES // 2))))
        counts["cols" if data.ndim == 2 else "rows"].add(n)   # a DSD block is (columns, n_avg)
        _each_chunk(fn, data, lo, hi)

    monkeypatch.setattr(metrics, "_each_chunk", spy)
    delay = ChannelTensor("delay", random_data(3, (200, 4, 4, NB)), 0.0, 307.2e-6, 0.0,
                          1 / 240e6, 5.9e9)
    for n_avg, stride in WINDOWS:
        analyze_tensor(delay, n_avg, stride)
    assert counts["rows"] >= {1, 3, 4, 5}
    assert counts["cols"] >= {1, 3, 4, 5}


def test_one_chunk_passes_start_no_thread(monkeypatch):
    """drive-transition's analysis (4 x 4, 193 bins, n_avg 16, stride 4)
    fits one chunk per pass, so it never starts the helper."""
    def no_helper(*args):
        raise AssertionError("helper started")

    monkeypatch.setattr(channel, "ThreadPoolExecutor", no_helper)
    delay = ChannelTensor("delay", random_data(4, (120, 4, 4, 193)), 0.0, 307.2e-6, 0.0,
                          1 / 240e6, 5.9e9)
    analyze_tensor(delay, 16, 4, threshold=True)
    with pytest.raises(AssertionError, match="helper started"):
        analyze_tensor(delay, 22, 22)   # 22 rows of 3 088 values leave one chunk


class Boom(Exception):
    pass


def _rows(n):
    """n time rows of a 4 x 4 x NB tensor; a chunk holds 42 of them."""
    return np.zeros((n, 4, 4, NB))


def test_caller_error_cancels_helper_and_joins(monkeypatch):
    """The caller's first chunk raises while the helper runs its first: the
    helper's other chunks are cancelled, never run, and its thread is gone."""
    data, ran = _rows(200), []                  # ten half-chunks, five per thread
    started, release = threading.Event(), threading.Event()

    class Pool(channel.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()   # the blocked chunk ends only once the rest are cancelled
            super().shutdown(wait=wait)

    def fn(a, b):
        ran.append(a)
        if a == 0:
            assert started.wait(10)
            raise Boom("caller")
        started.set()
        assert release.wait(10)

    monkeypatch.setattr(channel, "ThreadPoolExecutor", Pool)
    before = threading.active_count()
    with pytest.raises(Boom, match="caller"):
        _each_chunk(fn, data)
    assert threading.active_count() == before
    assert sorted(ran) == [0, 21]


@pytest.mark.parametrize("failing", [21, 63, 189])
def test_helper_error_propagates_and_joins(failing):
    """An exception in any of the helper's chunks reaches the caller with its
    type, after the caller's own chunks, and the helper's thread is gone."""
    data, ran = _rows(200), []

    def fn(a, b):
        ran.append(a)
        if a == failing:
            raise Boom(f"helper at {a}")

    before = threading.active_count()
    with pytest.raises(Boom, match=f"helper at {failing}"):
        _each_chunk(fn, data)
    assert threading.active_count() == before
    assert set(range(0, 200, 42)) <= set(ran)   # the caller's half-chunks all ran


def test_each_chunk_covers_rows_once():
    """Every row of [lo, hi) is passed exactly once, in half-chunks when the
    rows leave one chunk and on the usual chunk bounds when they fit; with
    the interpreter switching threads every microsecond, no write is lost."""
    data, old = _rows(200), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for lo, hi in [(0, 200), (5, 47), (5, 48), (10, 52), (0, 1), (7, 7)] * 10:
            hits, sizes = np.zeros(len(data), dtype=int), []

            def fn(a, b):
                hits[a:b] += 1      # each call owns its rows
                sizes.append(b - a)
            _each_chunk(fn, data, lo, hi)
            assert hits[lo:hi].tolist() == [1] * (hi - lo) and not hits[:lo].any()
            assert not hits[hi:].any()
            assert max(sizes, default=0) <= (21 if hi - lo > 42 else 42)
    finally:
        sys.setswitchinterval(old)
