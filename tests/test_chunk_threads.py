"""Analysis passes and the noise draw on two threads.

A pass whose rows fit one chunk runs in the calling thread on the usual
chunk bounds; a larger one is cut into half-size chunks.
``channel._each_chunk`` runs them alternately on the caller and one helper
thread (the APDP and the DSD); ``channel._pipelined`` runs a produce step
on the helper one half-chunk ahead of a consume step on the caller (the
frequency pass and ``add_measurement_noise``).  The series, profiles and
noisy tensors must equal, bit for bit, those of the serial loop over whole
chunks, the helper must be gone when a pass returns or raises, and an
exception on either thread must reach the caller with its type.
"""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from v2vchan import channel, metrics
from v2vchan.channel import (ChannelTensor, _chunks, _each_chunk, _pipelined,
                             add_measurement_noise, cir_to_ctf)
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


def _serial_pipe(produce, consume, data, lo=0, hi=None):
    """The same loop for a produce and a consume step."""
    _serial(lambda a, b: consume(a, b, produce(a, b)), data, lo, hi)


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
        m.setattr(metrics, "_pipelined", _serial_pipe)
        want = {name: _all_arrays(run(n_avg, stride)) for name, run in cases.items()}
    for name, run in cases.items():
        for _ in range(RUNS):
            got = _all_arrays(run(n_avg, stride))
            assert len(got) == len(want[name]), name
            for g, w in zip(got, want[name]):
                assert_bits(g, w)


def _pieces(data, lo, hi):
    """1 when rows [lo, hi) of ``data`` fit one chunk, else how many half-chunks they take."""
    hi = len(data) if hi is None else hi
    return (1 if (hi - lo) * data[0].size <= channel._CHUNK_VALUES
            else len(list(_chunks(data, lo, hi, channel._CHUNK_VALUES // 2))))


def test_windows_cover_the_split_counts(monkeypatch):
    """The passes of WINDOWS run in one chunk and in three, four and five
    half-chunks: the APDP's and the frequency pass's time rows and the DSD's
    columns alike."""
    counts = {"rows": set(), "cols": set(), "pipelined": set()}

    def spy(fn, data, lo=0, hi=None):
        # a DSD block is (columns, n_avg)
        counts["cols" if data.ndim == 2 else "rows"].add(_pieces(data, lo, hi))
        _each_chunk(fn, data, lo, hi)

    def pipe_spy(produce, consume, data, lo=0, hi=None):
        counts["pipelined"].add(_pieces(data, lo, hi))
        _pipelined(produce, consume, data, lo, hi)

    monkeypatch.setattr(metrics, "_each_chunk", spy)
    monkeypatch.setattr(metrics, "_pipelined", pipe_spy)
    delay = ChannelTensor("delay", random_data(3, (200, 4, 4, NB)), 0.0, 307.2e-6, 0.0,
                          1 / 240e6, 5.9e9)
    for n_avg, stride in WINDOWS:
        analyze_tensor(delay, n_avg, stride)
    for kind in counts:
        assert counts[kind] >= {1, 3, 4, 5}, kind


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
    with pytest.raises(AssertionError, match="helper started"):
        frequency_metrics(delay, 22, 22)


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


# --- the pipeline: produce on the helper, consume on the caller ---------------------

#: The half-chunk starts of 200 rows: ten half-chunks of 21 rows, the last 11.
HALVES = list(range(0, 200, 21))


def test_pipelined_covers_rows_once_in_order():
    """Every row of [lo, hi) is produced and consumed exactly once, in row
    order, with each consume given its own produce's value: in half-chunks,
    produce on one helper thread and consume on the caller, when the rows
    leave one chunk, and in this thread on the usual chunk bounds when they
    fit; with the interpreter switching threads every microsecond."""
    data, old = _rows(200), sys.getswitchinterval()
    caller, before = threading.get_ident(), threading.active_count()
    sys.setswitchinterval(1e-6)
    try:
        for lo, hi in [(0, 200), (5, 47), (5, 48), (10, 52), (0, 1), (7, 7)] * 10:
            hits, produced, consumed = np.zeros(len(data), dtype=int), [], []

            def produce(a, b):
                produced.append((a, b, threading.get_ident()))
                return np.arange(a, b)

            def consume(a, b, rows):
                assert threading.get_ident() == caller
                assert rows.tolist() == list(range(a, b))
                hits[a:b] += 1
                consumed.append((a, b))
            _pipelined(produce, consume, data, lo, hi)
            assert hits[lo:hi].tolist() == [1] * (hi - lo) and not hits[:lo].any()
            assert not hits[hi:].any()
            assert [(a, b) for a, b, _ in produced] == consumed == sorted(consumed)
            split = hi - lo > 42
            assert max((b - a for a, b in consumed), default=0) <= (21 if split else 42)
            assert {t == caller for _, _, t in produced} <= {not split}
    finally:
        sys.setswitchinterval(old)
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [0, 21, 189])
def test_pipelined_produce_error_propagates(failing):
    """A produce error reaches the caller with its type once the caller
    reaches that half-chunk: every half-chunk before it is consumed, at
    most the one queued after it is produced (cancelled if the helper had
    not started it), and the helper's thread is gone."""
    produced, consumed = [], []

    def produce(a, b):
        produced.append(a)
        if a == failing:
            raise Boom(f"produce at {a}")
        return a

    before = threading.active_count()
    with pytest.raises(Boom, match=f"produce at {failing}"):
        _pipelined(produce, lambda a, b, v: consumed.append(v), _rows(200))
    assert threading.active_count() == before
    assert produced in ([a for a in HALVES if a <= failing],
                        [a for a in HALVES if a <= failing + 21])
    assert consumed == [a for a in HALVES if a < failing]


@pytest.mark.parametrize("failing", [0, 63, 189])
def test_pipelined_consume_error_propagates(failing):
    """A consume error reaches the caller with its type; the helper has
    produced at most the one half-chunk past it (cancelled if it had not
    started), and its thread is gone."""
    produced, consumed = [], []

    def consume(a, b, value):
        consumed.append(a)
        if a == failing:
            raise Boom(f"consume at {a}")

    before = threading.active_count()
    with pytest.raises(Boom, match=f"consume at {failing}"):
        _pipelined(lambda a, b: produced.append(a), consume, _rows(200))
    assert threading.active_count() == before
    assert consumed == [a for a in HALVES if a <= failing]
    upto = [a for a in HALVES if a <= failing]
    assert produced in (upto, [a for a in HALVES if a <= failing + 21])


def test_pipelined_error_cancels_pending_work(monkeypatch):
    """The caller's consume raises while the helper still produces the next
    half-chunk: the pass shuts the pool down cancelling any produce still
    queued, waits for the running one, produces nothing after it, and
    returns with the helper's thread gone."""
    produced, started, release = [], threading.Event(), threading.Event()
    cancelled = []

    class Pool(channel.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            cancelled.append(cancel_futures)
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            release.set()   # the blocked produce ends only once pending work is cancelled
            super().shutdown(wait=wait)

    def produce(a, b):
        produced.append(a)
        if a == 21:
            started.set()
            assert release.wait(10)

    def consume(a, b, value):
        assert started.wait(10)
        raise Boom("caller")

    monkeypatch.setattr(channel, "ThreadPoolExecutor", Pool)
    before = threading.active_count()
    with pytest.raises(Boom, match="caller"):
        _pipelined(produce, consume, _rows(200))
    assert threading.active_count() == before
    assert produced == [0, 21] and cancelled == [True]


# --- measurement noise --------------------------------------------------------------

def _serial_noise(tensor, power, seed):
    """The reference draw: every real part, then every imaginary part, over
    whole chunks in order, from one generator."""
    data = tensor.data.astype(complex)
    rng, scale = np.random.default_rng(seed), math.sqrt(power / 2.0)
    for part in (data.real, data.imag):
        for a, b in _chunks(data):
            part[a:b] += scale * rng.standard_normal(part[a:b].shape)
    return data


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("values", [1 << 12, 1 << 16, 1 << 20])
def test_noise_equals_serial_draw(monkeypatch, dtype, values):
    """At one row per half-chunk, at 21 and in one chunk, the noisy tensor
    equals the reference draw bit for bit, and the input is left as it was."""
    monkeypatch.setattr(channel, "_CHUNK_VALUES", values)
    tensor = ChannelTensor("delay", random_data(5, (200, 4, 4, NB), dtype), 0.0, 307.2e-6,
                           0.0, 1 / 240e6, 5.9e9)
    before = tensor.data.copy()
    want = _serial_noise(tensor, 0.3, 17)
    for _ in range(5):
        assert_bits(add_measurement_noise(tensor, 0.3, 17).data, want)
    assert_bits(tensor.data, before)


def test_one_chunk_noise_starts_no_thread(monkeypatch):
    """A tensor that fits one chunk draws its noise in the calling thread."""
    def no_helper(*args):
        raise AssertionError("helper started")

    monkeypatch.setattr(channel, "ThreadPoolExecutor", no_helper)
    small = ChannelTensor("delay", random_data(6, (42, 4, 4, NB)), 0.0, 307.2e-6, 0.0,
                          1 / 240e6, 5.9e9)
    add_measurement_noise(small, 0.3, 1)
    with pytest.raises(AssertionError, match="helper started"):
        add_measurement_noise(replace(small, data=random_data(6, (43, 4, 4, NB))), 0.3, 1)


def test_noise_heap_is_the_copy_plus_one_chunk():
    """Beside its complex128 copy, the noise pass holds at most two
    half-chunks of draws, one chunk of float64 values."""
    tensor = ChannelTensor("delay", random_data(7, (200, 4, 4, NB), np.complex64), 0.0,
                           307.2e-6, 0.0, 1 / 240e6, 5.9e9)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = add_measurement_noise(tensor, 0.3, 2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    chunk = channel._CHUNK_VALUES * 8
    assert peak <= out.data.nbytes + chunk + (32 << 10), (peak, out.data.nbytes, chunk)
