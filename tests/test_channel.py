import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from v2vchan import channel, pipeline
from v2vchan.antenna import isotropic_array
from v2vchan.channel import (ChannelTensor, PathInterpolator, SimConfig,
                             TensorFormatError, _match_paths, add_measurement_noise,
                             cir_to_ctf, ctf_to_cir, hann_window,
                             load_tensor, save_tensor, synthesize_cir, synthesize_tensor)
from v2vchan.pipeline import trace_trajectory
from v2vchan.raytracer import SPEED_OF_LIGHT, PathSet, TracerConfig, trace_los
from v2vchan.scenarios import free_space_scene, intersection_trajectories

F = 5.9e9
LAM = SPEED_OF_LIGHT / F


def los_path(d: float, f: float = F) -> PathSet:
    return trace_los(free_space_scene(), (0.0, 0.0, 0.0), (d, 0.0, 0.0), f)


def fine_paths(coarse, fine_dt):
    """(t, path set) on the fine grid from the first to the last snapshot."""
    interp = PathInterpolator(coarse)
    n = int(round((interp.times[-1] - interp.times[0]) / fine_dt)) + 1
    return [(t, interp.paths_at(t)) for t in interp.times[0] + np.arange(n) * fine_dt]


def rand_tensor(rng, shape=(6, 2, 2, 32), domain="delay", dt=1e-4) -> ChannelTensor:
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dbin = 1 / 240e6 if domain == "delay" else 240e6 / shape[3]
    bin0 = 0.0 if domain == "delay" else -(shape[3] // 2) * dbin
    return ChannelTensor(domain=domain, data=data, t0=0.0, dt=dt, bin0=bin0,
                         dbin=dbin, carrier_frequency=F)


class TestSimConfig:
    def test_defaults(self):
        c = SimConfig()
        assert c.max_delay == pytest.approx(769 / 240e6)

    def test_fine_must_divide_coarse(self):
        with pytest.raises(ValueError):
            SimConfig(fine_dt=3e-4)  # 10 ms / 0.3 ms is not integral

    @pytest.mark.parametrize("field", ["carrier_frequency", "bandwidth", "n_freq_bins",
                                       "snapshot_dt", "coarse_trace_dt", "fine_dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, field, value):
        with pytest.raises(ValueError, match=f"finite: {field}"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("value", [16.0, 16.5, True, np.float64(16.0)])
    def test_n_freq_bins_must_be_an_integer(self, value):
        # a float count used to fail later, inside synthesis, with numpy's TypeError
        with pytest.raises(ValueError, match="n_freq_bins must be an integer"):
            SimConfig(n_freq_bins=value)

    def test_numpy_integer_bins_accepted(self):
        assert SimConfig(n_freq_bins=np.int64(16)).max_delay == 16 / 240e6


class TestSynthesizeCir:
    def test_no_paths_zero_slice(self):
        arr = isotropic_array(2)
        s = synthesize_cir(PathSet.concat([]), arr, arr, 0.0, SimConfig())
        assert s.shape == (2, 2, 769)
        assert not s.any()

    def test_single_los_real_positive_tap(self):
        cfg = SimConfig()
        # d = 60 bins of path length makes tau*B and f*tau both integral
        k = 60
        d = k * SPEED_OF_LIGHT / cfg.bandwidth
        assert (cfg.carrier_frequency * k / cfg.bandwidth) == int(
            cfg.carrier_frequency * k / cfg.bandwidth)
        arr = isotropic_array(1)
        s = synthesize_cir(los_path(d), arr, arr, 0.0, cfg)
        tap = s[0, 0, k]
        assert abs(tap.imag) < 1e-11 * tap.real  # zero phase up to fp rounding
        assert tap.real == pytest.approx(LAM / (4 * math.pi * d), rel=1e-12)
        assert np.count_nonzero(s) == 1

    def test_two_opposed_paths_cancel(self):
        cfg = SimConfig()
        k = 60
        d = k * SPEED_OF_LIGHT / cfg.bandwidth
        p1 = los_path(d)
        # delay offset of exactly 1/(2f): pi phase opposition, same bin
        p2 = replace(p1, length=p1.length + SPEED_OF_LIGHT / (2 * cfg.carrier_frequency))
        arr = isotropic_array(1)
        s = synthesize_cir(PathSet.concat([p1, p2]), arr, arr, 0.0, cfg)
        # independent two-phasor oracle
        a = LAM / (4 * math.pi * d)
        oracle = a * (np.exp(-2j * np.pi * cfg.carrier_frequency * p1.delay[0])
                      + np.exp(-2j * np.pi * cfg.carrier_frequency * p2.delay[0]))
        single = a
        assert abs(oracle) < 1e-9 * single            # pi opposition cancels
        assert abs(s[0, 0, k] - oracle) < 1e-12 * single

    def test_delay_overflow_dropped_with_warning(self):
        cfg = SimConfig(n_freq_bins=64)
        d = 100 * SPEED_OF_LIGHT / cfg.bandwidth  # bin 100 > 63
        arr = isotropic_array(1)
        with pytest.warns(RuntimeWarning, match="dropped"):
            s = synthesize_cir(los_path(d), arr, arr, 0.0, cfg)
        assert not s.any()

    def test_linear_in_path_list(self):
        cfg = SimConfig(n_freq_bins=128)
        rng = np.random.default_rng(4)
        arr = isotropic_array(2)
        paths_a = [los_path(rng.uniform(10, 100)) for _ in range(5)]
        paths_b = [los_path(rng.uniform(10, 100)) for _ in range(7)]
        s_ab = synthesize_cir(PathSet.concat(paths_a + paths_b), arr, arr, 0.0, cfg)
        s_a = synthesize_cir(PathSet.concat(paths_a), arr, arr, 0.0, cfg)
        s_b = synthesize_cir(PathSet.concat(paths_b), arr, arr, 0.0, cfg)
        assert np.array_equal(s_ab, s_a + s_b)

    def test_element_offsets_phase_only(self):
        cfg = SimConfig()
        arr2 = isotropic_array(2, element_spacing=0.05)
        s = synthesize_cir(los_path(50.0), arr2, arr2, 0.0, cfg)
        mags = np.abs(s[:, :, np.abs(s).max(axis=(0, 1)).argmax()])
        assert np.allclose(mags, mags[0, 0], rtol=1e-12)  # same magnitude
        phases = np.angle(s[:, :, np.abs(s).max(axis=(0, 1)).argmax()])
        assert not np.allclose(phases, phases[0, 0])      # different phases


class TestDopplerPhase:
    def test_phase_advance_matches_fv_over_c(self):
        cfg = SimConfig()
        arr = isotropic_array(1)
        v, d0 = 20.0, 80.0
        phases = []
        for k in range(6):
            t = k * cfg.fine_dt
            p = los_path(d0 - v * t)
            s = synthesize_cir(p, arr, arr, t, cfg)
            b = int(np.abs(s[0, 0]).argmax())
            phases.append(np.angle(s[0, 0, b]))
        dphi = np.diff(np.unwrap(phases))
        expected = 2 * np.pi * cfg.carrier_frequency * v / SPEED_OF_LIGHT * cfg.fine_dt
        assert np.allclose(dphi, expected, rtol=1e-6)


class TestInterpolation:
    def test_linear_midpoint_delay(self):
        p0 = los_path(299.792458)            # 1.000 us
        p1 = los_path(302.79038258)          # 1.010 us
        coarse = [(0.0, p0), (10e-3, p1)]
        fine = fine_paths(coarse, 5e-3)
        assert len(fine) == 3
        t, mid = fine[1]
        assert t == pytest.approx(5e-3)
        assert mid.delay[0] == pytest.approx(1.005e-6, rel=1e-9)

    def test_no_extrapolation_of_new_path(self):
        p0 = los_path(100.0)
        p1 = los_path(100.1)
        extra = los_path(200.0)
        coarse = [(0.0, p0), (10e-3, PathSet.concat([p1, extra]))]
        fine = fine_paths(coarse, 2.5e-3)
        for t, paths in fine[:-1]:
            assert len(paths) == 1
        assert len(fine[-1][1]) == 2

    def test_vanishing_path_held_until_boundary(self):
        p0 = los_path(100.0)
        dying = los_path(150.0)
        p1 = los_path(100.1)
        coarse = [(0.0, PathSet.concat([p0, dying])), (10e-3, p1)]
        fine = fine_paths(coarse, 5e-3)
        assert len(fine[1][1]) == 2   # still there mid-interval
        assert len(fine[2][1]) == 1   # gone at the boundary

    def test_repeated_key_pairs_in_delay_order(self):
        # a key a hand-built snapshot repeats: the k-th shortest a-path pairs
        # with the k-th shortest b-path, and the leftover a-path is held
        a = PathSet.concat([los_path(150.0), los_path(100.0)])
        b = los_path(149.0)
        ia, ib, held = _match_paths(a, b)
        assert (a.length[ia].tolist(), b.length[ib].tolist()) == ([100.0], [149.0])
        assert a.length[held].tolist() == [150.0]

    def test_exact_retrace_oracle(self):
        # uniformly moving rx in empty space: interpolated delays vs re-trace
        cfg = SimConfig()
        v = np.array([8.0, 4.0, 0.0])
        start = np.array([60.0, 5.0, 1.5])
        tx = np.array([0.0, 0.0, 1.5])
        scene = free_space_scene()

        def pos(t):
            return start + v * t

        coarse = []
        for k in range(3):
            t = k * cfg.coarse_trace_dt
            coarse.append((t, trace_los(scene, tx, pos(t), F)))
        fine = fine_paths(coarse, cfg.fine_dt)
        worst = 0.0
        for t, paths in fine:
            exact = trace_los(scene, tx, pos(t), F).delay[0]
            worst = max(worst, abs(paths.delay[0] - exact) / exact)
        assert worst < 1e-4

    def test_nonuniform_spacing_rejected(self):
        p = los_path(50.0)
        with pytest.raises(ValueError):
            PathInterpolator([(0.0, p), (1e-3, p), (3e-3, p)])

    @pytest.mark.parametrize("times", [[math.nan, 0.01], [0.0, math.inf], [0.01, 0.0], []],
                             ids=["nan", "inf", "decreasing", "empty"])
    def test_bad_snapshot_times_rejected(self, times):
        p = los_path(50.0)
        with pytest.raises(ValueError, match="coarse snapshot times"):
            PathInterpolator([(t, p) for t in times])

    # a NaN time used to pass the span check and give NaN lengths, on which
    # synthesize_cir failed with an IndexError
    @pytest.mark.parametrize("t", [math.nan, -1e-3, 0.011])
    def test_time_outside_span_raises(self, t):
        interp = PathInterpolator([(0.0, los_path(100.0)), (10e-3, los_path(100.1))])
        with pytest.raises(ValueError, match=rf"time {t} outside the traced span"):
            interp.paths_at(t)

    # one snapshot used to answer for every time, NaN too
    def test_one_snapshot_span(self):
        tx, rx = intersection_trajectories()
        snaps = trace_trajectory(free_space_scene(), tx, rx, TracerConfig(), 0.01, t0=1.0, t1=1.0)
        assert len(snaps) == 1
        (t0, paths), = snaps
        interp = PathInterpolator(snaps)
        assert interp.paths_at(t0) is paths
        for t in (math.nan, t0 + 5.0):
            with pytest.raises(ValueError, match=rf"time {t} outside the traced span"):
                interp.paths_at(t)


class TestDftPair:
    def test_impulse_flat_ctf(self):
        t = rand_tensor(np.random.default_rng(0), (2, 1, 1, 33))
        t.data[:] = 0
        t.data[:, :, :, 0] = 1.0
        H = cir_to_ctf(t)
        assert np.allclose(H.data, 1.0)
        assert H.domain == "frequency"
        assert np.all(np.diff(H.bin_axis) > 0)

    def test_rect_round_trip_identity(self):
        t = rand_tensor(np.random.default_rng(1), (3, 2, 2, 64))
        back = ctf_to_cir(cir_to_ctf(t), window="rect")
        assert np.allclose(back.data, t.data, atol=1e-12)

    def test_hann_flat_ctf_main_tap(self):
        n = 65
        t = rand_tensor(np.random.default_rng(2), (1, 1, 1, n), domain="frequency")
        t.data[:] = 1.0
        cir = ctf_to_cir(t, window="hann")
        # direct DFT oracle: tap 0 of ifft(w) is mean(w)
        assert cir.data[0, 0, 0, 0] == pytest.approx(hann_window(n).mean(), rel=1e-12)

    def test_parseval(self):
        t = rand_tensor(np.random.default_rng(3), (4, 2, 2, 97))
        H = cir_to_ctf(t)
        lhs = np.sum(np.abs(t.data) ** 2, axis=-1)
        rhs = np.mean(np.abs(H.data) ** 2, axis=-1)
        assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_carrier_bin_is_coherent_sum(self):
        t = rand_tensor(np.random.default_rng(4), (2, 1, 1, 33))
        H = cir_to_ctf(t)
        assert np.allclose(H.data[..., 33 // 2], t.data.sum(axis=-1))

    @pytest.mark.parametrize("shape", [(222, 4, 4, 193), (3, 1, 1, 5), (2, 2, 2, 40_000)])
    def test_chunks_equal_whole_transform(self, shape):
        t = rand_tensor(np.random.default_rng(6), shape)
        whole = np.fft.fftshift(np.fft.fft(t.data, axis=-1), axes=-1)
        assert np.array_equal(cir_to_ctf(t).data.view(np.uint64), whole.view(np.uint64))

    def test_heap_is_output_plus_two_chunks(self):
        """Beside its output, the transform holds at most two time chunks of
        about 2**16 complex values each (the transform and its shifted copy)."""
        import tracemalloc

        t = rand_tensor(np.random.default_rng(7), (222, 4, 4, 193))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = cir_to_ctf(t)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        chunk = 2 ** 16 * 16
        assert peak <= out.data.nbytes + 2 * chunk, (peak, out.data.nbytes, chunk)


class TestNoise:
    def test_zero_power_bit_exact(self):
        t = rand_tensor(np.random.default_rng(5))
        out = add_measurement_noise(t, 0.0, seed=1)
        assert np.array_equal(out.data, t.data)

    def test_law_of_large_numbers(self):
        t = rand_tensor(np.random.default_rng(6), (8, 4, 4, 1024))
        t.data[:] = 0
        out = add_measurement_noise(t, 1.0, seed=42)
        mean_power = np.mean(np.abs(out.data) ** 2)
        assert 0.99 < mean_power < 1.01

    def test_deterministic_per_seed(self):
        t = rand_tensor(np.random.default_rng(7))
        a = add_measurement_noise(t, 0.5, seed=9)
        b = add_measurement_noise(t, 0.5, seed=9)
        c = add_measurement_noise(t, 0.5, seed=10)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            add_measurement_noise(rand_tensor(np.random.default_rng(8)), -1.0, 0)

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_rejected(self, power):
        """A NaN power used to return a noise-free copy."""
        with pytest.raises(ValueError, match=f"noise power must be finite and >= 0, not {power}"):
            add_measurement_noise(rand_tensor(np.random.default_rng(8)), power, 0)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_equals_complex_noise_sum(self, dtype):
        t = rand_tensor(np.random.default_rng(11), (5, 2, 3, 16))
        t.data = t.data.astype(dtype)
        before = t.data.copy()
        out = add_measurement_noise(t, 0.3, seed=12)
        rng = np.random.default_rng(12)
        scale = math.sqrt(0.3 / 2.0)
        n1 = rng.standard_normal(t.data.shape)
        n2 = rng.standard_normal(t.data.shape)
        assert out.data.dtype == np.complex128
        assert np.array_equal(out.data, t.data + scale * (n1 + 1j * n2))
        assert np.array_equal(t.data, before)  # the input is left as it was


class TestTensorIO:
    def test_binary_round_trip(self, tmp_path):
        t = rand_tensor(np.random.default_rng(9), (5, 4, 4, 48))
        p = tmp_path / "c.v2vc"
        save_tensor(t, p)
        back = load_tensor(p)
        assert back.domain == t.domain
        assert back.data.shape == t.data.shape
        assert np.allclose(back.data, t.data, atol=1e-6)  # complex64 payload
        for attr in ("t0", "dt", "bin0", "dbin", "carrier_frequency"):
            assert getattr(back, attr) == getattr(t, attr)

    def test_payload_reread_bit_identical(self, tmp_path):
        t = rand_tensor(np.random.default_rng(10))
        p = tmp_path / "c.v2vc"
        save_tensor(t, p)
        a = load_tensor(p)
        save_tensor(a, tmp_path / "c2.v2vc")
        assert (tmp_path / "c.v2vc").read_bytes() == (tmp_path / "c2.v2vc").read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.v2vc"
        p.write_bytes(b"NOPE" + bytes(100))
        from v2vchan.channel import TensorFormatError
        with pytest.raises(TensorFormatError):
            load_tensor(p)

    def test_truncated_payload(self, tmp_path):
        t = rand_tensor(np.random.default_rng(11))
        p = tmp_path / "c.v2vc"
        save_tensor(t, p)
        data = p.read_bytes()
        p.write_bytes(data[:-16])
        from v2vchan.channel import TensorFormatError
        with pytest.raises(TensorFormatError):
            load_tensor(p)

    def test_payload_not_whole_values(self, tmp_path, write_tensor):
        p = write_tensor(tmp_path / "c.v2vc", payload=bytes(4 * 8 * 8 - 3))
        with pytest.raises(TensorFormatError, match="payload"):
            load_tensor(p)

    @pytest.mark.parametrize("header", [
        {"n_time": 0}, {"m_rx": 0}, {"n_bins": 0}, {"domain": 7}, {"dt": math.nan},
        {"dt": -1e-4}, {"dbin": math.inf}, {"t0": math.nan}, {"bin0": -math.inf},
        {"carrier": math.nan}])
    def test_malformed_header(self, tmp_path, write_tensor, header):
        with pytest.raises(TensorFormatError):
            load_tensor(write_tensor(tmp_path / "c.v2vc", **header))


class TestSynthesizeTensor:
    def test_fine_step_count(self):
        cfg = SimConfig()
        p = los_path(100.0)
        coarse = [(k * cfg.coarse_trace_dt, p) for k in range(101)]  # 1 s
        tensor = synthesize_tensor(PathInterpolator(coarse), isotropic_array(1), isotropic_array(1), cfg)
        assert tensor.n_time == 10_000
        assert tensor.dt == pytest.approx(cfg.fine_dt)

    def test_time_axis_is_the_default_grid(self):
        # near t = 4 s, the float difference of the first two grid times is
        # not fine_dt, and a time axis rebuilt from it drifts off the grid
        cfg = SimConfig(n_freq_bins=8, fine_dt=625e-6)
        p = los_path(5.0)
        coarse = [(4.04 + k * cfg.coarse_trace_dt, p) for k in range(5)]
        tensor = synthesize_tensor(PathInterpolator(coarse), isotropic_array(1), isotropic_array(1), cfg)
        assert tensor.n_time == 64
        assert tensor.dt == cfg.fine_dt
        assert np.array_equal(tensor.time_axis, coarse[0][0] + np.arange(64) * cfg.fine_dt)

    @pytest.mark.parametrize("times", [
        [0.0, 0.001, 0.009], [], [[0.0, 0.001]], [0.0, math.nan], [0.001, 0.001, 0.002],
        [0.002, 0.001, 0.0]], ids=["uneven", "empty", "2-d", "nan", "repeated", "decreasing"])
    def test_given_times_must_be_a_uniform_grid(self, monkeypatch, times):
        # checked up front: no step is synthesized from a grid the tensor
        # cannot record as a start and a step
        def no_synthesis(*args):
            raise AssertionError("a step was synthesized")
        monkeypatch.setattr("v2vchan.channel._synthesize", no_synthesis)
        p = los_path(5.0)
        coarse = [(0.0, p), (0.01, p)]
        with pytest.raises(ValueError, match="synthesis times"):
            synthesize_tensor(PathInterpolator(coarse), isotropic_array(1), isotropic_array(1),
                              SimConfig(n_freq_bins=8), times=times)

    def test_given_uniform_times_are_the_time_axis(self):
        p = los_path(5.0)
        coarse = [(0.0, p), (0.01, p)]
        times = 0.001 + np.arange(9) * 0.001
        tensor = synthesize_tensor(PathInterpolator(coarse), isotropic_array(1),
                                   isotropic_array(1), SimConfig(n_freq_bins=8), times=times)
        assert np.allclose(tensor.time_axis, times, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("stage", ["synthesize", "trace"])
    def test_workers_below_one_rejected(self, stage, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            if stage == "synthesize":
                p = los_path(5.0)
                synthesize_tensor(PathInterpolator([(0.0, p), (0.01, p)]), isotropic_array(1),
                                  isotropic_array(1), SimConfig(n_freq_bins=8),
                                  tx_heading=lambda t: pytest.fail("heading before check"),
                                  workers=workers)
            else:
                tx, rx = intersection_trajectories()
                trace_trajectory(free_space_scene(), tx, rx, TracerConfig(), 0.01,
                                 t0=1.0, t1=1.1, workers=workers)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(coarse_dt=-0.01), "coarse_dt must be finite and > 0, not -0.01"),
        (dict(coarse_dt=0.0), "coarse_dt must be finite and > 0, not 0.0"),
        (dict(coarse_dt=math.nan), "coarse_dt must be finite and > 0, not nan"),
        (dict(coarse_dt=math.inf), "coarse_dt must be finite and > 0, not inf"),
        (dict(t0=math.nan), "t0 must be finite, not nan"),
        (dict(t1=math.inf), "t1 must be finite, not inf"),
        (dict(t0=-math.inf), "t0 must be finite, not -inf"),
    ], ids=["negative_step", "zero_step", "nan_step", "inf_step", "nan_t0", "inf_t1", "-inf_t0"])
    def test_bad_trace_times_rejected(self, monkeypatch, kwargs, message):
        """A bad step or end time raises before any snapshot is traced.  A
        negative step used to return [], a zero step to raise
        ZeroDivisionError and a NaN one to fail converting to an integer."""
        monkeypatch.setattr(pipeline, "_run_jobs", lambda *a: pytest.fail("traced"))
        tx, rx = intersection_trajectories()
        with pytest.raises(ValueError, match=message):
            trace_trajectory(free_space_scene(), tx, rx, TracerConfig(),
                             **{"coarse_dt": 0.01, **kwargs})

    @pytest.mark.parametrize("extra, pooled", [(-1, False), (0, True)])
    def test_trace_pool_only_from_two_runs(self, monkeypatch, extra, pooled):
        """At two workers a trace shorter than two runs of ``_RUN_SNAPSHOTS``
        snapshots stays in process, and one of two runs starts a pool."""
        def no_pool(*args, **kwargs):
            raise RuntimeError("pool started")
        monkeypatch.setattr(channel, "ProcessPoolExecutor", no_pool)
        n = 2 * pipeline._RUN_SNAPSHOTS + extra
        tx, rx = intersection_trajectories()
        trace = lambda: trace_trajectory(free_space_scene(), tx, rx, TracerConfig(), 0.01,
                                         t0=1.0, t1=1.0 + (n - 1) * 0.01, workers=2)
        if pooled:
            with pytest.raises(RuntimeError, match="pool started"):
                trace()
        else:
            assert len(trace()) == n

    @pytest.mark.parametrize("end", ["tx_heading", "rx_heading"])
    def test_non_finite_heading_rejected(self, end):
        cfg = SimConfig(n_freq_bins=8)
        p = los_path(5.0)
        coarse = [(k * cfg.coarse_trace_dt, p) for k in range(2)]
        with pytest.raises(ValueError, match="finite"):
            synthesize_tensor(PathInterpolator(coarse), isotropic_array(1), isotropic_array(1),
                              cfg, **{end: math.nan})

    def test_heading_callable_called_once_with_all_times(self):
        cfg = SimConfig(n_freq_bins=8)
        p = los_path(5.0)
        coarse = [(k * cfg.coarse_trace_dt, p) for k in range(3)]
        calls = []

        def heading(t):
            calls.append(np.array(t, dtype=float))
            return 0.1 * calls[-1]

        tensor = synthesize_tensor(PathInterpolator(coarse), isotropic_array(2),
                                   isotropic_array(2), cfg, tx_heading=heading,
                                   rx_heading=heading)
        assert len(calls) == 2 and tensor.n_time == 200
        for t in calls:
            assert np.array_equal(t, tensor.time_axis)

    @pytest.mark.parametrize("bad", [lambda t: np.zeros(len(t) - 1),
                                     lambda t: np.zeros((len(t), 1))], ids=["short", "column"])
    def test_heading_callable_of_wrong_shape_rejected(self, bad):
        cfg = SimConfig(n_freq_bins=8)
        p = los_path(5.0)
        coarse = [(k * cfg.coarse_trace_dt, p) for k in range(2)]
        with pytest.raises(ValueError):     # numpy words the broadcast error
            synthesize_tensor(PathInterpolator(coarse), isotropic_array(1), isotropic_array(1),
                              cfg, rx_heading=bad)

    def test_heading_callable_of_one_value_is_a_constant(self):
        cfg = SimConfig(n_freq_bins=8)
        p = los_path(5.0)
        coarse = [(k * cfg.coarse_trace_dt, p) for k in range(2)]
        arr = isotropic_array(2)
        one = synthesize_tensor(PathInterpolator(coarse), arr, arr, cfg, rx_heading=lambda t: 0.7)
        const = synthesize_tensor(PathInterpolator(coarse), arr, arr, cfg, rx_heading=0.7)
        assert np.array_equal(one.data.view(np.uint64), const.data.view(np.uint64))

    def _dropping_run(self):
        cfg = SimConfig(n_freq_bins=64)
        near = los_path(20 * SPEED_OF_LIGHT / cfg.bandwidth)
        far = los_path(100 * SPEED_OF_LIGHT / cfg.bandwidth)  # bin 100 > 63
        both = PathSet.concat([near, far])
        coarse = [(0.0, both), (cfg.coarse_trace_dt, both)]
        return coarse, isotropic_array(1), cfg

    def test_dropped_paths_one_warning_with_total(self):
        coarse, arr, cfg = self._dropping_run()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tensor = synthesize_tensor(PathInterpolator(coarse), arr, arr, cfg)
        assert tensor.n_time == 100
        assert [type(w.message) for w in caught] == [RuntimeWarning]
        assert str(caught[0].message).startswith("100 path(s) beyond")
        assert "over 100 time steps" in str(caught[0].message)
        assert caught[0].filename == __file__

    def test_dropped_paths_error_filter_raises(self):
        coarse, arr, cfg = self._dropping_run()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="dropped"):
                synthesize_tensor(PathInterpolator(coarse), arr, arr, cfg)
