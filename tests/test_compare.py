import csv
import math

import numpy as np
import pytest

from v2vchan.compare import (LOS, NLOS, AlignmentError, ErrorStats,
                             SegmentLabels, error_series, error_stats,
                             load_labels, render_report,
                             save_labels, save_report, segment_los_nlos)
from v2vchan.metrics import MetricSeries
from v2vchan.raytracer import PathSet, trace_los
from v2vchan.scenarios import free_space_scene


def series(values, times=None, kind="gain", unit="dB"):
    values = np.asarray(values, dtype=float)
    if times is None:
        times = np.arange(len(values), dtype=float)
    return MetricSeries(kind=kind, times=np.asarray(times, dtype=float),
                        values=values, unit=unit)


def los_snapshot(t, with_los=True):
    if with_los:
        return (t, trace_los(free_space_scene(), (0, 0, 0), (10, 0, 0), 5.9e9))
    return (t, PathSet.concat([]))


class TestSegmentation:
    def test_all_los(self):
        snaps = [los_snapshot(t * 0.01) for t in range(10)]
        lab = segment_los_nlos(snaps, np.array([0.02, 0.05]))
        assert lab.is_los.all()

    def test_flip_at_first_window_past_transition(self):
        snaps = [los_snapshot(t * 0.01, with_los=(t * 0.01 >= 0.05)) for t in range(11)]
        windows = np.array([0.0, 0.02, 0.049, 0.05, 0.051, 0.08])
        lab = segment_los_nlos(snaps, windows)
        assert list(lab.is_los) == [False, False, False, True, True, True]

    def test_empty_snapshot_list_rejected(self):
        with pytest.raises(ValueError):
            segment_los_nlos([], np.array([0.0]))

    def test_single_transition_on_intersection_run(self):
        # geometric visibility oracle: the bundled intersection has exactly
        # one NLOS->LOS flip (checked on coarse 100 ms steps to stay fast)
        from v2vchan.scenarios import intersection_scene, intersection_trajectories
        from v2vchan.raytracer import TracerConfig
        from v2vchan.pipeline import trace_trajectory
        scene = intersection_scene(plain=True)
        tx, rx = intersection_trajectories()
        cfg = TracerConfig(max_order=1, enable_diffuse=False)
        snaps = trace_trajectory(scene, tx, rx, cfg, 0.1)
        lab = segment_los_nlos(snaps, np.array([t for t, _ in snaps]))
        flips = int(np.sum(lab.is_los[1:] != lab.is_los[:-1]))
        assert flips == 1
        assert not lab.is_los[0] and lab.is_los[-1]


class TestErrorSeries:
    def test_identical_zero(self):
        a = series([1.0, 2.0, 3.0])
        eps = error_series(a, a)
        assert np.array_equal(eps.values, np.zeros(3))

    def test_constant_offset(self):
        a = series([1.0, 2.0, 3.0])
        b = series([v - 3.0 for v in (1.0, 2.0, 3.0)])
        eps = error_series(a, b)
        assert np.allclose(eps.values, 3.0)

    def test_missing_propagates(self):
        a = series([1.0, np.nan, 3.0])
        b = series([0.5, 0.5, 0.5])
        eps = error_series(a, b)
        assert np.isnan(eps.values[1])
        assert eps.values[0] == pytest.approx(0.5)

    def test_nearest_window_alignment(self):
        a = series([1.0, 2.0], times=[0.0, 1.0])
        b = series([10.0, 20.0], times=[0.05, 1.05])  # within half a window
        eps = error_series(a, b)
        assert np.allclose(eps.values, [-9.0, -18.0])

    def test_misalignment_beyond_half_window(self):
        a = series([1.0, 2.0], times=[0.0, 1.0])
        b = series([10.0, 20.0], times=[3.0, 4.0])
        with pytest.raises(AlignmentError):
            error_series(a, b)

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        a = series(rng.standard_normal(20))
        b = series(rng.standard_normal(20))
        assert np.allclose(error_series(a, b).values, -error_series(b, a).values)


class TestErrorStats:
    def _labels(self, n, los_mask):
        return SegmentLabels(times=np.arange(n, dtype=float),
                             is_los=np.asarray(los_mask, dtype=bool))

    def test_constant_error(self):
        eps = series([3.0] * 6)
        st = error_stats(eps, self._labels(6, [True] * 6))
        mu, sigma, n = st.cells[LOS]
        assert (mu, sigma, n) == (3.0, 0.0, 6)
        assert NLOS not in st.cells

    def test_two_point(self):
        eps = series([1.0, 3.0])
        st = error_stats(eps, self._labels(2, [False, False]))
        mu, sigma, n = st.cells[NLOS]
        assert mu == 2.0 and sigma == 1.0 and n == 2

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(-5, 5, size=50)
        eps = series(vals)
        st = error_stats(eps, self._labels(50, [True] * 50))
        mu, sigma, n = st.cells[LOS]
        mu_o = sum(vals) / 50
        sigma_o = math.sqrt(sum((mu_o - v) ** 2 for v in vals) / 50)
        assert mu == pytest.approx(mu_o, rel=1e-12)
        assert sigma == pytest.approx(sigma_o, rel=1e-12)

    def test_segmentation_partitions(self):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal(30)
        eps = series(vals)
        whole = error_stats(eps, self._labels(30, [True] * 30)).cells[LOS]
        also = error_stats(eps, self._labels(30, [False] * 30)).cells[NLOS]
        assert whole == also

    def test_permutation_invariant(self):
        vals = np.array([1.0, 5.0, -2.0, 0.5])
        a = error_stats(series(vals), self._labels(4, [True] * 4)).cells[LOS]
        b = error_stats(series(vals[::-1].copy()), self._labels(4, [True] * 4)).cells[LOS]
        assert a[0] == pytest.approx(b[0]) and a[1] == pytest.approx(b[1])

    def test_missing_excluded(self):
        eps = series([1.0, np.nan, 3.0])
        st = error_stats(eps, self._labels(3, [True] * 3))
        assert st.cells[LOS][2] == 2

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError, match="label times"):
            error_stats(series([1.0, 2.0]), SegmentLabels(times=[], is_los=[]))

    @pytest.mark.parametrize("times", [[0.2, 0.0, 0.1], [0.0, 0.1, 0.1],
                                       [0.0, math.nan, 0.2], [0.0, 0.1, math.inf]])
    def test_unsorted_or_non_finite_label_times_rejected(self, times):
        # the nearest-label lookup bisects the times: unsorted labels would
        # silently give wrong LOS/NLOS means
        with pytest.raises(ValueError, match="label times"):
            SegmentLabels(times=times, is_los=[True, False, False])


class TestReport:
    def _stats(self):
        out = {}
        for name, unit in (("gain", "dB"), ("delay_spread", "ns"),
                           ("lambda_1", "dB"), ("tx_rho_12", "")):
            out[name] = ErrorStats(metric=name, unit=unit,
                                   cells={LOS: (1.0, 0.5, 10), NLOS: (2.0, 0.25, 5)})
        return out

    def test_row_order(self):
        text, rows = render_report(self._stats())
        lines = [l.split()[0] for l in text.strip().splitlines()[2:]]
        assert lines == ["gain", "delay_spread", "lambda_1", "tx_rho_12"]

    def test_single_metric_single_segment(self):
        st = {"gain": ErrorStats(metric="gain", unit="dB",
                                 cells={LOS: (0.5, 0.1, 3)})}
        text, rows = render_report(st)
        assert "gain" in text
        assert len(rows) == 1

    def test_csv_round_trip(self, tmp_path):
        stats = self._stats()
        text = save_report(stats, tmp_path / "r.txt", tmp_path / "r.csv")
        assert text == (tmp_path / "r.txt").read_text() == render_report(stats)[0]
        with open(tmp_path / "r.csv", newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["metric", "segment", "mu", "sigma", "n"]
        back = {}
        for name, seg, mu, sigma, n in rows:
            back.setdefault(name, {})[seg] = (float(mu), float(sigma), int(n))
        assert back == {name: st.cells for name, st in stats.items()}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_report({})


def test_label_file_round_trip(tmp_path):
    lab = SegmentLabels(times=np.array([0.0, 0.1, 0.2]),
                        is_los=np.array([False, True, True]))
    p = tmp_path / "labels.csv"
    save_labels(lab, p)
    back = load_labels(p)
    assert np.array_equal(back.times, lab.times)
    assert np.array_equal(back.is_los, lab.is_los)
