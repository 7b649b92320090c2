"""The benchmark's three workloads: set-up, one operation, output check.

Every workload is a closed loop with one client: one operation at a time in
one process, tracing with one worker.  Operations call v2vchan only through
module attributes (``pipeline.trace_trajectory``, ``cli.main``) so that the
traced mode's wrappers see every call.

Inputs come from the seed.  On the two driving workloads the seed shifts
each lane by up to +-0.5 m and places the slice start a random fraction of a
coarse step before the line-of-sight flip, so a fixed number of snapshots
is NLOS whatever the seed: inputs change, the work per operation does not.
On measured-analysis it draws the taps (delay, Doppler shift, amplitude,
array phases) and the noise seed.

Outputs of the default seed at full size are compared with
``reference.json`` within ``RTOL``, never byte for byte, so floating-point
changes the roadmap allows do not read as failures.  Other seeds and the
tiny size are checked by invariants only.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from v2vchan import antenna, channel, cli, compare, pipeline, raytracer, scenarios, scene

DEFAULT_SEED = 0
RTOL = 1e-6
COARSE_DT = 10e-3
SPEED = 10.0
ANTENNA_HEIGHT = 1.73
SCENE_FILE = "intersection_plain.json"
PATH_DUMP_HEADER = "snapshot_t,kind,order,length_m,delay_s,gain_db,n_interactions,points"
SERIES_FILES = ("gain", "delay_spread", "doppler_spread", "eigenvalues",
                "correlation_tx", "correlation_rx")


def _los_flip_time(sc, tx, rx, lo=3.0, hi=5.0) -> float:
    """Time at which the line of sight clears, by bisection on the LOS test."""
    def los(t):
        return raytracer.trace_los(sc, tx.at(t)[0], rx.at(t)[0]) is not None

    if los(lo) or not los(hi):
        raise RuntimeError(f"no single NLOS->LOS flip between {lo} s and {hi} s")
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if los(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _drive(seed: int, n_snap: int, n_nlos: int) -> SimpleNamespace:
    """Bundled scene, lane-jittered approaches and a slice around the flip.

    Snapshot ``i`` of the slice sits at ``t0 + i * COARSE_DT``; snapshots
    ``0 .. n_nlos - 1`` are NLOS and the rest LOS, at least 5 % of a coarse
    step away from the flip.
    """
    rng = np.random.default_rng(seed)
    dy, dx = rng.uniform(-0.5, 0.5, 2)
    frac = rng.uniform(0.05, 0.95)
    sc = scene.load_scene(scenarios.data_path(SCENE_FILE))
    tx = scene.straight_trajectory((-55.0, -4.25 + dy, ANTENNA_HEIGHT), 0.0, SPEED,
                                   6.0, 0.5, ANTENNA_HEIGHT)
    rx = scene.straight_trajectory((3.5 + dx, -55.0, ANTENNA_HEIGHT), 90.0, SPEED,
                                   6.0, 0.5, ANTENNA_HEIGHT)
    t0 = _los_flip_time(sc, tx, rx) - (n_nlos - 1 + frac) * COARSE_DT
    times = t0 + np.arange(n_snap) * COARSE_DT
    return SimpleNamespace(scene=sc, tx=tx, rx=rx, times=times, n_nlos=n_nlos)


def _mismatch(name: str, got, want, rtol: float = RTOL) -> list[str]:
    """Empty when ``got`` matches ``want`` within ``rtol`` (NaN where NaN)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, reference {want.shape}"]
    nan = np.isnan(want)
    if not np.array_equal(np.isnan(got), nan):
        return [f"{name}: NaN windows differ from the reference"]
    err = np.abs(got[~nan] - want[~nan])
    lim = rtol * np.abs(want[~nan])
    if np.any(err > lim):
        worst = float(np.max(err / np.maximum(np.abs(want[~nan]), 1e-300)))
        return [f"{name}: relative error {worst:.3g} above {rtol:g}"]
    return []


def _jsonable(values) -> list:
    """Nested lists with None for NaN, so the reference is strict JSON."""
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), None, a).tolist()


class DriveTransition:
    """Library chain trace -> synthesize -> analyze -> segment on a slice
    that crosses the NLOS->LOS flip.  Interpolation and synthesis do most of
    the work, tracing the rest."""

    name = "drive-transition"
    dominant = ("channel", "antenna")
    sizes = {"full": dict(n_snap=4, n_nlos=2, n_avg=16, stride=4),
             "tiny": dict(n_snap=3, n_nlos=1, n_avg=8, stride=4)}
    tracer_config = raytracer.TracerConfig(max_order=2, tile_size=1.0,
                                           enable_diffuse=True, cull_db=-40.0)
    sim = channel.SimConfig(n_freq_bins=193, coarse_trace_dt=COARSE_DT, fine_dt=625e-6)

    def setup(self, seed: int, workdir: Path, size: str) -> SimpleNamespace:
        p = self.sizes[size]
        geo = _drive(seed, p["n_snap"], p["n_nlos"])
        return SimpleNamespace(geo=geo, arrays=antenna.default_sharkfin_array(), **p)

    def run(self, s: SimpleNamespace) -> dict:
        geo = s.geo
        snaps = pipeline.trace_trajectory(geo.scene, geo.tx, geo.rx, self.tracer_config,
                                          COARSE_DT, t0=geo.times[0], t1=geo.times[-1],
                                          workers=1)
        tensor = channel.synthesize_tensor(channel.PathInterpolator(snaps), s.arrays,
                                           s.arrays, self.sim, tx_heading=geo.tx.heading,
                                           rx_heading=geo.rx.heading)
        results = pipeline.analyze_tensor(tensor, n_avg=s.n_avg, stride=s.stride)
        labels = compare.segment_los_nlos(snaps, results["gain"].times)
        return {"snaps": snaps, "tensor": tensor, "results": results, "labels": labels}

    def check(self, s, out, ref) -> list[str]:
        problems = []
        snaps, labels, res = out["snaps"], out["labels"], out["results"]
        if not np.isfinite(out["tensor"].data).all():
            problems.append("tensor has non-finite values")
        los = [any(p.kind == "los" for p in paths) for _, paths in snaps]
        if los != [i >= s.n_nlos for i in range(s.n_snap)]:
            problems.append(f"LOS per snapshot {los}; expected the flip after "
                            f"snapshot {s.n_nlos - 1}")
        is_los = labels.is_los
        flips = int(np.sum(is_los[1:] != is_los[:-1]))
        if flips != 1 or is_los[0] or not is_los[-1]:
            problems.append(f"labels {is_los.astype(int).tolist()}: expected one NLOS->LOS flip")
        gain = res["gain"].values
        spreads = np.concatenate([res["delay_spread"].values, res["doppler_spread"].values])
        if not (np.isfinite(gain).all() and np.isfinite(spreads).all() and spreads.min() >= 0):
            problems.append("gain or spread series not finite and non-negative")
        elif flips == 1 and not gain[is_los].mean() > gain[~is_los].mean():
            problems.append("mean LOS gain not above mean NLOS gain")
        if ref is not None:
            problems += _mismatch("paths per kind", self._path_counts(snaps), ref["paths"], 0.0)
            for key in ("gain", "delay_spread", "doppler_spread"):
                problems += _mismatch(key, res[key].values, ref[key])
        return problems

    @staticmethod
    def _path_counts(snaps) -> list[list[int]]:
        return [[sum(p.kind == k for p in paths) for k in ("los", "specular", "diffuse")]
                for _, paths in snaps]

    def reference(self, s, out) -> dict:
        res = out["results"]
        return {"paths": self._path_counts(out["snaps"]),
                **{k: _jsonable(res[k].values)
                   for k in ("gain", "delay_spread", "doppler_spread")}}


class ImagesOrder3:
    """``v2vchan trace`` at specular order 3 without diffuse scattering:
    image-method enumeration and point-in-polygon tests do the work, plus
    the path-dump CSV writer."""

    name = "images-order3"
    dominant = ("raytracer.specular", "scene.contains")
    sizes = {"full": dict(n_snap=1, n_nlos=0), "tiny": dict(n_snap=4, n_nlos=2)}

    def setup(self, seed: int, workdir: Path, size: str) -> SimpleNamespace:
        p = self.sizes[size]
        geo = _drive(seed, p["n_snap"], p["n_nlos"])
        ends = {}
        for end, traj in (("tx", geo.tx), ("rx", geo.rx)):
            pos, vel = (np.array(a) for a in zip(*(traj.at(t) for t in geo.times)))
            ends[end] = pos
            scene.save_trajectory(scene.Trajectory(geo.times, pos, vel, ANTENNA_HEIGHT),
                                  workdir / f"{end}.csv")
        config = {"scene": str(scenarios.data_path(SCENE_FILE)),
                  "tx_trajectory": str(workdir / "tx.csv"),
                  "rx_trajectory": str(workdir / "rx.csv"),
                  "coarse_trace_dt": COARSE_DT, "max_order": 3, "enable_diffuse": False}
        (workdir / "trace.json").write_text(json.dumps(config))
        return SimpleNamespace(config=workdir / "trace.json", out_dir=workdir / "images",
                               workers=1,
                               direct=np.linalg.norm(ends["tx"] - ends["rx"], axis=1), **p)

    def run(self, s: SimpleNamespace) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["trace", "-c", str(s.config), "-o", str(s.out_dir),
                             "--workers", str(s.workers)])

    @staticmethod
    def read_dump(s) -> list[tuple[str, list[list[str]]]]:
        """(header, rows) per snapshot file, in snapshot order."""
        dump = []
        for path in sorted((s.out_dir / "trace").glob("paths_*.csv")):
            with open(path, newline="") as f:
                rows = list(csv.reader(f))
            dump.append((",".join(rows[0]) if rows else "", rows[1:]))
        return dump

    @staticmethod
    def _summary(dump):
        """Path count per kind and order, and sorted lengths, per snapshot."""
        counts = [dict(collections.Counter(f"{r[1]}{r[2]}" for r in rows)) for _, rows in dump]
        lengths = [sorted(float(r[3]) for r in rows) for _, rows in dump]
        return counts, lengths

    def check(self, s, code, ref) -> list[str]:
        if code != 0:
            return [f"v2vchan trace exited with {code}"]
        dump = self.read_dump(s)
        if len(dump) != s.n_snap:
            return [f"{len(dump)} path dumps, expected {s.n_snap}"]
        problems = []
        for i, (header, rows) in enumerate(dump):
            kinds = [r[1] for r in rows]
            if header != PATH_DUMP_HEADER:
                problems.append(f"snapshot {i}: header {header!r}")
                continue
            if (kinds.count("los") != int(i >= s.n_nlos) or "diffuse" in kinds
                    or "specular" not in kinds):
                problems.append(f"snapshot {i}: path kinds {sorted(set(kinds))} with "
                                f"{kinds.count('los')} LOS")
            for r in rows:
                order, length, delay, n_int = int(r[2]), float(r[3]), float(r[4]), int(r[6])
                if (length < s.direct[i] * (1 - 1e-12) or n_int != order
                        or not 0 <= order <= 3
                        or abs(delay * raytracer.SPEED_OF_LIGHT - length) > 1e-9 * length):
                    problems.append(f"snapshot {i}: inconsistent path row {r[:7]}")
                    break
        if ref is not None and not problems:
            counts, lengths = self._summary(dump)
            if counts != ref["counts"]:
                problems.append(f"path counts {counts}, reference {ref['counts']}")
            else:
                for i, (got, want) in enumerate(zip(lengths, ref["lengths"])):
                    problems += _mismatch(f"snapshot {i} path lengths", got, want)
        return problems

    def reference(self, s, code) -> dict:
        counts, lengths = self._summary(self.read_dump(s))
        return {"counts": counts, "lengths": lengths}


class MeasuredAnalysis:
    """``v2vchan analyze`` then ``v2vchan compare`` on a seeded, sounder-shaped
    delay tensor: no tracing or synthesis, so metrics, tensor reads, CSV
    writes and compare do the work."""

    name = "measured-analysis"
    dominant = ("metrics",)
    sizes = {"full": dict(n_time=222, n_bins=769, n_avg=111, stride=37, n_taps=12),
             "tiny": dict(n_time=48, n_bins=128, n_avg=16, stride=8, n_taps=6)}
    n_elements = 4
    snapshot_dt = 307.2e-6
    bandwidth = 240e6
    carrier = 5.6e9
    snr_db = 20.0   # total signal power over total noise power per antenna pair

    def setup(self, seed: int, workdir: Path, size: str) -> SimpleNamespace:
        p = self.sizes[size]
        n_t, n_b, k, m = p["n_time"], p["n_bins"], p["n_taps"], self.n_elements
        rng = np.random.default_rng(seed)
        # taps stay out of the last delay quarter, where the noise floor is estimated
        bins = rng.integers(1, n_b // 4, k)
        doppler = rng.uniform(-500.0, 500.0, k)
        amp = 10.0 ** (rng.uniform(-110.0, -80.0, k) / 20.0) * np.exp(2j * np.pi * rng.random(k))
        steer_rx = np.exp(2j * np.pi * rng.random((k, m)))
        steer_tx = np.exp(2j * np.pi * rng.random((k, m)))
        noise_seed = int(rng.integers(2 ** 31))
        t = np.arange(n_t) * self.snapshot_dt
        taps = amp * np.exp(2j * np.pi * doppler * t[:, None])             # (T, K)
        data = np.zeros((n_t, m, m, n_b), dtype=complex)
        for i in range(k):
            data[..., bins[i]] += (taps[:, i, None, None]
                                   * steer_rx[i][:, None] * steer_tx[i][None, :])
        tensor_path = workdir / "sounder.v2vc"
        channel.save_tensor(channel.ChannelTensor("delay", data, 0.0, self.snapshot_dt, 0.0,
                                                  1.0 / self.bandwidth, self.carrier),
                            tensor_path)
        windows = {"n_avg": p["n_avg"], "stride": p["stride"]}
        ref_dir, out_dir = workdir / "reference", workdir / "measured"
        (workdir / "reference.json").write_text(json.dumps({**windows, "output_dir": str(ref_dir)}))
        noise_power = float(np.sum(np.abs(amp) ** 2)) / (n_b * 10.0 ** (self.snr_db / 10.0))
        (workdir / "measured.json").write_text(json.dumps(
            {**windows, "output_dir": str(out_dir), "noise_threshold": True,
             "noise_power": noise_power, "noise_seed": noise_seed}))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", str(tensor_path), "-c", str(workdir / "reference.json")])
        if code != 0:
            raise RuntimeError(f"reference analysis exited with {code}")
        times = self.read_series(ref_dir, "gain")[0]
        flip = int(rng.integers(1, len(times)))
        compare.save_labels(compare.SegmentLabels(times, np.arange(len(times)) >= flip),
                            workdir / "labels.csv")
        return SimpleNamespace(tensor=tensor_path, config=workdir / "measured.json",
                               ref_dir=ref_dir, out_dir=out_dir, labels=workdir / "labels.csv",
                               cmp_dir=workdir / "compare", n_windows=len(times))

    def run(self, s: SimpleNamespace) -> tuple[int, int]:
        with contextlib.redirect_stdout(io.StringIO()):
            analyzed = cli.main(["analyze", str(s.tensor), "-c", str(s.config)])
            compared = cli.main(["compare", str(s.ref_dir), str(s.out_dir),
                                 "--labels", str(s.labels), "-o", str(s.cmp_dir)])
        return analyzed, compared

    @staticmethod
    def read_series(directory: Path, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) of a metric CSV; empty fields read as NaN."""
        with open(directory / f"{name}.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        vals = np.array([[float(c) if c else math.nan for c in r[1:]] for r in rows])
        return np.array([float(r[0]) for r in rows]), vals

    @staticmethod
    def profile_sums(directory: Path, name: str) -> np.ndarray:
        with open(directory / f"{name}.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        return np.array([sum(float(c) for c in r[1:]) for r in rows])

    def _outputs(self, s):
        series = {name: self.read_series(s.out_dir, name)[1] for name in SERIES_FILES}
        nan_windows = sum(int(np.isnan(v).any(axis=1).sum()) for v in series.values())
        sums = {name: self.profile_sums(s.out_dir, name) for name in ("apdp", "dsd")}
        return series, nan_windows, sums

    def check(self, s, codes, ref) -> list[str]:
        if codes != (0, 0):
            return [f"analyze/compare exited with {codes}"]
        try:
            series, nan_windows, sums = self._outputs(s)
            with open(s.cmp_dir / "report.csv", newline="") as f:
                report = list(csv.reader(f))[1:]
        except (OSError, ValueError, IndexError) as e:
            return [f"unreadable output: {e}"]
        problems = []
        if any(len(v) != s.n_windows for v in series.values()):
            problems.append(f"metric series do not all have {s.n_windows} windows")
        elif np.any(np.abs(series["gain"] - self.read_series(s.ref_dir, "gain")[1]) > 1.0):
            problems.append("noisy gain more than 1 dB from the noise-free gain")
        cells = [r for r in report if all(math.isfinite(float(x)) for x in r[2:5])]
        if len(report) != 38 or len(cells) != 38:
            problems.append(f"report has {len(cells)} finite cells of {len(report)}, expected 38")
        if ref is None:
            if nan_windows:
                problems.append(f"{nan_windows} NaN windows")
            return problems
        if nan_windows != ref["nan_windows"]:
            problems.append(f"{nan_windows} NaN windows, reference {ref['nan_windows']}")
        for name in SERIES_FILES:
            problems += _mismatch(name, series[name], ref[name])
        for name in ("apdp", "dsd"):
            problems += _mismatch(f"{name} row sums", sums[name], ref[f"{name}_sums"])
        return problems

    def reference(self, s, codes) -> dict:
        series, nan_windows, sums = self._outputs(s)
        return {"nan_windows": nan_windows,
                **{k: _jsonable(v) for k, v in series.items()},
                **{f"{k}_sums": _jsonable(v) for k, v in sums.items()}}


WORKLOADS = {w.name: w for w in (DriveTransition(), ImagesOrder3(), MeasuredAnalysis())}
