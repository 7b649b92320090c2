"""Pipeline glue: trace along trajectories, synthesize, analyze.

Tracing parallelizes over coarse snapshots, and synthesis over chunks of
coarse intervals, each with a process pool; results are collected in
snapshot (step) order so the output is deterministic regardless of the
worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

# cir_to_ctf, correlation_matrix_series and eigenvalue_series are re-exported:
# perfbench's tracer hooks them by name in this module.
from .channel import (ChannelTensor, PathInterpolator, SimConfig,  # noqa: F401
                      cir_to_ctf, synthesize_tensor)
from .metrics import (apply_noise_threshold, channel_gain,  # noqa: F401
                      compute_apdp, compute_dsd, correlation_matrix_series,
                      eigenvalue_series, estimate_noise_floor,
                      estimate_noise_floor_dsd, frequency_metrics,
                      rms_delay_spread, rms_doppler_spread)
from .raytracer import TracerConfig, trace_snapshot
from .scene import Scene, Trajectory

def _trace_one(args):
    scene, tx, rx, config = args
    return trace_snapshot(scene, tx, rx, config)


def trace_trajectory(scene: Scene, tx_traj: Trajectory, rx_traj: Trajectory,
                     tracer: TracerConfig, coarse_dt: float,
                     t0: float | None = None, t1: float | None = None,
                     workers: int = 1):
    """Ray-trace at every coarse time step; returns the (t, PathSet) list."""
    lo = max(tx_traj.t[0], rx_traj.t[0]) if t0 is None else t0
    hi = min(tx_traj.t[-1], rx_traj.t[-1]) if t1 is None else t1
    if hi < lo:
        raise ValueError("trajectories do not overlap in time")
    n = int(round((hi - lo) / coarse_dt)) + 1
    times = lo + np.arange(n) * coarse_dt
    jobs = []
    for t in times:
        tx_pos, _ = tx_traj.at(t)
        rx_pos, _ = rx_traj.at(t)
        jobs.append((scene, tx_pos, rx_pos, tracer))
    if workers <= 1 or len(jobs) < 4:
        results = [_trace_one(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trace_one, jobs, chunksize=max(1, len(jobs) // (4 * workers))))
    return [(float(t), paths) for t, paths in zip(times, results)]


def synthesize_from_snapshots(snapshots, tx_traj: Trajectory, rx_traj: Trajectory,
                              tx_array, rx_array, config: SimConfig,
                              times: np.ndarray | None = None,
                              workers: int = 1) -> ChannelTensor:
    """Interpolate traced snapshots and synthesize the delay-domain tensor
    on ``workers`` processes."""
    interp = PathInterpolator(snapshots)
    return synthesize_tensor(
        interp, tx_array, rx_array, config, times=times,
        tx_heading=tx_traj.heading, rx_heading=rx_traj.heading, workers=workers)


#: Unit of every MetricSeries that :func:`analyze_tensor` returns, by name.
#: The CLI writes each to ``<name>.csv`` (as it does the APDP and DSD
#: profiles) and reads them back with these units to compare them.
SERIES_UNITS = {"gain": "dB", "delay_spread": "s", "doppler_spread": "Hz",
                "eigenvalues": "dB", "correlation_tx": "", "correlation_rx": ""}


def analyze_tensor(tensor: ChannelTensor, n_avg: int, stride: int | None = None,
                   threshold: bool = False):
    """Compute the full metric set from a delay-domain tensor.

    Returns a dict with a MetricSeries per :data:`SERIES_UNITS` name (gain,
    spreads, eigenvalues and per-end correlation magnitudes), keyed by its
    ``kind``, then the ``apdp`` and ``dsd`` profiles.  When ``threshold`` is
    set, the measurement-style noise thresholding (floor plus 3 dB) is
    applied to the APDP and DSD before gain and spreads, each profile with
    its own estimated floor.

    The eigenvalues and correlations come from one sliding pass over the
    delay tensor (:func:`metrics.frequency_metrics`) that transforms each
    time chunk to the frequency domain once and never holds the CTF, so
    beside the tensor only chunk- and window-sized buffers are live.
    """
    if tensor.domain != "delay":
        raise ValueError("analyze_tensor expects a delay-domain tensor")
    apdp = compute_apdp(tensor, n_avg=n_avg, stride=stride)
    dsd = compute_dsd(tensor, n_avg=n_avg, stride=stride)
    if threshold:
        apdp = apply_noise_threshold(apdp, estimate_noise_floor(apdp))
        dsd = apply_noise_threshold(dsd, estimate_noise_floor_dsd(dsd))
    series = (channel_gain(apdp), rms_delay_spread(apdp), rms_doppler_spread(dsd),
              *frequency_metrics(tensor, n_avg=n_avg, stride=stride))
    return {**{s.kind: s for s in series}, "apdp": apdp, "dsd": dsd}
