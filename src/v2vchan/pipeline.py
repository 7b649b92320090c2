"""Pipeline glue: trace along trajectories, synthesize, analyze.

Tracing runs over contiguous runs of coarse snapshots, and synthesis
(:func:`channel.synthesize_tensor`) over chunks of coarse intervals, both
as jobs of :func:`channel._run_jobs`: in process at one worker, on spawned
worker processes above one.  Results are collected in snapshot (step)
order, so the output does not depend on the worker count.
"""

from __future__ import annotations

import numpy as np

# cir_to_ctf, correlation_matrix_series, eigenvalue_series and
# synthesize_tensor are re-exported: perfbench's tracer hooks them by name in
# this module.
from .channel import (ChannelTensor, _job_count, _run_jobs, cir_to_ctf,  # noqa: F401
                      synthesize_tensor)
from .metrics import (apply_noise_threshold, channel_gain,  # noqa: F401
                      compute_apdp, compute_dsd, correlation_matrix_series,
                      eigenvalue_series, estimate_noise_floor,
                      estimate_noise_floor_dsd, frequency_metrics,
                      rms_delay_spread, rms_doppler_spread)
from .raytracer import PathSet, TracerConfig, trace_snapshot
from .scene import Scene, Trajectory


def _trace_run(scene: Scene, positions, tracer: TracerConfig) -> list[PathSet]:
    """The path sets of a run of snapshots, one per (tx, rx) position pair.
    :func:`trace_snapshot` is looked up in this module, so a hook on
    ``pipeline.trace_snapshot`` sees every snapshot traced in process."""
    return [trace_snapshot(scene, tx, rx, tracer) for tx, rx in positions]


#: Snapshots per tracing job, at least: a trace shorter than two of these
#: runs in process, since a spawned worker takes a few tenths of a second to
#: start, about as long as tracing one such run takes.
_RUN_SNAPSHOTS = 32


def trace_trajectory(scene: Scene, tx_traj: Trajectory, rx_traj: Trajectory,
                     tracer: TracerConfig, coarse_dt: float,
                     t0: float | None = None, t1: float | None = None,
                     workers: int = 1):
    """Ray-trace at every coarse time step; returns the (t, PathSet) list.

    The steps run from the start of the trajectories' common span (or
    ``t0``) for as many whole ``coarse_dt`` as fit before its end (or
    ``t1``); a span that is not a whole number of steps ends short of it.

    The snapshots are cut into contiguous runs of about equal length, four
    per worker or, if fewer, as many of at least ``_RUN_SNAPSHOTS`` as fit,
    each one job of :func:`channel._run_jobs` on ``workers`` processes.
    Before a pool starts, the scene's tile table is built here once, so
    every job's pickled scene carries it and no worker rebuilds it.
    A ``coarse_dt`` that is not finite and > 0, or a non-finite ``t0`` or
    ``t1``, raises ValueError before any work.
    """
    if not (np.isfinite(coarse_dt) and coarse_dt > 0):
        raise ValueError(f"coarse_dt must be finite and > 0, not {coarse_dt}")
    for name, t in (("t0", t0), ("t1", t1)):
        if t is not None and not np.isfinite(t):
            raise ValueError(f"{name} must be finite, not {t}")
    lo = max(tx_traj.t[0], rx_traj.t[0]) if t0 is None else t0
    hi = min(tx_traj.t[-1], rx_traj.t[-1]) if t1 is None else t1
    if hi < lo:
        raise ValueError("trajectories do not overlap in time")
    # the slack keeps a whole span whose quotient rounds just below, such as
    # 6.0 / 0.01 = 599.999..., at its last step
    n = int((hi - lo) / coarse_dt + 1e-9) + 1
    size = -(-n // max(1, min(_job_count(workers), n // _RUN_SNAPSHOTS)))
    times = lo + np.arange(n) * coarse_dt
    positions = list(zip(tx_traj.at(times)[0], rx_traj.at(times)[0]))
    jobs = [(scene, positions[k:k + size], tracer) for k in range(0, n, size)]
    workers = min(workers, len(jobs))
    if workers > 1 and tracer.enable_diffuse:
        scene.tiles(tracer.tile_size)
    paths = [p for run in _run_jobs(_trace_run, jobs, workers) for p in run]
    return [(float(t), p) for t, p in zip(times, paths)]


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
