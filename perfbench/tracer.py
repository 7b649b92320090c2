"""Span tracer for the benchmark's traced mode.

The tracer wraps public v2vchan functions from the outside, at the places
they are looked up: a module global such as
``v2vchan.raytracer.occlusion_test_batch`` (a name that ``raytracer``
imports from ``scene``) or a class attribute such as ``Surface.contains``.
Nothing under ``src/`` is edited.  A target that a later refactor removes is
reported as absent, not as an error, and its metrics read 0.

Each call records one span under a ``<layer>.<name>`` key, where the layer is
the v2vchan module.  Self time is a span's duration minus the time covered
by the spans it encloses, so summing self times never counts a nanosecond
twice.  Spans are aggregated in memory (calls, inclusive and self
nanoseconds per key) and written out with the run record.  Count hooks run
after a span closes; their time is charged to ``trace.hook``, not to any
layer, and a hook that no longer fits a refactored signature is recorded in
``hook_errors`` instead of failing the operation.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import math
import time

import numpy as np

LAYERS = ("scene", "raytracer", "pipeline", "channel", "antenna", "metrics",
          "compare", "cli")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_segments(counts, args, kwargs, result):
    counts["scene.occlusion_segments"] += len(np.atleast_2d(_arg(args, kwargs, 1, "starts")))


def _count_snapshot_paths(counts, args, kwargs, result):
    counts["raytracer.snapshots"] += 1
    for p in result:
        counts[f"raytracer.paths_{p.kind}"] += 1


def _count_step_paths(counts, args, kwargs, result):
    counts["channel.interp_calls"] += 1
    counts["channel.paths"] += len(result)


def _count_dropped(counts, args, kwargs, result):
    paths = _arg(args, kwargs, 0, "paths")
    config = _arg(args, kwargs, 4, "config")
    counts["channel.steps"] += 1
    if paths:
        delays = np.fromiter((p.delay for p in paths), float, len(paths))
        counts["channel.dropped_paths"] += int(
            (np.rint(delays * config.bandwidth) >= config.n_freq_bins).sum())


def _count_windows(counts, args, kwargs, result):
    counts["metrics.windows"] += len(result["gain"].times)
    for series in result.values():
        if hasattr(series, "kind"):  # a MetricSeries; APDP/DSD profiles have no NaN
            nan = np.isnan(series.values)
            counts["metrics.nan_windows"] += int(
                (nan.any(axis=1) if nan.ndim == 2 else nan).sum())


# (span key, module, attribute path, count hook).  The same function appears
# once per module that looks it up, because a refactor may change which
# module calls it.
TARGETS = (
    ("scene.load", "v2vchan.scene", "load_scene", None),
    ("scene.load", "v2vchan.scene", "load_trajectory", None),
    ("scene.load", "v2vchan.cli", "load_scene", None),
    ("scene.load", "v2vchan.cli", "load_trajectory", None),
    ("scene.occlusion", "v2vchan.scene", "occlusion_test", None),
    ("scene.occlusion", "v2vchan.scene", "occlusion_test_batch", _count_segments),
    ("scene.occlusion", "v2vchan.raytracer", "occlusion_test", None),
    ("scene.occlusion", "v2vchan.raytracer", "occlusion_test_batch", _count_segments),
    ("scene.contains", "v2vchan.scene", "Surface.contains", None),
    ("scene.tiles", "v2vchan.scene", "Scene.tiles", None),
    ("raytracer.snapshot", "v2vchan.pipeline", "trace_snapshot", _count_snapshot_paths),
    ("raytracer.los", "v2vchan.raytracer", "trace_los", None),
    ("raytracer.specular", "v2vchan.raytracer", "image_method_specular", None),
    ("raytracer.diffuse", "v2vchan.raytracer", "lambertian_diffuse", None),
    ("raytracer.dump_csv", "v2vchan.cli", "dump_paths_csv", None),
    ("pipeline.trace", "v2vchan.pipeline", "trace_trajectory", None),
    ("pipeline.trace", "v2vchan.cli", "trace_trajectory", None),
    ("pipeline.analyze", "v2vchan.pipeline", "analyze_tensor", _count_windows),
    ("pipeline.analyze", "v2vchan.cli", "analyze_tensor", _count_windows),
    ("channel.interp", "v2vchan.channel", "PathInterpolator.paths_at", _count_step_paths),
    ("channel.synth", "v2vchan.channel", "synthesize_cir", _count_dropped),
    ("channel.synthesize_tensor", "v2vchan.channel", "synthesize_tensor", None),
    ("channel.synthesize_tensor", "v2vchan.pipeline", "synthesize_tensor", None),
    ("channel.ctf", "v2vchan.pipeline", "cir_to_ctf", None),
    ("channel.ctf", "v2vchan.channel", "cir_to_ctf", None),
    ("channel.save_tensor", "v2vchan.channel", "save_tensor", None),
    ("channel.save_tensor", "v2vchan.cli", "save_tensor", None),
    ("channel.load_tensor", "v2vchan.channel", "load_tensor", None),
    ("channel.load_tensor", "v2vchan.cli", "load_tensor", None),
    ("channel.noise", "v2vchan.channel", "add_measurement_noise", None),
    ("antenna.element_gains", "v2vchan.antenna", "ArrayLayout.element_gains", None),
    ("metrics.apdp", "v2vchan.pipeline", "compute_apdp", None),
    ("metrics.dsd", "v2vchan.pipeline", "compute_dsd", None),
    ("metrics.spread", "v2vchan.pipeline", "channel_gain", None),
    ("metrics.spread", "v2vchan.pipeline", "rms_delay_spread", None),
    ("metrics.spread", "v2vchan.pipeline", "rms_doppler_spread", None),
    ("metrics.eigen", "v2vchan.pipeline", "eigenvalue_series", None),
    ("metrics.correlation", "v2vchan.pipeline", "correlation_matrix_series", None),
    ("metrics.noise_floor", "v2vchan.pipeline", "estimate_noise_floor", None),
    ("metrics.noise_floor", "v2vchan.pipeline", "estimate_noise_floor_dsd", None),
    ("metrics.noise_floor", "v2vchan.pipeline", "apply_noise_threshold", None),
    ("metrics.csv_write", "v2vchan.metrics", "series_to_csv", None),
    ("metrics.csv_write", "v2vchan.metrics", "profile_to_csv", None),
    ("metrics.csv_read", "v2vchan.metrics", "series_from_csv", None),
    ("compare.labels", "v2vchan.compare", "segment_los_nlos", None),
    ("compare.labels", "v2vchan.compare", "load_labels", None),
    ("compare.labels", "v2vchan.compare", "save_labels", None),
    ("compare.stats", "v2vchan.compare", "error_series", None),
    ("compare.stats", "v2vchan.compare", "error_stats", None),
    ("compare.stats", "v2vchan.compare", "render_report", None),
    ("compare.stats", "v2vchan.compare", "save_report", None),
    ("cli.main", "v2vchan.cli", "main", None),
    ("cli.main", "v2vchan.cli", "load_run_config", None),
    ("cli.main", "v2vchan.cli", "cmd_trace", None),
    ("cli.main", "v2vchan.cli", "cmd_synthesize", None),
    ("cli.main", "v2vchan.cli", "cmd_analyze", None),
    ("cli.main", "v2vchan.cli", "cmd_compare", None),
)


class Tracer:
    """Aggregated spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # key -> [calls, incl_ns, self_ns]
        self.counts: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()
        self._open: list[list[int]] = []       # child-ns accumulator per open span

    def _close(self, key, dur, child):
        st = self.spans.setdefault(key, [0, 0, 0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._open:
            self._open[-1][0] += dur

    def _wrap(self, key, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            acc = [0]
            tracer._open.append(acc)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - t0
                tracer._open.pop()
                tracer._close(key, dur, acc[0])
            if hook is not None:
                h0 = time.perf_counter_ns()
                try:
                    hook(tracer.counts, args, kwargs, result)
                except Exception as e:  # a refactored signature must not fail the operation
                    tracer.hook_errors.add(f"{key}: {e!r}")
                tracer._close("trace.hook", time.perf_counter_ns() - h0, 0)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        patches = []
        absent = []
        try:
            for key, module_name, path, hook in TARGETS:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    absent.append(f"{module_name}:{path}")
                    continue
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name, None)
                fn = vars(owner).get(attr) if owner is not None else None
                if not callable(fn):
                    absent.append(f"{module_name}:{path}")
                    continue
                setattr(owner, attr, self._wrap(key, fn, hook))
                patches.append((owner, attr, fn))
            self.absent = absent
            yield self
        finally:
            for owner, attr, fn in reversed(patches):
                setattr(owner, attr, fn)

    def self_s(self, key: str) -> float:
        return self.spans.get(key, (0, 0, 0))[2] / 1e9

    def incl_s(self, key: str) -> float:
        return self.spans.get(key, (0, 0, 0))[1] / 1e9

    def calls(self, key: str) -> int:
        return self.spans.get(key, (0, 0, 0))[0]

    def layer_self_s(self, layer: str) -> float:
        return sum(st[2] for key, st in self.spans.items()
                   if key.split(".")[0] == layer) / 1e9

    def record(self) -> dict:
        return {"spans": {k: {"calls": c, "incl_s": i / 1e9, "self_s": s / 1e9}
                          for k, (c, i, s) in sorted(self.spans.items())},
                "counts": dict(sorted(self.counts.items())),
                "absent": self.absent, "hook_errors": sorted(self.hook_errors)}


def _per(total, n):
    return total / n if n else 0.0


def shares(tracer: Tracer, op_wall_s: float, dominant: tuple[str, ...]) -> dict:
    """Percent of the traced wall time spent in each layer's self time, and in
    the layers or span keys the workload is expected to be dominated by."""
    wall = op_wall_s if op_wall_s > 0 else math.inf
    out = {layer: 100.0 * tracer.layer_self_s(layer) / wall for layer in LAYERS}
    out["+".join(dominant)] = 100.0 * sum(
        tracer.layer_self_s(k) if k in LAYERS else tracer.self_s(k) for k in dominant) / wall
    return out


def layer_metrics(op_tracer: Tracer, setup_tracer: Tracer, n_ops: int,
                  op_wall_s: float, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per operation, from the traced operations.

    ``scene.load_s`` and ``channel.save_tensor_s`` add the traced set-up's
    time, since those calls happen in set-up on some workloads and inside
    the operation on others.
    """
    t, n = op_tracer, max(n_ops, 1)
    c = t.counts
    snaps = c.get("raytracer.snapshots", 0)
    steps = c.get("channel.steps", 0)
    wall = op_wall_s if op_wall_s > 0 else math.inf
    m: dict[str, tuple[float, str]] = {}

    def add(name, value, unit):
        m[name] = (float(value), unit)

    add("scene.load_s", setup_tracer.incl_s("scene.load") + t.incl_s("scene.load") / n, "s")
    add("scene.occlusion_ms", 1e3 * t.self_s("scene.occlusion") / n, "ms")
    add("scene.occlusion_segments", c.get("scene.occlusion_segments", 0) / n, "count")
    add("scene.contains_ms", 1e3 * t.self_s("scene.contains") / n, "ms")
    add("scene.contains_calls", t.calls("scene.contains") / n, "count")
    add("raytracer.snapshot_ms", 1e3 * _per(t.incl_s("raytracer.snapshot"), snaps), "ms")
    for kind in ("los", "specular", "diffuse"):
        add(f"raytracer.{kind}_ms", 1e3 * _per(t.self_s(f"raytracer.{kind}"), snaps), "ms")
        add(f"raytracer.paths_{kind}", _per(c.get(f"raytracer.paths_{kind}", 0), snaps), "count")
    add("raytracer.snapshots", snaps / n, "count")
    add("raytracer.dump_csv_s", t.self_s("raytracer.dump_csv") / n, "s")
    add("pipeline.trace_s", t.incl_s("pipeline.trace") / n, "s")
    add("pipeline.analyze_s", t.incl_s("pipeline.analyze") / n, "s")
    add("channel.interp_ms_per_step", 1e3 * _per(t.self_s("channel.interp"), steps), "ms")
    add("channel.synth_ms_per_step", 1e3 * _per(t.self_s("channel.synth"), steps), "ms")
    add("channel.synthesize_tensor_self_s", t.self_s("channel.synthesize_tensor") / n, "s")
    add("channel.steps", steps / n, "count")
    add("channel.paths_per_step",
        _per(c.get("channel.paths", 0), c.get("channel.interp_calls", 0)), "count")
    add("channel.dropped_paths", c.get("channel.dropped_paths", 0) / n, "count")
    add("channel.ctf_s", t.self_s("channel.ctf") / n, "s")
    add("channel.save_tensor_s",
        setup_tracer.self_s("channel.save_tensor") + t.self_s("channel.save_tensor") / n, "s")
    add("channel.load_tensor_s", t.self_s("channel.load_tensor") / n, "s")
    add("channel.noise_s", t.self_s("channel.noise") / n, "s")
    add("antenna.element_gains_ms_per_step",
        1e3 * _per(t.self_s("antenna.element_gains"), steps), "ms")
    for name in ("apdp", "dsd", "spread", "eigen", "correlation", "noise_floor", "csv_write"):
        add(f"metrics.{name}_s", t.self_s(f"metrics.{name}") / n, "s")
    add("metrics.windows", c.get("metrics.windows", 0) / n, "count")
    add("metrics.nan_windows", c.get("metrics.nan_windows", 0) / n, "count")
    add("compare.stats_s", t.self_s("compare.stats") / n, "s")
    add("compare.labels_s", t.self_s("compare.labels") / n, "s")
    add("cli.self_s", t.self_s("cli.main") / n, "s")
    for layer in LAYERS:
        if layer != "cli":
            add(f"{layer}.self_s", t.layer_self_s(layer) / n, "s")
    add("trace.coverage_pct", 100.0 * sum(map(t.layer_self_s, LAYERS)) / wall, "%")
    add("trace.overhead_ratio", overhead_ratio, "ratio")
    add("trace.hook_s", t.self_s("trace.hook") / n, "s")
    add("trace.absent_targets", len(t.absent), "count")
    add("trace.ops", n_ops, "count")
    return m
