"""Batch front-end: trace -> synthesize -> analyze -> compare.

Runs are driven by a JSON config file; every flag mirrors a config key and
flags win.  Exit codes: 0 on success, 2 for configuration problems (bad
flags, missing or unreadable files, invalid values, trajectories without a
common time span, analysis windows the tensor cannot hold), 3 for data
problems (malformed scene, trajectory, tensor, metric or label files).  Any
other error is a defect and raises with its traceback.  ``--workers`` (the
``workers`` key, default 1) sets the number of tracing and synthesis
processes, started with ``spawn`` above one; results do not depend on it.

Subcommands::

    v2vchan trace          -c run.json [-o OUTDIR]
    v2vchan synthesize     -c run.json [-o OUTDIR]
    v2vchan analyze        TENSOR [-c run.json] [-o OUTDIR]
    v2vchan compare        DIR_A DIR_B [--labels FILE] [-o OUTDIR]
    v2vchan scene-validate SCENE
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import channel as chan
from . import compare as cmp
from . import metrics as met
from .antenna import default_sharkfin_array
from .channel import SimConfig, TensorFormatError, load_tensor, save_tensor
from .pipeline import SERIES_UNITS, analyze_tensor, trace_trajectory
from .raytracer import TracerConfig, dump_paths_csv, PATH_DUMP_HEADER
from .scene import (GeometryError, MaterialReferenceError, SceneFormatError,
                    _read_text, load_scene, load_trajectory)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One batch run: the synthesis and tracer configs plus the run-only keys.

    The JSON config is flat: its keys are the :class:`SimConfig` fields, the
    :class:`TracerConfig` fields but ``frequency`` (``carrier_frequency``
    sets both), and the run-only fields below.
    """

    sim: SimConfig = field(default_factory=SimConfig)
    tracer: TracerConfig = field(default_factory=TracerConfig)
    scene: str = ""
    tx_trajectory: str = ""
    rx_trajectory: str = ""
    output_dir: str = "out"
    array_type: str = "sharkfin"   # or "isotropic" for antenna-free runs
    # metrics
    n_avg: int = met.DEFAULT_N_AVG
    stride: int = 0              # 0 means n_avg (non-overlapping)
    noise_threshold: bool = False
    noise_power: float = 0.0
    noise_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.n_avg < 1 or self.workers < 1:
            raise ConfigError("n_avg and workers must be >= 1")
        if self.stride < 0 or self.noise_seed < 0:
            raise ConfigError("stride and noise_seed must be >= 0")
        if self.noise_power < 0:
            raise ConfigError("noise_power must be >= 0")
        if self.array_type not in ("sharkfin", "isotropic"):
            raise ConfigError("array_type must be 'sharkfin' or 'isotropic'")


#: Every key a JSON run config may hold.
CONFIG_KEYS = frozenset(f.name for cls in (SimConfig, TracerConfig, RunConfig)
                        for f in fields(cls)) - {"frequency", "sim", "tracer"}
# resolved once: get_type_hints evaluates the string annotations on each call
_FIELD_TYPES = {cls: get_type_hints(cls) for cls in (SimConfig, TracerConfig, RunConfig)}


def _fits(value, want: type) -> bool:
    """Whether a JSON value fits a field of type ``want``: a bool only for a
    bool, an int that is not a bool for an int, a finite number for a float."""
    if isinstance(value, bool) != (want is bool):
        return False
    if want is float:
        try:
            return math.isfinite(value)
        except (TypeError, OverflowError):
            return False
    return isinstance(value, want)


def _from_doc(cls, doc: dict):
    """``cls`` built from the keys of ``doc`` that name its fields, each value
    checked against its field's type; ``cls`` checks the ranges itself."""
    types = _FIELD_TYPES[cls]
    values = {f.name: doc[f.name] for f in fields(cls) if f.name in doc}
    for name, value in values.items():
        if not _fits(value, types[name]):
            want = "a finite number" if types[name] is float else types[name].__name__
            raise ConfigError(f"config key {name!r} must be {want}, not {value!r}")
    return cls(**values)


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    doc = {}
    if path:
        try:
            doc = json.loads(_read_text(path, ConfigError))
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{e.lineno}: {e.msg}") from e
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    try:
        sim = _from_doc(SimConfig, doc)
        tracer = _from_doc(TracerConfig, {**doc, "frequency": sim.carrier_frequency})
        return _from_doc(RunConfig, {**doc, "sim": sim, "tracer": tracer})
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _require_inputs(cfg: RunConfig) -> None:
    for key in ("scene", "tx_trajectory", "rx_trajectory"):
        p = getattr(cfg, key)
        if not p:
            raise ConfigError(f"config key {key!r} is required")
        if not Path(p).exists():
            raise ConfigError(f"{key} file not found: {p}")


def _load_run_inputs(cfg: RunConfig):
    scene = load_scene(cfg.scene)
    tx = load_trajectory(cfg.tx_trajectory)
    rx = load_trajectory(cfg.rx_trajectory)
    return scene, tx, rx


def _traced_snapshots(cfg: RunConfig, scene, tx, rx):
    if max(tx.t[0], rx.t[0]) > min(tx.t[-1], rx.t[-1]):
        raise ConfigError(f"{cfg.tx_trajectory} and {cfg.rx_trajectory} do not overlap in time")
    if cfg.tracer.enable_diffuse:
        # counted before any worker starts, without building the tile table
        # that every trace job would then carry
        try:
            scene.tile_cells(cfg.tracer.tile_size)
        except ValueError as e:
            raise ConfigError(f"{cfg.scene}: {e}") from e
    return trace_trajectory(scene, tx, rx, cfg.tracer, cfg.sim.coarse_trace_dt,
                            workers=cfg.workers)


def cmd_trace(cfg: RunConfig) -> int:
    _require_inputs(cfg)
    scene, tx, rx = _load_run_inputs(cfg)
    snapshots = _traced_snapshots(cfg, scene, tx, rx)
    out = Path(cfg.output_dir) / "trace"
    out.mkdir(parents=True, exist_ok=True)
    for k, (t, paths) in enumerate(snapshots):
        with open(out / f"paths_{k:06d}.csv", "w") as f:
            f.write(",".join(PATH_DUMP_HEADER) + "\n")
            dump_paths_csv(paths, t, f)
    print(f"traced {len(snapshots)} snapshots -> {out}")
    return EXIT_OK


def cmd_synthesize(cfg: RunConfig) -> int:
    _require_inputs(cfg)
    scene, tx, rx = _load_run_inputs(cfg)
    snapshots = _traced_snapshots(cfg, scene, tx, rx)
    if cfg.array_type == "isotropic":
        from .antenna import isotropic_array
        tx_array = isotropic_array(4)
        rx_array = isotropic_array(4)
    else:
        tx_array = default_sharkfin_array()
        rx_array = default_sharkfin_array()
    tensor = chan.synthesize_tensor(chan.PathInterpolator(snapshots), tx_array, rx_array,
                                    cfg.sim, tx_heading=tx.heading, rx_heading=rx.heading,
                                    workers=cfg.workers)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "channel.v2vc"
    save_tensor(tensor, path)
    cmp.save_labels(
        cmp.segment_los_nlos(snapshots, tensor.time_axis), out / "los_labels.csv")
    print(f"synthesized {tensor.n_time} x {tensor.m_rx} x {tensor.m_tx} x "
          f"{tensor.n_bins} tensor -> {path}")
    return EXIT_OK


def cmd_analyze(tensor_path: str, cfg: RunConfig) -> int:
    tensor = load_tensor(tensor_path)
    if tensor.domain != "delay":
        raise TensorFormatError(f"{tensor_path}: analyze expects a delay-domain tensor")
    if not 2 <= cfg.n_avg <= tensor.n_time:
        raise ConfigError(f"n_avg={cfg.n_avg} must be at least 2 and at most the "
                          f"{tensor.n_time} time steps of {tensor_path}")
    if cfg.noise_threshold and (cfg.n_avg < met._FLOOR_MIN_DOPPLER_BINS
                                or tensor.n_bins < met._FLOOR_MIN_BINS):
        raise ConfigError(f"noise_threshold needs n_avg >= {met._FLOOR_MIN_DOPPLER_BINS} "
                          f"and >= {met._FLOOR_MIN_BINS} delay bins, not n_avg="
                          f"{cfg.n_avg} and the {tensor.n_bins} bins of {tensor_path}")
    if cfg.noise_power > 0:
        from .channel import add_measurement_noise
        tensor = add_measurement_noise(tensor, cfg.noise_power, cfg.noise_seed)
    stride = cfg.stride if cfg.stride > 0 else None
    results = analyze_tensor(tensor, n_avg=cfg.n_avg, stride=stride,
                             threshold=cfg.noise_threshold)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        write = met.series_to_csv if name in SERIES_UNITS else met.profile_to_csv
        write(result, out / f"{name}.csv")
    print(f"wrote {', '.join(f'{name}.csv' for name in results)} -> {out}")
    return EXIT_OK


def cmd_compare(dir_a: str, dir_b: str, labels_path: str | None, cfg: RunConfig) -> int:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stats: dict[str, cmp.ErrorStats] = {}
    labels = None
    if labels_path:
        labels = cmp.load_labels(labels_path)
    for name, unit in SERIES_UNITS.items():
        pa, pb = Path(dir_a) / f"{name}.csv", Path(dir_b) / f"{name}.csv"
        for p in (pa, pb):
            if not p.exists():
                raise ConfigError(f"metric file missing: {p}")
        sa = met.series_from_csv(pa, kind=name, unit=unit)
        sb = met.series_from_csv(pb, kind=name, unit=unit)
        eps = cmp.error_series(sa, sb)
        if name == "delay_spread":  # metric files are SI; the report uses ns
            eps.values = eps.values * 1e9
            eps.unit = "ns"
        if labels is None:
            lab = cmp.SegmentLabels(times=sa.times, is_los=np.ones(len(sa.times), bool))
        else:
            lab = labels
        if eps.values.ndim == 1:
            stats[name] = cmp.error_stats(eps, lab, metric_name=name)
        else:
            prefix = {"correlation_tx": "tx_", "correlation_rx": "rx_"}.get(name, "")
            for c, col in enumerate(eps.labels):
                col_eps = met.MetricSeries(kind=eps.kind, times=eps.times,
                                           values=eps.values[:, c], unit=eps.unit)
                stats[prefix + col] = cmp.error_stats(col_eps, lab,
                                                      metric_name=prefix + col)
    cmp.save_report(stats, out / "report.txt", out / "report.csv")
    text, _ = cmp.render_report(stats)
    print(text)
    return EXIT_OK


def cmd_scene_validate(path: str) -> int:
    scene = load_scene(path)
    n_by_tag: dict[str, int] = {}
    for s in scene.surfaces:
        root = s.tag.split(":")[0] if s.tag else "(untagged)"
        n_by_tag[root] = n_by_tag.get(root, 0) + 1
    lo, hi = scene.bounding_box
    print(f"{path}: OK, {len(scene.surfaces)} surfaces")
    print(f"  bounding box: x [{lo[0]:.1f}, {hi[0]:.1f}]  y [{lo[1]:.1f}, {hi[1]:.1f}]"
          f"  z [{lo[2]:.1f}, {hi[2]:.1f}] m")
    for tag in sorted(n_by_tag):
        print(f"  {tag}: {n_by_tag[tag]} surface(s)")
    return EXIT_OK


@functools.cache    # one parser per process; parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="v2vchan", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-c", "--config", help="JSON run config", default=None)
        p.add_argument("-o", "--output-dir", dest="output_dir", default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="tracing and synthesis worker processes (default 1)")

    p_trace = sub.add_parser("trace", help="dump ray-traced paths per coarse snapshot")
    add_common(p_trace)
    p_syn = sub.add_parser("synthesize", help="trace and write the channel tensor")
    add_common(p_syn)
    p_ana = sub.add_parser("analyze", help="compute metric CSVs from a tensor")
    p_ana.add_argument("tensor")
    add_common(p_ana)
    p_ana.add_argument("--n-avg", dest="n_avg", type=int, default=None)
    p_ana.add_argument("--stride", type=int, default=None)
    p_ana.add_argument("--noise-threshold", dest="noise_threshold",
                       action="store_true", default=None)
    p_cmp = sub.add_parser("compare", help="error statistics between two metric dirs")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.add_argument("--labels", default=None, help="label override CSV t_s,label")
    add_common(p_cmp)
    p_val = sub.add_parser("scene-validate", help="load and validate a scene file")
    p_val.add_argument("scene")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else 0
    try:
        overrides = {k: getattr(args, k, None)
                     for k in ("output_dir", "workers", "n_avg", "stride",
                               "noise_threshold")}
        if args.command == "scene-validate":
            return cmd_scene_validate(args.scene)
        cfg = load_run_config(getattr(args, "config", None), overrides)
        if args.command == "trace":
            return cmd_trace(cfg)
        if args.command == "synthesize":
            return cmd_synthesize(cfg)
        if args.command == "analyze":
            return cmd_analyze(args.tensor, cfg)
        if args.command == "compare":
            return cmd_compare(args.dir_a, args.dir_b, args.labels, cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SceneFormatError, MaterialReferenceError, GeometryError,
            TensorFormatError, met.SeriesFormatError, cmp.AlignmentError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
