"""Metric comparison: LOS/NLOS segmentation and mean/sigma error reports.

The error convention is reference minus candidate (measured minus simulated
when comparing against sounder data).  Sigma is the population root mean
square deviation about the mean (divide by n).  Reports group every metric
by LOS and NLOS segments and render as aligned text and CSV with one row per
parameter, in the order of the ``stats`` dict they are given.  ``v2vchan
compare`` fills it in analysis order: gain, delay spread, Doppler spread,
eigenvalues, TX correlations, RX correlations, each series' columns in the
order of its metric file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import MetricSeries, SeriesFormatError, _read_timed_csv
from .raytracer import KINDS
from .scene import _write_table

LOS, NLOS = "LOS", "NLOS"


class AlignmentError(ValueError):
    """Two metric series cannot be brought onto a common time axis."""


@dataclass
class SegmentLabels:
    """Per-window LOS/NLOS labels on the metric time axis."""

    times: np.ndarray
    is_los: np.ndarray     # boolean per window

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.is_los = np.asarray(self.is_los, dtype=bool)
        if self.times.shape != self.is_los.shape:
            raise ValueError("times and labels must have matching shapes")
        # the nearest-label lookups bisect the times
        if not (self.times.size and np.isfinite(self.times).all()
                and np.all(np.diff(self.times) > 0)):
            raise ValueError("label times must be non-empty, finite and strictly increasing")


@dataclass
class ErrorStats:
    """Mean/sigma of a metric's error per segment; cells absent when empty."""

    metric: str
    unit: str
    cells: dict            # segment -> (mu, sigma, n)


def segment_los_nlos(snapshots, window_times) -> SegmentLabels:
    """Label each metric window LOS iff a LOS path exists at its center time.

    ``snapshots`` is the traced (t, path set) list.  Path presence between
    snapshots follows the interpolation birth/death rule (paths appear at
    the boundary, never before), so the window center maps to the snapshot
    at or immediately before it; a label therefore flips exactly at the
    first window whose center reaches the transition snapshot.
    """
    if not snapshots:
        raise ValueError("empty snapshot list")
    times = np.array([t for t, _ in snapshots])
    los = KINDS.index("los")
    has_los = np.array([bool(np.any(paths.kind == los)) for _, paths in snapshots])
    window_times = np.asarray(window_times, dtype=float)
    idx = np.searchsorted(times, window_times + 1e-12, side="right") - 1
    idx = np.clip(idx, 0, len(times) - 1)
    return SegmentLabels(times=window_times, is_los=has_los[idx])


def load_labels(path) -> SegmentLabels:
    """Label override file: CSV ``t_s,label`` with label LOS or NLOS and
    finite, strictly increasing times.  A malformed file raises
    SeriesFormatError."""
    _, times, rows = _read_timed_csv(path, header=("t_s", "label"))
    los = []
    for line, cells in rows:
        lab = cells[0].strip().upper()
        if lab not in (LOS, NLOS):
            raise SeriesFormatError(f"{path}:{line}: unknown label {cells[0]!r}")
        los.append(lab == LOS)
    return SegmentLabels(times=times, is_los=np.asarray(los))


def save_labels(labels: SegmentLabels, path) -> None:
    """Write ``labels`` as the CSV file :func:`load_labels` reads."""
    _write_table(path, ["t_s", "label"],
                 [[float(t), LOS if l else NLOS] for t, l in zip(labels.times, labels.is_los)])


def _nearest(times: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Index of the entry of the increasing, non-empty ``times`` nearest to
    each of ``at``; a tie goes to the earlier entry."""
    idx = np.clip(np.searchsorted(times, at), 0, len(times) - 1)
    left = np.clip(idx - 1, 0, len(times) - 1)
    pick_left = np.abs(at - times[left]) <= np.abs(times[idx] - at)
    return np.where(pick_left, left, idx)


def _align(ref: MetricSeries, other: MetricSeries) -> np.ndarray:
    """Return other's values resampled onto ref's time axis (nearest window)."""
    if len(other.times) == 0:
        raise AlignmentError("cannot align against an empty series")
    spacing = np.min(np.diff(ref.times)) if len(ref.times) > 1 else math.inf
    nearest = _nearest(other.times, ref.times)
    gap = np.abs(other.times[nearest] - ref.times)
    if np.any(gap > spacing / 2 + 1e-12):
        raise AlignmentError(
            f"series time axes differ by up to {gap.max():.3g} s, more than half a window")
    return other.values[nearest]


def error_series(metric_a: MetricSeries, metric_b: MetricSeries) -> MetricSeries:
    """Pointwise a - b on a's time axis; missing in either stays missing."""
    vb = _align(metric_a, metric_b)
    if metric_a.values.shape != vb.shape:
        raise AlignmentError("series shapes differ after alignment")
    return MetricSeries(kind=f"error:{metric_a.kind}", times=metric_a.times.copy(),
                        values=metric_a.values - vb, unit=metric_a.unit,
                        labels=metric_a.labels)


def error_stats(eps: MetricSeries, labels: SegmentLabels,
                metric_name: str | None = None) -> ErrorStats:
    """Per-segment mean and deviation of an error series.

    Sigma follows the population definition sqrt(mean |mu - eps|^2).
    """
    if eps.values.ndim != 1:
        raise ValueError("error_stats expects a one-column series; split multi-column "
                         "series per label first")
    # each window takes its nearest label; on a shared axis, its own
    is_los = labels.is_los[_nearest(labels.times, eps.times)]
    cells = {}
    for seg, mask in ((LOS, is_los), (NLOS, ~is_los)):
        x = eps.values[mask]
        x = x[np.isfinite(x)]
        if x.size == 0:
            continue
        mu = float(np.mean(x))
        dev = np.abs(mu - x) ** 2
        n = x.size
        sigma = float(math.sqrt(dev.sum() / n))
        cells[seg] = (mu, sigma, n)
    return ErrorStats(metric=metric_name or eps.kind, unit=eps.unit, cells=cells)


def render_report(stats: dict[str, ErrorStats]) -> tuple[str, list[list]]:
    """Aligned text table plus CSV rows ``metric,segment,mu,sigma,n``.

    Rows follow the order of ``stats``, which ``v2vchan compare`` fills in
    analysis order (see the module docstring).
    """
    if not stats:
        raise ValueError("need at least one metric")
    header = ["parameter", "unit", "LOS mu", "LOS sigma", "NLOS mu", "NLOS sigma"]
    rows_text = [header]
    rows_csv = []
    for name, st in stats.items():
        row = [name, st.unit]
        for seg in (LOS, NLOS):
            if seg in st.cells:
                mu, sigma, n = st.cells[seg]
                row += [f"{mu:.4g}", f"{sigma:.4g}"]
                rows_csv.append([name, seg, repr(mu), repr(sigma), n])
            else:
                row += ["-", "-"]
        rows_text.append(row)
    widths = [max(len(r[c]) for r in rows_text) for c in range(len(header))]
    lines = []
    for r_i, r in enumerate(rows_text):
        lines.append("  ".join(c.ljust(widths[ci]) for ci, c in enumerate(r)).rstrip())
        if r_i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n", rows_csv


def save_report(stats: dict[str, ErrorStats], text_path, csv_path) -> str:
    """Write :func:`render_report`'s table to ``text_path`` and its rows to
    ``csv_path``; returns the table's text."""
    text, rows = render_report(stats)
    with open(text_path, "w") as f:
        f.write(text)
    _write_table(csv_path, ["metric", "segment", "mu", "sigma", "n"], rows)
    return text
