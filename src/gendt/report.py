"""Derived report views: per-run error table CSV, prediction overlay SVGs,
and a per-run RMSE box plot with the wear trajectory overlaid.

SVGs are emitted by hand (polylines, rects, text); a replay report is small
enough that no plotting dependency is warranted.
"""

from __future__ import annotations

import csv
import html
import math
from pathlib import Path
from typing import Union

import numpy as np

from .errors import NUMBER, OBJECT, RUN_INDEX, STRING, GendtError, Kind, checked, list_of, optional


class ReportError(GendtError):
    pass


WIDTH, HEIGHT = 640, 360
MARGIN = 46


# a state names an overlay file, and XML cannot hold a control character
_LABEL = Kind("a printable string without a path separator",
              lambda v: STRING.test(v) and v.isprintable() and not set(v) & {"/", "\\"})
_NUMBERS = list_of(NUMBER, "a list of finite numbers")
_RMSES = list_of(Kind("a finite number >= 0", lambda v: NUMBER.test(v) and v >= 0),
                 "a list of finite numbers >= 0")
_PER_RUN_FIELDS = {"run": RUN_INDEX, "flank_wear_mm": optional(NUMBER),
                   "err_avg": optional(NUMBER), "err_std": optional(NUMBER)}
_EPOCH_FIELDS = {"run": RUN_INDEX, "state": _LABEL, "median": _NUMBERS, "sd": _NUMBERS,
                 "truth": optional(_NUMBERS), "attempt_rmse": optional(_RMSES)}


def _check_rows(rows, where: str, fields: dict) -> None:
    checked(ReportError, rows, list_of(OBJECT), f"report field {where}")
    for i, row in enumerate(rows):
        for key, kind in fields.items():
            if key not in row:
                raise ReportError(f"report field {where}[{i}].{key} is missing")
            checked(ReportError, row[key], kind, lambda: f"report field {where}[{i}].{key}")


def check_document(report) -> dict:
    """The one check of a report document read from a file, by `errors.checked`:
    every field the views read is present and of its kind. Returns the document."""
    checked(ReportError, report, OBJECT, "report document")
    summary = checked(ReportError, report.get("summary"), OBJECT, "report field summary")
    _check_rows(summary.get("per_run"), "summary.per_run", _PER_RUN_FIELDS)
    _check_rows(report.get("epochs"), "epochs", _EPOCH_FIELDS)
    for i, ep in enumerate(report["epochs"]):
        if len(ep["median"]) != len(ep["sd"]):
            raise ReportError(f"report field epochs[{i}] has median and sd of unequal length")
    return report


def write_run_table_csv(report: dict, path: Union[str, Path]) -> Path:
    """Per-run pooled error table: run, flank wear, err_avg, err_std."""
    per_run = report["summary"]["per_run"]
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "flank_wear_mm", "err_avg", "err_std"])
        for row in per_run:
            writer.writerow([row["run"], row["flank_wear_mm"], row["err_avg"], row["err_std"]])
    return path


class _Scale:
    """Data -> pixel mapping for one axis, through halves so that the span of
    any two finite values is finite; a range that is empty in float
    arithmetic, such as one value far from zero, spans 1."""

    def __init__(self, lo: float, hi: float, pix_lo: float, pix_hi: float):
        span = float(hi) / 2 - float(lo) / 2
        self.lo, self.span = float(lo) / 2, span if span > 0 else 0.5
        self.pix_lo, self.pix_hi = pix_lo, pix_hi

    def __call__(self, v: float) -> float:
        frac = (v / 2 - self.lo) / self.span
        return self.pix_lo + frac * (self.pix_hi - self.pix_lo)


def _polyline(xs, ys, color: str, width: float = 1.5, dash: str = "") -> str:
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{extra} points="{points}"/>'


def _polygon(xs, ys, fill: str, opacity: float) -> str:
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    return f'<polygon fill="{fill}" fill-opacity="{opacity}" stroke="none" points="{points}"/>'


def _text(x: float, y: float, s: str, size: int = 11, anchor: str = "start") -> str:
    return f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" font-family="sans-serif" text-anchor="{anchor}">{html.escape(s, quote=False)}</text>'


def _svg(body: list[str]) -> str:
    frame = (
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#888" stroke-width="1"/>'
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<rect width="100%" height="100%" fill="white"/>\n'
        + frame
        + "\n"
        + "\n".join(body)
        + "\n</svg>\n"
    )


def write_overlay_svg(epoch: dict, path: Union[str, Path]) -> Path:
    """Median forecast with a +/- one SD band, over the truth when present."""
    median = epoch.get("median") or []
    sd = epoch.get("sd") or []
    truth = epoch.get("truth")
    if not median:
        raise ReportError(f"epoch run {epoch.get('run')} {epoch.get('state')} has no forecast")
    n = len(median)
    # the y axis holds halves, exact in binary floating point: a band edge
    # m/2 +/- s/2 of finite numbers is finite, where m +/- s can overflow
    median = [m / 2 for m in median]
    truth = truth and [v / 2 for v in truth[:n]]
    lo_band = [m - s / 2 for m, s in zip(median, sd)]
    hi_band = [m + s / 2 for m, s in zip(median, sd)]
    ys = [median, lo_band, hi_band] + ([truth] if truth else [])
    vmin, vmax = min(map(min, ys)), max(map(max, ys))
    sx = _Scale(0, max(n - 1, 1), MARGIN, WIDTH - MARGIN)
    sy = _Scale(vmin, vmax, HEIGHT - MARGIN, MARGIN)
    xs = [sx(i) for i in range(n)]

    body = [
        _polygon(
            xs + xs[::-1],
            [sy(v) for v in hi_band] + [sy(v) for v in lo_band[::-1]],
            "#4477cc",
            0.25,
        )
    ]
    if truth:
        body.append(_polyline(xs[: len(truth)], [sy(v) for v in truth], "#222222", 1.5))
    body.append(_polyline(xs, [sy(v) for v in median], "#2255bb", 1.8))
    body.append(
        _text(MARGIN, MARGIN - 10, f"run {epoch.get('run')} {epoch.get('state')}: "
              f"median forecast vs observed, band = +/-1 SD")
    )
    # each axis label doubles a half; past the float range it shows the half and the factor
    for y, half in ((HEIGHT - MARGIN + 4, vmin), (MARGIN + 4, vmax)):
        label = f"{2 * half:.2f}" if math.isfinite(2 * half) else f"2 x {half:.6g}"
        body.append(_text(MARGIN - 6, y, label, anchor="end"))
    path = Path(path)
    path.write_text(_svg(body))
    return path


def run_box_stats(report: dict) -> list[dict]:
    """Per run: quartiles and extremes of the attempt-level RMSE pool."""
    epochs = report["epochs"]
    pools: dict[int, list[float]] = {}
    for ep in epochs:
        if ep.get("attempt_rmse"):
            pools.setdefault(ep["run"], []).extend(ep["attempt_rmse"])
    stats = []
    for run in sorted(pools):
        values = np.asarray(pools[run], dtype=float)
        q1, med, q3 = (float(v) for v in np.percentile(values, [25.0, 50.0, 75.0]))
        stats.append(
            {
                "run": run,
                "q1": q1,
                "median": med,
                "q3": q3,
                "lo": float(values.min()),
                "hi": float(values.max()),
                "count": int(values.size),
            }
        )
    return stats


def _wear_by_run(report: dict) -> dict[int, float]:
    per_run = report.get("summary", {}).get("per_run", [])
    return {
        row["run"]: row["flank_wear_mm"]
        for row in per_run
        if row.get("flank_wear_mm") is not None
    }


def write_boxplot_svg(report: dict, path: Union[str, Path]) -> Path:
    """One RMSE box per run (attempt pool), wear overlaid on a second axis."""
    stats = run_box_stats(report)
    if not stats:
        raise ReportError("report has no attempt-level RMSE values to plot")
    runs = [s["run"] for s in stats]
    vmax = max(s["hi"] for s in stats)
    sx = _Scale(min(runs) - 0.5, max(runs) + 0.5, MARGIN, WIDTH - MARGIN)
    sy = _Scale(0.0, vmax, HEIGHT - MARGIN, MARGIN)
    half = max(0.5 * (sx(runs[0] + 1) - sx(runs[0])) * 0.35, 4.0) if len(runs) > 1 else 12.0

    body = []
    for s in stats:
        cx = sx(s["run"])
        top, bot = sy(s["q3"]), sy(s["q1"])
        body.append(
            f'<rect x="{cx - half:.2f}" y="{top:.2f}" width="{2 * half:.2f}" '
            f'height="{max(bot - top, 0.5):.2f}" fill="#88aadd" stroke="#335588"/>'
        )
        body.append(_polyline([cx - half, cx + half], [sy(s["median"])] * 2, "#10366b", 2.0))
        body.append(_polyline([cx, cx], [bot, sy(s["lo"])], "#335588", 1.0))
        body.append(_polyline([cx, cx], [sy(s["hi"]), top], "#335588", 1.0))
        body.append(_text(cx, HEIGHT - MARGIN + 16, str(s["run"]), anchor="middle"))

    wear = _wear_by_run(report)
    wear_runs = [r for r in runs if r in wear]
    if wear_runs:
        values = [wear[r] for r in wear_runs]
        wy = _Scale(min(0.0, min(values)), max(values), HEIGHT - MARGIN, MARGIN)
        body.append(
            _polyline([sx(r) for r in wear_runs], [wy(v) for v in values],
                      "#cc3333", 1.5, dash="5,3")
        )
        body.append(_text(WIDTH - MARGIN, MARGIN - 10, "flank wear (dashed, right scale)", anchor="end"))
    body.append(_text(MARGIN, MARGIN - 10, "attempt RMSE per run"))
    body.append(_text(MARGIN - 6, HEIGHT - MARGIN + 4, "0", anchor="end"))
    body.append(_text(MARGIN - 6, MARGIN + 4, f"{vmax:.2f}", anchor="end"))

    path = Path(path)
    path.write_text(_svg(body))
    return path


def write_report_artifacts(report: dict, out_dir: Union[str, Path]) -> list[Path]:
    """Emit every derived view for a replay report; returns written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [write_run_table_csv(report, out_dir / "per_run_errors.csv")]
    for ep in report["epochs"]:
        if not ep.get("median"):
            continue
        written.append(
            write_overlay_svg(ep, out_dir / f"overlay_run{ep['run']:02d}_{ep['state']}.svg")
        )
    try:
        written.append(write_boxplot_svg(report, out_dir / "rmse_boxplot.svg"))
    except ReportError:
        pass  # nothing evaluated; table and overlays may still exist
    return written
