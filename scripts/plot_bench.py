#!/usr/bin/env python3
"""Graph the BENCH_*.json perf-trajectory artifacts across runs/PRs.

Each positional argument is a directory holding one run's BENCH_*.json files
(e.g. the `bench-json-<sha>` artifacts CI uploads, unpacked side by side and
passed oldest-first). The script extracts one headline scalar per metric per
run, prints a text table, and renders a dependency-free SVG with one panel
per metric so regressions stand out at a glance.

    scripts/plot_bench.py bench-results                      # single run
    scripts/plot_bench.py -o trend.svg run-pr2 run-pr3 run-pr4
    scripts/plot_bench.py --history bench-history            # multi-run dir

--history treats the argument as a directory of per-run subdirectories
(sorted lexicographically = chronologically when produced by
scripts/fetch_bench_history.sh, which downloads the last N CI runs'
artifacts) and may be combined with positional run dirs, which are appended
after the history (e.g. the current working tree's fresh bench-results).

Stdlib only (CI friendly): no matplotlib, no numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from xml.sax.saxutils import escape

# metric name -> (file stem, extractor, unit, higher_is_better)
EXTRACTORS = {
    "fig5 build speedup (parallel/serial)": (
        "BENCH_fig5_failure_rates",
        lambda d: d.get("speedup"),
        "x",
        True,
    ),
    "fig5 parallel build": (
        "BENCH_fig5_failure_rates",
        lambda d: d.get("parallel_seconds"),
        "s",
        False,
    ),
    "adaptive MC sample reduction": (
        "BENCH_fig5_adaptive_mc",
        lambda d: d.get("reduction"),
        "x",
        True,
    ),
    "adaptive MC samples saved": (
        "BENCH_fig5_adaptive_mc",
        lambda d: (d["fixed_samples"] - d["adaptive_samples"])
        if d.get("fixed_samples") is not None
        and d.get("adaptive_samples") is not None
        else None,
        "samples",
        True,
    ),
    "serve coalesced throughput": (
        "BENCH_serve_throughput",
        lambda d: d.get("coalesced_requests_per_sec"),
        "req/s",
        True,
    ),
    "serve coalescing speedup": (
        "BENCH_serve_throughput",
        lambda d: d.get("speedup"),
        "x",
        True,
    ),
    "serve capacity (closed-loop)": (
        "BENCH_serve_latency",
        lambda d: d.get("capacity_rps"),
        "req/s",
        True,
    ),
    "serve p99 below capacity": (
        "BENCH_serve_latency",
        # First sweep level is the lightest offered load (0.4x capacity):
        # its p99 is the uncontended tail latency.
        lambda d: (d.get("levels") or [{}])[0].get("p99_ms"),
        "ms",
        False,
    ),
    "eval hot path (delta+workspace)": (
        "BENCH_eval_hotpath",
        lambda d: d.get("delta_chips_per_sec"),
        "chips/s",
        True,
    ),
    "shard scatter/merge (best)": (
        "BENCH_shard_scaling",
        lambda d: d.get("best_sharded_seconds"),
        "s",
        False,
    ),
    "shard overhead vs monolithic": (
        "BENCH_shard_scaling",
        lambda d: d.get("overhead_vs_monolithic"),
        "x",
        False,
    ),
}

MICRO_KERNELS_SHOWN = 4  # first N micro-kernel entries get their own panels


def load_run(run_dir: Path) -> dict[str, float]:
    """Extract {metric: value} from one run directory."""
    metrics: dict[str, float] = {}
    for name, (stem, extract, _unit, _hib) in EXTRACTORS.items():
        path = run_dir / f"{stem}.json"
        if not path.is_file():
            continue
        try:
            value = extract(json.loads(path.read_text()))
        except (json.JSONDecodeError, OSError) as err:
            print(f"warning: skipping {path}: {err}", file=sys.stderr)
            continue
        if isinstance(value, (int, float)):
            metrics[name] = float(value)
    micro = run_dir / "BENCH_micro_kernels.json"
    if micro.is_file():
        try:
            doc = json.loads(micro.read_text())
            for entry in doc.get("benchmarks", [])[:MICRO_KERNELS_SHOWN]:
                label = f"micro: {entry['name']}"
                metrics[label] = float(entry["real_time"])
        except (json.JSONDecodeError, KeyError, OSError) as err:
            print(f"warning: skipping {micro}: {err}", file=sys.stderr)
    return metrics


def unit_of(metric: str) -> str:
    if metric in EXTRACTORS:
        return EXTRACTORS[metric][2]
    return "ns"  # micro-kernel real_time


def fmt(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def svg_panel(x0: float, y0: float, w: float, h: float, title: str,
              unit: str, series: list[tuple[str, float | None]]) -> str:
    """One metric panel: points joined by lines over the run axis."""
    points = [(i, v) for i, (_, v) in enumerate(series) if v is not None]
    parts = [
        f'<g transform="translate({x0},{y0})">',
        f'<rect width="{w}" height="{h}" fill="none" stroke="#d0d0d0"/>',
        f'<text x="8" y="16" font-size="11" font-weight="bold">'
        f'{escape(title)} [{escape(unit)}]</text>',
    ]
    if points:
        values = [v for _, v in points]
        lo, hi = min(values), max(values)
        if hi == lo:
            hi = lo + (abs(lo) if lo else 1.0)
        pad_x, top, bottom = 14.0, 26.0, 18.0
        span_x = max(len(series) - 1, 1)
        plot_w, plot_h = w - 2 * pad_x, h - top - bottom

        def px(i: float) -> float:
            return pad_x + plot_w * (i / span_x)

        def py(v: float) -> float:
            return top + plot_h * (1.0 - (v - lo) / (hi - lo))

        if len(points) > 1:
            path = " ".join(f"{px(i):.1f},{py(v):.1f}" for i, v in points)
            parts.append(f'<polyline points="{path}" fill="none" '
                         'stroke="#2563eb" stroke-width="1.5"/>')
        for i, v in points:
            parts.append(f'<circle cx="{px(i):.1f}" cy="{py(v):.1f}" r="2.5" '
                         'fill="#2563eb"/>')
        last_i, last_v = points[-1]
        parts.append(f'<text x="{min(px(last_i) + 4, w - 40):.1f}" '
                     f'y="{py(last_v) - 4:.1f}" font-size="10" '
                     f'fill="#2563eb">{fmt(last_v)}</text>')
        parts.append(f'<text x="8" y="{h - 6}" font-size="9" fill="#666">'
                     f'min {fmt(lo)} · max {fmt(hi)}</text>')
    else:
        parts.append(f'<text x="8" y="{h / 2}" font-size="10" fill="#999">'
                     'no data</text>')
    parts.append("</g>")
    return "\n".join(parts)


def render_svg(runs: list[str], table: dict[str, list[float | None]],
               out: Path) -> None:
    cols = 2
    panel_w, panel_h, gap = 340, 120, 12
    metrics = list(table)
    rows = (len(metrics) + cols - 1) // cols
    width = cols * panel_w + (cols + 1) * gap
    height = rows * panel_h + (rows + 1) * gap + 24
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif">',
        f'<text x="{gap}" y="16" font-size="12">hynapse perf trajectory — '
        f'runs: {escape(", ".join(runs))}</text>',
    ]
    for idx, metric in enumerate(metrics):
        col, row = idx % cols, idx // cols
        x0 = gap + col * (panel_w + gap)
        y0 = 24 + gap + row * (panel_h + gap)
        series = list(zip(runs, table[metric]))
        parts.append(
            svg_panel(x0, y0, panel_w, panel_h, metric, unit_of(metric),
                      series))
    parts.append("</svg>")
    out.write_text("\n".join(parts))


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Plot BENCH_*.json metrics across runs")
    parser.add_argument("runs", nargs="*", type=Path,
                        help="bench-result directories, oldest first")
    parser.add_argument("--history", type=Path,
                        help="directory of per-run subdirectories (e.g. from "
                             "scripts/fetch_bench_history.sh); sorted by name "
                             "and prepended to the positional runs")
    parser.add_argument("-o", "--out", type=Path,
                        help="output SVG path (default: <last-run>/bench_trend.svg)")
    args = parser.parse_args()

    runs: list[Path] = []
    if args.history:
        if not args.history.is_dir():
            parser.error(f"not a directory: {args.history}")
        runs.extend(sorted(p for p in args.history.iterdir() if p.is_dir()))
        if not runs:
            parser.error(f"no run subdirectories in {args.history}")
    runs.extend(args.runs)
    if not runs:
        parser.error("no run directories given (positional or --history)")

    for run in runs:
        if not run.is_dir():
            parser.error(f"not a directory: {run}")
    labels = [run.name or str(run) for run in runs]
    per_run = [load_run(run) for run in runs]

    metrics: list[str] = []
    for run_metrics in per_run:
        for name in run_metrics:
            if name not in metrics:
                metrics.append(name)
    if not metrics:
        print("no BENCH_*.json metrics found", file=sys.stderr)
        return 1

    table = {m: [rm.get(m) for rm in per_run] for m in metrics}

    name_w = max(len(m) for m in metrics)
    print(f"{'metric':<{name_w}}  " + "  ".join(f"{l:>14}" for l in labels))
    for metric in metrics:
        cells = [
            f"{fmt(v):>14}" if v is not None else f"{'-':>14}"
            for v in table[metric]
        ]
        print(f"{metric:<{name_w}}  " + "  ".join(cells) +
              f"  [{unit_of(metric)}]")

    out = args.out or (runs[-1] / "bench_trend.svg")
    render_svg(labels, table, out)
    print(f"\nSVG written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
