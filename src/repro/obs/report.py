"""``repro-obs`` CLI: summarize a recorded observability directory.

Subcommands:

* ``report <dir>`` — per-phase and per-workload breakdown tables from
  the span JSONL plus the counter/histogram highlights from
  ``metrics.json``.  ``--markdown`` switches to GitHub-flavored pipe
  tables (CI writes this into the job summary).
* ``export <dir> [-o trace.json]`` — fold the span files into one
  Chrome ``about:tracing`` / Perfetto-loadable JSON.
* ``top <dir>`` — fleet-merged live view of the ``series-*.jsonl``
  time-series rings: one row per source with sample age, throughput
  rates and native sim-op progress.
* ``tail <dir> [-n N]`` — the last N ring samples across all sources,
  merged by wall-clock time, one JSON line each.
* ``regress <history.jsonl>`` — judge the newest sample of every
  benchmark series in a baseline history
  (:mod:`repro.obs.baseline`); exits 1 on a confirmed regression
  unless ``--report-only``.

Every subcommand must hold up on degenerate input — an empty or
missing directory, zero-span files, foreign-schema lines, a corrupt
``metrics.json`` — with a clean message and exit code, never a
traceback: CI calls these on directories whose producers may have
crashed mid-write.

Kept free of third-party imports (unlike :mod:`repro.harness.report`,
which pulls numpy) so the obs package stays usable anywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.obs import baseline, timeseries
from repro.obs.exporter import export_chrome_trace, load_spans


def _table(headers: list[str], rows: list[list[str]],
           markdown: bool = False) -> str:
    if markdown:
        out = ["| " + " | ".join(headers) + " |",
               "|" + "|".join("---" for _ in headers) + "|"]
        out += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(out)
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    out += [" | ".join(c.ljust(w) for c, w in zip(row, widths))
            for row in rows]
    return "\n".join(out)


def _fmt_seconds(us: float) -> str:
    return f"{us / 1e6:.3f}"


def span_breakdown(spans: list[dict]) -> list[dict]:
    """Aggregate spans by name: count, total/mean/max duration (µs)."""
    agg: dict[str, dict] = {}
    for rec in spans:
        row = agg.setdefault(rec["name"], {"name": rec["name"], "count": 0,
                                           "total_us": 0, "max_us": 0})
        row["count"] += 1
        row["total_us"] += rec["dur_us"]
        row["max_us"] = max(row["max_us"], rec["dur_us"])
    rows = sorted(agg.values(), key=lambda r: -r["total_us"])
    for row in rows:
        row["mean_us"] = row["total_us"] / row["count"]
    return rows


def workload_breakdown(spans: list[dict]) -> list[dict]:
    """Aggregate job spans by their ``workload`` attribute.

    Only top-level ``pool.job`` spans are counted (when any exist), so
    the job count matches the scheduler's and nested phase spans don't
    double-count their parents' duration.
    """
    if any(rec["name"] == "pool.job" for rec in spans):
        spans = [rec for rec in spans if rec["name"] == "pool.job"]
    agg: dict[str, dict] = {}
    for rec in spans:
        workload = (rec.get("attrs") or {}).get("workload")
        if workload is None:
            continue
        row = agg.setdefault(workload, {"workload": workload, "count": 0,
                                        "total_us": 0, "pids": set()})
        row["count"] += 1
        row["total_us"] += rec["dur_us"]
        row["pids"].add(rec["pid"])
    rows = sorted(agg.values(), key=lambda r: -r["total_us"])
    for row in rows:
        row["workers"] = len(row.pop("pids"))
    return rows


def _metrics_highlights(obs_dir: Path) -> tuple[list[list[str]],
                                                list[list[str]]]:
    path = obs_dir / "metrics.json"
    if not path.is_file():
        return [], []
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return [], []            # corrupt dump: report without highlights
    if not isinstance(data, dict):
        return [], []
    counters = data.get("counters")
    counter_rows = [[str(name), f"{value:g}"]
                    for name, value in sorted(
                        (counters or {}).items()
                        if isinstance(counters, dict) else [])
                    if isinstance(value, (int, float))]
    hist_rows = []
    hists = data.get("histograms")
    for name, hist in sorted((hists or {}).items()
                             if isinstance(hists, dict) else []):
        if not isinstance(hist, dict):
            continue
        count = hist.get("count", 0)
        total = hist.get("total", 0.0)
        if not isinstance(count, (int, float)) \
                or not isinstance(total, (int, float)):
            continue
        mean = total / count if count else 0.0
        hist_rows.append([str(name), str(count), f"{mean:g}",
                          f"{hist.get('max') or 0:g}"])
    return counter_rows, hist_rows


def render_report(obs_dir: str | Path, markdown: bool = False) -> str:
    """The full ``repro-obs report`` text for one directory."""
    obs_dir = Path(obs_dir)
    spans = load_spans(obs_dir)
    sections: list[str] = []

    heading = "## " if markdown else "== "
    sections.append(f"{heading}Observability report: {obs_dir}")
    sections.append(f"{len(spans)} spans across "
                    f"{len({s['pid'] for s in spans})} process(es)")

    rows = span_breakdown(spans)
    if rows:
        sections.append(f"{heading}Per-phase breakdown")
        sections.append(_table(
            ["span", "count", "total_s", "mean_s", "max_s"],
            [[r["name"], str(r["count"]), _fmt_seconds(r["total_us"]),
              _fmt_seconds(r["mean_us"]), _fmt_seconds(r["max_us"])]
             for r in rows], markdown))

    wrows = workload_breakdown(spans)
    if wrows:
        sections.append(f"{heading}Per-workload breakdown")
        sections.append(_table(
            ["workload", "jobs", "total_s", "workers"],
            [[r["workload"], str(r["count"]),
              _fmt_seconds(r["total_us"]), str(r["workers"])]
             for r in wrows], markdown))

    counter_rows, hist_rows = _metrics_highlights(obs_dir)
    if counter_rows:
        sections.append(f"{heading}Counters")
        sections.append(_table(["counter", "value"], counter_rows,
                               markdown))
    if hist_rows:
        sections.append(f"{heading}Histograms")
        sections.append(_table(["histogram", "count", "mean", "max"],
                               hist_rows, markdown))
    return "\n\n".join(sections) + "\n"


def _fmt_rate(value: float | None) -> str:
    return f"{value:.1f}" if value is not None else "-"


def _fmt_opt(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value) if value is not None else "-"


def render_top(directory: str | Path, markdown: bool = False,
               now: float | None = None) -> str:
    """One row per time-series source: the fleet's live dashboard.

    Merges every ``series-*.jsonl`` ring under ``directory`` (a local
    ``--obs-dir`` or a fabric store's ``obs/``): sample age, sequence
    depth, job/op throughput from windowed counter deltas, and the
    worker-published queue gauges when present.
    """
    data = timeseries.load_directory(directory)
    if not data:
        return f"no time-series rings under {directory}\n"
    now = time.time() if now is None else now
    rows = []
    for src, samples in sorted(data.items()):
        last = samples[-1]
        age = max(0.0, now - float(last.get("t_wall") or now))
        ops = last.get("ops_retired")
        ops_rate = None
        pts = [(s.get("t_wall"), s.get("ops_retired"))
               for s in samples[-10:]]
        pts = [(t, v) for t, v in pts
               if isinstance(t, (int, float)) and isinstance(v, (int, float))]
        if len(pts) >= 2 and pts[-1][0] > pts[0][0]:
            ops_rate = (pts[-1][1] - pts[0][1]) / (pts[-1][0] - pts[0][0])
        jobs = (last.get("counters") or {}).get("pool.jobs_executed")
        rows.append([src, f"{age:.1f}", str(len(samples)),
                     _fmt_opt(last.get("units_run")),
                     _fmt_opt(last.get("spool_pending")),
                     _fmt_opt(jobs),
                     _fmt_rate(timeseries.rate(samples,
                                               "pool.jobs_executed")),
                     _fmt_opt(ops), _fmt_rate(ops_rate)])
    header = "## " if markdown else "== "
    return (f"{header}Fleet time-series: {directory}\n\n"
            + _table(["source", "age_s", "samples", "units", "spool",
                      "jobs", "jobs/s", "sim_ops", "sim_ops/s"],
                     rows, markdown) + "\n")


def render_tail(directory: str | Path, count: int = 20) -> str:
    """The last ``count`` samples across all rings, merged by time."""
    data = timeseries.load_directory(directory)
    if not data:
        return f"no time-series rings under {directory}\n"
    merged = sorted((s for samples in data.values() for s in samples),
                    key=lambda s: s.get("t_wall") or 0.0)
    return "".join(json.dumps(s, sort_keys=True) + "\n"
                   for s in merged[-count:])


def render_regress(history: str | Path, markdown: bool = False,
                   z_threshold: float = baseline.DEFAULT_Z_THRESHOLD,
                   pct_floor: float = baseline.DEFAULT_PCT_FLOOR
                   ) -> tuple[str, int]:
    """The ``repro-obs regress`` verdict table and regression count."""
    records = baseline.BaselineStore(history).load()
    heading = "## " if markdown else "== "
    if not records:
        return (f"{heading}Regression check: {history}\n\n"
                f"no baseline records (empty, missing or "
                f"foreign-schema history)\n", 0)
    verdicts = baseline.detect(records, z_threshold=z_threshold,
                               pct_floor=pct_floor)
    rows = [[v["workload"], v["engine"], v["fidelity"], v["metric"],
             f"{v['baseline']:.6g}" if v["baseline"] is not None else "-",
             f"{v['latest']:.6g}" if v["latest"] is not None else "-",
             f"{v['pct']:+.1f}%" if v["pct"] is not None else "-",
             f"{v['z']:.1f}" if v["z"] is not None else "-",
             v["verdict"]] for v in verdicts]
    n_regressions = sum(1 for v in verdicts if v["verdict"] == "regression")
    n_series = len({(v["key"], v["fidelity"]) for v in verdicts})
    body = _table(["workload", "engine", "fidelity", "metric", "baseline",
                   "latest", "delta", "z", "verdict"], rows, markdown)
    summary = (f"{n_regressions} regression(s) across {n_series} "
               f"series ({len(records)} records)")
    return (f"{heading}Regression check: {history}\n\n{body}\n\n"
            f"{summary}\n", n_regressions)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-obs`` / ``python -m repro.obs``."""
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Summarize or export a recorded observability dir.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="per-phase/per-workload summary")
    rep.add_argument("obs_dir", help="directory written by --obs-dir")
    rep.add_argument("--markdown", action="store_true",
                     help="emit GitHub-flavored markdown tables")

    exp = sub.add_parser("export", help="write Perfetto-loadable JSON")
    exp.add_argument("obs_dir", help="directory written by --obs-dir")
    exp.add_argument("-o", "--out", default=None,
                     help="output path (default <obs_dir>/trace.json)")

    top = sub.add_parser("top", help="fleet time-series dashboard")
    top.add_argument("obs_dir", help="directory holding series-*.jsonl "
                                     "rings (an --obs-dir, or a fabric "
                                     "store's obs/ subdir)")
    top.add_argument("--markdown", action="store_true",
                     help="emit GitHub-flavored markdown tables")

    tail = sub.add_parser("tail", help="last N merged ring samples")
    tail.add_argument("obs_dir", help="directory holding series-*.jsonl")
    tail.add_argument("-n", "--count", type=int, default=20,
                      help="samples to print (default 20)")

    reg = sub.add_parser("regress",
                         help="judge the newest baseline samples")
    reg.add_argument("history", help="bench_history.jsonl baseline file")
    reg.add_argument("--markdown", action="store_true",
                     help="emit GitHub-flavored markdown tables")
    reg.add_argument("--report-only", action="store_true",
                     help="always exit 0 (PR advisory mode)")
    reg.add_argument("--z-threshold", type=float,
                     default=baseline.DEFAULT_Z_THRESHOLD,
                     help="z-score a sample must reach (default %(default)s)")
    reg.add_argument("--pct-floor", type=float,
                     default=baseline.DEFAULT_PCT_FLOOR,
                     help="minimum percent change to flag "
                          "(default %(default)s)")

    args = parser.parse_args(argv)
    if args.command == "regress":
        text, n_regressions = render_regress(
            args.history, args.markdown,
            z_threshold=args.z_threshold, pct_floor=args.pct_floor)
        sys.stdout.write(text)
        return 1 if n_regressions and not args.report_only else 0
    if not os.path.isdir(args.obs_dir):
        print(f"repro-obs: not a directory: {args.obs_dir}",
              file=sys.stderr)
        return 2
    if args.command == "report":
        sys.stdout.write(render_report(args.obs_dir, args.markdown))
    elif args.command == "top":
        sys.stdout.write(render_top(args.obs_dir, args.markdown))
    elif args.command == "tail":
        sys.stdout.write(render_tail(args.obs_dir, args.count))
    else:
        out = args.out or os.path.join(args.obs_dir, "trace.json")
        count = export_chrome_trace(args.obs_dir, out)
        print(f"wrote {count} span event(s) to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
