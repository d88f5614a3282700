"""Previous-vs-current comparison of ``BENCH_throughput.json``.

CI runs the throughput bench on every push; this prints a markdown
table of each numeric metric against the committed baseline so a PR's
job summary shows the perf delta at a glance.  Report-only by default:
exit status is 0 — CI boxes are too noisy for a hard gate, and the
bench's own assertions already guard the invariants that matter
(engine min speedup, mmap peak reduction).  Opt into a gate with
``--fail-on-regression PCT``: any metric that regressed by more than
PCT percent (in its improvement direction) makes the run exit 1.

Gate scoping: raw throughput numbers move with the CI box, but same-run
*ratios* (``speedup`` metrics — both sides measured in one process) are
stable, so the CI gate narrows with ``--sections`` (only those top-level
sections participate: ``engine,micro,multicore`` in the vector-multicore
job) and ``--gate-suffix speedup``
(only metrics with that suffix can fail the gate; everything else stays
report-only).  Sections nest arbitrarily — the flattener picks up e.g.
``multicore.core_counts.8.speedup`` and ``multicore.sampler.speedup``.

Usage::

    python benchmarks/compare_throughput.py BASELINE.json CURRENT.json
    python benchmarks/compare_throughput.py BASELINE.json CURRENT.json \
        --sections engine,micro --gate-suffix speedup \
        --fail-on-regression 25
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: metrics where a larger value is an improvement; everything else
#: (seconds, bytes) improves downward
_HIGHER_IS_BETTER = ("instr_per_s", "speedup", "reduction")


def _flatten(node, prefix: str = "") -> dict[str, float]:
    """Dotted-path -> value for every numeric leaf."""
    out: dict[str, float] = {}
    if isinstance(node, dict):
        for key in sorted(node):
            out.update(_flatten(node[key], f"{prefix}{key}."))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix[:-1]] = float(node)
    return out


def _load(path: Path, sections: list[str] | None = None) -> dict[str, float]:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"<!-- {path}: {exc} -->")
        return {}
    if sections is not None and isinstance(payload, dict):
        payload = {k: v for k, v in payload.items() if k in sections}
    return _flatten(payload)


def _improvement_pct(metric: str, prev: float, cur: float) -> float:
    """Signed percent change where positive always means *better*."""
    pct = (cur - prev) / prev * 100.0
    if any(metric.endswith(s) for s in _HIGHER_IS_BETTER):
        return pct
    return -pct


def _direction(metric: str, delta_pct: float) -> str:
    if abs(delta_pct) < 2.0:
        return ""                      # below measurement noise
    better = any(metric.endswith(s) for s in _HIGHER_IS_BETTER)
    improved = (delta_pct > 0) == better
    return "✅" if improved else "⚠️"


def regressions(baseline: dict[str, float], current: dict[str, float],
                threshold_pct: float,
                gate_suffix: str | None = None) -> list[tuple[str, float]]:
    """Metrics that got worse by more than ``threshold_pct`` percent.

    Only metrics present on both sides participate; new/removed
    metrics can't regress.  ``gate_suffix`` restricts the gate to
    metrics whose name ends with it (same-run ratios; raw throughput
    stays report-only).  Returns ``(metric, regression_pct)`` pairs
    with the regression expressed as a positive percentage.
    """
    out: list[tuple[str, float]] = []
    for metric in sorted(set(baseline) & set(current)):
        if gate_suffix is not None and not metric.endswith(gate_suffix):
            continue
        prev, cur = baseline[metric], current[metric]
        if prev == 0:
            continue
        improvement = _improvement_pct(metric, prev, cur)
        if improvement < -threshold_pct:
            out.append((metric, -improvement))
    return out


def compare(baseline_path: Path, current_path: Path,
            sections: list[str] | None = None) -> str:
    baseline = _load(baseline_path, sections)
    current = _load(current_path, sections)
    if not current:
        return "No current throughput numbers to compare."
    lines = ["| metric | previous | current | Δ |",
             "|---|---:|---:|---:|"]
    for metric in sorted(set(baseline) | set(current)):
        prev, cur = baseline.get(metric), current.get(metric)
        if prev is None or cur is None:
            tag = "removed" if cur is None else "new"
            lines.append(f"| {metric} | "
                         f"{'' if prev is None else f'{prev:g}'} | "
                         f"{'' if cur is None else f'{cur:g}'} | {tag} |")
            continue
        if prev == 0:
            delta = "n/a"
        else:
            pct = (cur - prev) / prev * 100.0
            delta = f"{pct:+.1f}% {_direction(metric, pct)}".rstrip()
        lines.append(f"| {metric} | {prev:g} | {cur:g} | {delta} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_throughput.json dumps.")
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--fail-on-regression", metavar="PCT", type=float,
                        default=None,
                        help="exit 1 if any shared metric got worse by "
                             "more than PCT%% (default: report only)")
    parser.add_argument("--sections", metavar="A,B", default=None,
                        help="comma-separated top-level JSON sections to "
                             "compare (default: all)")
    parser.add_argument("--gate-suffix", metavar="SUFFIX", default=None,
                        help="only metrics ending with SUFFIX can fail "
                             "the --fail-on-regression gate (the table "
                             "still shows everything in --sections)")
    args = parser.parse_args(argv)
    sections = (args.sections.split(",") if args.sections else None)

    print("### Throughput bench: previous vs current\n")
    print(compare(args.baseline, args.current, sections))

    if args.fail_on_regression is not None:
        worse = regressions(_load(args.baseline, sections),
                            _load(args.current, sections),
                            args.fail_on_regression,
                            gate_suffix=args.gate_suffix)
        if worse:
            print(f"\n{len(worse)} metric(s) regressed more than "
                  f"{args.fail_on_regression:g}%:")
            for metric, pct in worse:
                print(f"  {metric}: -{pct:.1f}%")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
