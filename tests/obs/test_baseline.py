"""Regression sentinel: baseline store, EWMA detector, CLI verdicts.

The acceptance bar from the observatory design: a synthetic ≥20%
slowdown injected into a committed history must be flagged (nonzero
exit, workload named in the verdict table), while repeated fault-free
runs — which the determinism anchor makes bit-identical — must stay
quiet.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import baseline
from repro.obs.report import main as report_main


def _history(tmp_path, values, *, key="Json:abc", workload="Json",
             engine="vector", fidelity="w100+m200", metric="sim_seconds"):
    """A history file with one series over ``values``."""
    path = tmp_path / "bench_history.jsonl"
    store = baseline.BaselineStore(path)
    recs = []
    for v in values:
        kwargs = {"sim_seconds": 1.0, "cpi": 1.0}
        kwargs[metric] = v
        recs.append(baseline.make_record(
            key=key, workload=workload, engine=engine,
            fidelity=fidelity, **kwargs))
    store.append(recs)
    return path, store


def test_store_append_load_roundtrip(tmp_path):
    path, store = _history(tmp_path, [1.0, 1.0])
    recs = store.load()
    assert len(recs) == 2
    assert recs[0]["workload"] == "Json"
    assert recs[0]["schema"] == baseline.BASELINE_SCHEMA
    # foreign-schema and torn lines are skipped, not fatal
    with path.open("a") as fh:
        fh.write(json.dumps({"schema": 99, "sim_seconds": 5.0}) + "\n")
        fh.write("{\"torn\": tr\n")
        fh.write("[1, 2, 3]\n")
    assert len(store.load()) == 2


def test_flat_series_stays_quiet(tmp_path):
    """Deterministic (bit-identical) history never alarms."""
    _, store = _history(tmp_path, [2.5, 2.5, 2.5, 2.5])
    rows = baseline.detect(store.load())
    assert rows and all(r["verdict"] == "ok" for r in rows)


def test_injected_slowdown_is_flagged(tmp_path):
    """A 20% jump on a deterministic series scores z == 20 >= 6."""
    _, store = _history(tmp_path, [2.5, 2.5, 2.5 * 1.2])
    by_metric = {r["metric"]: r for r in baseline.detect(store.load())}
    row = by_metric["sim_seconds"]
    assert row["verdict"] == "regression"
    assert row["workload"] == "Json"
    assert row["pct"] == pytest.approx(20.0, abs=0.1)
    assert row["z"] == pytest.approx(20.0, abs=0.1)
    # the untouched cpi series stays ok
    assert by_metric["cpi"]["verdict"] == "ok"


def test_small_drift_below_floors_is_ok(tmp_path):
    """2% drift: z == 2 < 6 and pct < 5 — both floors hold it back."""
    _, store = _history(tmp_path, [2.5, 2.5, 2.5 * 1.02])
    row = [r for r in baseline.detect(store.load())
           if r["metric"] == "sim_seconds"][0]
    assert row["verdict"] == "ok"


def test_speedup_reported_as_improvement_not_regression(tmp_path):
    _, store = _history(tmp_path, [2.5, 2.5, 2.5 * 0.7])
    row = [r for r in baseline.detect(store.load())
           if r["metric"] == "sim_seconds"][0]
    assert row["verdict"] == "improvement"


def test_insufficient_history_never_judged(tmp_path):
    _, store = _history(tmp_path, [2.5, 99.0])   # only 1 prior sample
    rows = baseline.detect(store.load())
    assert all(r["verdict"] == "insufficient" for r in rows)


def test_series_fork_on_engine_and_fidelity(tmp_path):
    """Engines share one series (they are bit-identical by contract);
    fidelity still forks one.  A history recorded on one engine keeps
    judging runs on the other."""
    path = tmp_path / "h.jsonl"
    store = baseline.BaselineStore(path)
    store.append([baseline.make_record(
        key="k", workload="w", engine="batched", fidelity="f",
        sim_seconds=1.0, cpi=1.0) for _ in range(3)])
    store.append([baseline.make_record(
        key="k", workload="w", engine="vector", fidelity="f",
        sim_seconds=1.0, cpi=1.0)])
    store.append([baseline.make_record(
        key="k", workload="w", engine="vector", fidelity="g",
        sim_seconds=9.0, cpi=1.0)])
    assert set(store.series()) == {("k", "f"), ("k", "g")}
    rows = baseline.detect(store.load())
    assert {(r["fidelity"], r["engine"], r["verdict"]) for r in rows} == \
        {("f", "vector", "ok"), ("g", "vector", "insufficient")}
    # A 20% jump on the other engine is judged against the shared history.
    store.append([baseline.make_record(
        key="k", workload="w", engine="vector", fidelity="f",
        sim_seconds=1.2, cpi=1.0)])
    rows = baseline.detect(store.load())
    assert ("f", "sim_seconds", "regression") in \
        {(r["fidelity"], r["metric"], r["verdict"]) for r in rows}


def test_noisy_series_needs_real_excursion():
    """With genuine variance the EWMA sigma, not the floor, rules."""
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.08]
    row = baseline.judge_series(values)
    assert row["verdict"] == "ok"


def test_regress_cli_exit_codes_and_table(tmp_path, capsys):
    path, _ = _history(tmp_path, [2.5, 2.5, 3.0])
    rc = report_main(["regress", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "Json" in out and "regression" in out
    assert "1 regression(s)" in out
    # advisory mode: same table, clean exit
    assert report_main(["regress", str(path), "--report-only"]) == 0


def test_regress_cli_quiet_history_exits_zero(tmp_path, capsys):
    path, _ = _history(tmp_path, [2.5, 2.5, 2.5, 2.5])
    assert report_main(["regress", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 regression(s)" in out


def test_regress_cli_missing_or_empty_history(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert report_main(["regress", str(missing)]) == 0
    assert "no baseline records" in capsys.readouterr().out
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert report_main(["regress", str(empty)]) == 0


def test_regress_cli_markdown_table(tmp_path, capsys):
    path, _ = _history(tmp_path, [2.5, 2.5, 2.5])
    assert report_main(["regress", str(path), "--markdown"]) == 0
    out = capsys.readouterr().out
    assert "| workload |" in out
