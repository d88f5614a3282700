"""Parameter sweeps: run one workload across machine/config variations.

The paper's evaluation is full of sweeps — GC flavor x heap size
(Fig 14), core counts (Figs 11-12), machines (Fig 2/7).  This module
provides the generic machinery: declare axes, get a result grid, render
it.  Downstream users can sweep *hardware* parameters the paper only
speculates about (e.g. "Data placement strategies in LLC slices",
"aggressive prefetching" — §VIII) without touching harness internals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace as dc_replace, field

from repro.harness.report import format_table
from repro.harness.runner import Fidelity, RunResult
from repro.uarch.machine import MachineConfig
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class Axis:
    """One sweep dimension.

    ``target`` selects what the values apply to:

    * ``"machine"`` — a MachineConfig field to replace;
    * ``"run"``     — a keyword argument of ``run_workload``
      (``gc_config``, ``compaction_enabled``, ``seed``, ...);
    * ``"spec"``    — a WorkloadSpec field to replace.
    """

    name: str
    values: tuple
    target: str = "machine"

    def __post_init__(self):
        if self.target not in ("machine", "run", "spec"):
            raise ValueError(f"unknown axis target {self.target!r}")
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")


@dataclass
class SweepResult:
    """Grid of runs: point (an axis-value dict, frozen) -> RunResult."""

    axes: tuple[Axis, ...]
    results: dict[tuple, RunResult] = field(default_factory=dict)
    failures: dict[tuple, Exception] = field(default_factory=dict)

    def point(self, **coords) -> RunResult:
        key = tuple(coords[a.name] for a in self.axes)
        return self.results[key]

    def _axis_order(self, key: tuple) -> tuple:
        # Order rows by declaration position along each axis, not by
        # repr of the values — repr-sorting put heap sizes 200/2000/
        # 20000 MiB in the order 200, 20000, 2000.
        def position(axis: Axis, value):
            try:
                return axis.values.index(value)
            except ValueError:
                return len(axis.values)
        return tuple(position(a, v) for a, v in zip(self.axes, key))

    def table(self, metric, metric_name: str = "value") -> str:
        """Render the grid: one row per point, metric in the last column."""
        rows = []
        for key in sorted(self.results, key=self._axis_order):
            rows.append([*[str(v) for v in key],
                         metric(self.results[key])])
        for key in sorted(self.failures, key=self._axis_order):
            rows.append([*[str(v) for v in key],
                         type(self.failures[key]).__name__])
        return format_table([a.name for a in self.axes] + [metric_name],
                            rows)

    def series(self, metric) -> dict[tuple, float]:
        return {k: metric(r) for k, r in self.results.items()}


def sweep(spec: WorkloadSpec, machine: MachineConfig, axes: list[Axis],
          fidelity: Fidelity | None = None,
          catch: tuple[type, ...] = (), jobs: int = 1, store=None,
          on_error: str = "raise", max_retries: int | None = None,
          **base_run_kwargs) -> SweepResult:
    """Run ``spec`` at every point of the axis product.

    ``catch`` lists exception types recorded as failures instead of
    raised (e.g. ``OutOfManagedMemory`` in heap-size sweeps, matching the
    paper's OOM cells in Fig 14) — the semantics are identical whether
    the grid is evaluated serially or with ``jobs`` worker processes.
    ``store`` is an optional :class:`repro.exec.ResultStore` for reuse
    of grid points across invocations.

    ``on_error`` widens the failure policy the same way
    :func:`~repro.harness.suite.characterize_suite` does: ``"skip"``
    records *any* exception as a grid failure instead of only the
    ``catch`` types, ``"retry"`` additionally raises the transient
    retry budget (``max_retries`` defaults to 3 there, 1 otherwise).
    """
    from repro.exec.campaign import retry_budget
    from repro.exec.jobs import JobSpec
    from repro.exec.pool import JobFailure, run_jobs

    max_retries = retry_budget(on_error, max_retries)
    if on_error != "raise":
        catch = (Exception,)

    fidelity = fidelity or Fidelity.default()
    result = SweepResult(axes=tuple(axes))
    combos = []
    jobspecs = []
    for combo in itertools.product(*(a.values for a in axes)):
        m = machine
        s = spec
        run_kwargs = dict(base_run_kwargs)
        for axis, value in zip(axes, combo):
            if axis.target == "machine":
                m = dc_replace(m, **{axis.name: value})
            elif axis.target == "spec":
                s = dc_replace(s, **{axis.name: value})
            else:
                run_kwargs[axis.name] = value
        combos.append(combo)
        jobspecs.append(JobSpec(spec=s, machine=m, fidelity=fidelity,
                                run_kwargs=run_kwargs))
    outcomes = run_jobs(jobspecs, n_jobs=jobs, store=store, catch=catch,
                        max_retries=max_retries)
    for combo, outcome in zip(combos, outcomes):
        if isinstance(outcome, JobFailure):
            result.failures[combo] = outcome.error
        else:
            result.results[combo] = outcome
    return result
