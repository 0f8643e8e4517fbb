"""Experiment runners reproducing every figure of the paper's §IV.

Each ``figN`` module states its sweep as ``points(...)`` and its result
as ``report(points, records)``; :func:`repro.experiments.harness.run_figure`
runs any figure (``python -m repro figure figN`` on the shell), and
``figN.run(...) -> ExperimentResult`` is the serial call.  The matching
benchmark in ``benchmarks/`` wraps ``run`` and asserts the paper's
qualitative claims (who wins, what stays constant, what scales).
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.parallel import RunCache, run_sweep
from repro.experiments import workloads
from repro.experiments import fig3, fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments import ablations
from repro.experiments import fault_ablation

__all__ = [
    "ExperimentResult",
    "RunCache",
    "run_sweep",
    "workloads",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ablations",
    "fault_ablation",
]
