"""Experiment harness reproducing the paper's evaluation (Section 7).

Every figure and table of the paper has a corresponding runner method:

========  ==========================  =========================================
Exp id    Paper figure                Runner method
========  ==========================  =========================================
Exp-1     Fig. 9(a)                   :meth:`ExperimentRunner.exp1_vertical_dbsize`
Exp-2     Fig. 9(b), 9(c)             :meth:`ExperimentRunner.exp2_vertical_updates`
Exp-3     Fig. 9(d)                   :meth:`ExperimentRunner.exp3_vertical_cfds`
Exp-4     Fig. 9(e)                   :meth:`ExperimentRunner.exp4_vertical_scaleup`
Exp-5     Fig. 10                     :meth:`ExperimentRunner.exp5_optimization`
Exp-6     Fig. 9(f)                   :meth:`ExperimentRunner.exp6_horizontal_dbsize`
Exp-7     Fig. 9(g), 9(h)             :meth:`ExperimentRunner.exp7_horizontal_updates`
Exp-8     Fig. 9(i)                   :meth:`ExperimentRunner.exp8_horizontal_cfds`
Exp-9     Fig. 9(j)                   :meth:`ExperimentRunner.exp9_horizontal_scaleup`
Exp-10    Fig. 11(a), 11(b)           :meth:`ExperimentRunner.exp10_crossover`
Exp-DBLP  Fig. 9(k), 9(l)             :meth:`ExperimentRunner.exp11_dblp`
========  ==========================  =========================================

The sizes are scaled down from the paper's EC2 runs (millions of tuples)
to laptop scale; the *shapes* of the curves are what the reproduction
checks.
"""

from repro.experiments.metrics import ExperimentSeries, render_table
from repro.experiments.runner import ExperimentRunner, RunConfig
from repro.experiments.report import generate_experiments_report

__all__ = [
    "ExperimentSeries",
    "render_table",
    "ExperimentRunner",
    "RunConfig",
    "generate_experiments_report",
]
