"""Experiment runners: one module per table/figure of the paper.

Every module exposes ``run(...)`` returning structured results and a
``main()`` entry point so each experiment regenerates from the command
line::

    python -m repro.experiments.table2 --sizes 250 500 1000
    python -m repro.experiments.figure4 --full

Runners print the paper's published numbers next to the measured ones;
:mod:`repro.experiments.claims` checks each claim against its runner at
tier-1 scale, and README's "Reproducing the paper" table lists them.
"""

from repro.experiments.report import Table, render_table, render_series

__all__ = ["Table", "render_table", "render_series"]
