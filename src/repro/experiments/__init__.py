"""Experiment drivers: one module per table/figure plus the ablations.

Every driver returns a small result dataclass with a ``format_table()`` (or
equivalent) text rendering, so ``benchmarks/`` can both assert the paper's
shape criteria and print paper-style output.  Sizes come from
:mod:`repro.experiments.config` (quick by default, ``REPRO_PROFILE=full``
for paper-scale runs).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": ("ExperimentProfile", "QUICK", "FULL", "active_profile"),
    },
)
