"""Experiment harness: regenerate every table and figure in the paper.

The package imports none of its modules, so a campaign that needs only
:mod:`~repro.analysis.matrix` does not load the experiment registry.
Import each name from the module that defines it:

* :mod:`~repro.analysis.experiments` — one experiment per paper figure/table
* :mod:`~repro.analysis.matrix` — the declarative campaign driver
  (``chaos``, ``scaleout`` and ``matrix`` are its three flag sets)
* :mod:`~repro.analysis.parallel` — ``run_many``, the process pool
* :mod:`~repro.analysis.sweep` — cross-product sweeps and the CSV writer

>>> from repro.analysis.experiments import QUICK, run_experiment
>>> print(run_experiment("fig7", QUICK).render())  # doctest: +SKIP
"""
