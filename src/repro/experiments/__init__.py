"""Experiment runners — one module per paper table/figure.

==================  ====================================================
module              reproduces
==================  ====================================================
``table1``          Table I (code parameters via Algorithm-1 search)
``figure1b``        Figure 1(b) (error-value histogram, shuffle effect)
``table3``          Table III (inverses + shifts)
``table4``          Table IV (MSED Monte Carlo, MUSE vs RS)
``table5``          Table V (VLSI costs + gem5 cycles)
``figure6``         Figure 6 (ECC slowdown on SPEC-shaped workloads)
``figure7``         Figure 7 + Table VI (memory tagging)
``rowhammer``       Section VI-A (hash escape-rate law)
``pim``             Section VI-B (PIM budget + fault coverage)
``ablation_shuffle``   Appendix G extended (shuffle yield sweep)
``ablation_frontier``  flexibility frontier + k-sweep (beyond paper)
``extension_double_device``  Section IV's two-consecutive-failure claim
==================  ====================================================

Every module exposes ``main(**options)`` returning the rendered report
string — or, for experiments with machine-readable summaries (table4),
a ``(report, details)`` pair whose dict lands in the sweep's
``summary.json``; the CLI (``repro-muse``) dispatches to them.

The package imports none of them itself, and ``import
repro.experiments.table4`` loads only what a plain Table-IV run uses:
the MUSE codec, error model, symbol layouts and ELC
(``repro.core``), the RS baseline (``repro.rs``), the backend registry
and C-kernel loader (``repro.engine``), the chunk plan, trial stream,
code-family generators, worker specs and grid fold
(``repro.orchestrate``), the simulators, tallies and confidence
intervals (``repro.reliability``) and telemetry's no-op helpers.  It
loads no other experiment, not the Figure-6 CPU simulator or the VLSI
model, and not the fleet (``repro.distribute``), the sweep, the
adaptive campaign, importance splitting, telemetry's sinks or a
process pool: each of those loads when a run's options first use it.
"""
