"""Engine telemetry.

:mod:`repro.perf.counters` holds the engine's self-accounting (events
processed, heap pushes/pops, dead-timer skips, peak queue depth) and the
:func:`collect` context manager that aggregates it across environments.
The campaign runner's ``--profile`` flag and ``benchmarks/e2e/`` are
built on this.
"""

from repro.perf.counters import EngineCounters, PerfCollector, collect

__all__ = ["EngineCounters", "PerfCollector", "collect"]
