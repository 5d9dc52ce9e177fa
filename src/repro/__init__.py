"""LIFL reproduction — a lightweight, event-driven serverless platform for
federated learning (MLSys 2024), rebuilt as a self-contained Python library.

Subpackages:

* :mod:`repro.common` — units, errors, RNG, timelines;
* :mod:`repro.sim` — the discrete-event simulation kernel;
* :mod:`repro.cluster` — worker nodes, NICs, the network fabric;
* :mod:`repro.dataplane` — calibrated hop/pipeline cost models (kernel,
  shared memory, sidecars, brokers, gateways);
* :mod:`repro.runtime` — the **real** node runtime: shared-memory object
  store, sockmap/SKMSG routing, gateways, metrics maps, checkpoints;
* :mod:`repro.controlplane` — placement, hierarchy planning, EWMA queue
  estimates, TAG, metrics server, per-node agents, reactive controller;
* :mod:`repro.fl` — FedAvg (+ FedProx/FedAdam/FedYogi/FedAdagrad), real
  NumPy training, synthetic non-IID federated datasets, clients, selection;
* :mod:`repro.workloads` — FedScale-like populations and arrival traces;
* :mod:`repro.core` — the platforms (LIFL / SF / SL / SL-H) and the round
  and workload simulators;
* :mod:`repro.scenarios` — the ``@scenario`` registry and deterministic
  parallel campaign runner;
* :mod:`repro.experiments` — every paper figure and extension scenario,
  runnable via ``python -m repro.experiments``;
* :mod:`repro.perf` — engine counters and ``--profile`` collection;
* :mod:`repro.chaos` — seeded declarative fault injection for live rounds;
* :mod:`repro.traces` — arrival/availability traces, the arrival-driven
  serving loop with SLO analytics, and multi-core sharded replay.

See ``README.md`` for a tour, ``docs/architecture.md`` for how a round
moves through the stack, and ``docs/scenario-authoring.md`` for adding
experiments.
"""

__version__ = "1.0.0"

from repro.core.platform import AggregationPlatform, PlatformConfig  # noqa: F401

__all__ = ["AggregationPlatform", "PlatformConfig", "__version__"]
