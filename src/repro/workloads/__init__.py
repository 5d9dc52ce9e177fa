"""Workload generation: client populations and update arrivals.

* :mod:`repro.workloads.fedscale` — a 2,800-client synthetic population with
  FedScale-like heterogeneity (the paper draws its clients from FedScale's
  real FEMNIST mapping);
* :mod:`repro.workloads.arrival` — per-round update arrivals for the two
  §6.2 client setups (hibernating mobiles vs always-on servers), and
  arrival processes for microbenchmarks (Fig. 8's "N updates arriving
  concurrently", Poisson streams for capacity probing).
"""

from repro.workloads.arrival import ClientArrival, RoundTrace, generate_round_trace
from repro.workloads.arrival import concurrent_arrivals, poisson_arrivals, staggered_arrivals
from repro.workloads.fedscale import FedScalePopulation, make_population

__all__ = [
    "ClientArrival",
    "FedScalePopulation",
    "RoundTrace",
    "concurrent_arrivals",
    "generate_round_trace",
    "make_population",
    "poisson_arrivals",
    "staggered_arrivals",
]
