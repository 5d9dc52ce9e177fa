"""Discrete-event simulation kernel.

A small, SimPy-style engine: processes are Python generators that ``yield``
events (timeouts, resource requests, other processes), and the
:class:`Environment` advances a virtual clock through a priority queue of
scheduled events.  The cluster, dataplane and control-plane models in the
rest of the library are ordinary Python code running as processes on this
kernel, so the control-plane *algorithms* under test are real implementations
— only time and hardware are simulated.
"""

from repro.sim.engine import (
    AllOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "Store",
    "Timeout",
]
