"""Cluster hardware model: worker nodes, NICs, and the network fabric.

Matches the paper's testbed abstraction (§6): homogeneous worker nodes with
many cores and a 10 Gb NIC, connected through a non-blocking switch.  Each
node a round touches keeps a :class:`CpuAccount` of CPU-seconds per
component so that the evaluation's "cumulative CPU time" figures can be
reproduced.
"""

from repro.cluster.network import Fabric, Flow, ProcessorSharingLink
from repro.cluster.node import CpuAccount, NodeSpec

__all__ = [
    "CpuAccount",
    "Fabric",
    "Flow",
    "NodeSpec",
    "ProcessorSharingLink",
]
