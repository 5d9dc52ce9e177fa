"""Every data-plane constant, in one place, with its provenance.

Derivation of the headline constants (all per-MB figures are per 1e6 bytes):

* **LIFL intra-node aggregator→aggregator** (Fig. 7(a)): the paper reports
  0.14 / 0.25 / 0.76 s for ResNet-18/34/152 (44 / 83 / 232 MB).  A linear
  fit through the 44 MB and 232 MB points gives ≈ 3.28 ms/MB with ≈ 0
  intercept.  We split this between the shared-memory write (producer copies
  its result into the object store) and the consumer-side read/wrap.
* **Serverful (SF) intra-node** is 3× LIFL (§1 contribution (1): LIFL gives
  a "3× (compared to serverful)" latency reduction on ResNet-152): the gRPC
  serialize → kernel loopback → deserialize path costs ≈ 9.84 ms/MB.
* **Serverless (SL) intra-node** is ≈ 6× LIFL (5.8× at ResNet-152;
  "SL consistently results in 2× ... higher latency than SF"): the SF path
  plus two container-sidecar traversals (the ``+SC`` share of Fig. 7(a))
  plus a message-broker round (the ``+MB`` share).
* **Inter-node transfer** of a ResNet-152 update ≈ 4.2 s (§6.1, Fig. 8
  discussion) → ≈ 18.1 ms/MB along the gateway→wire→gateway path, of which
  0.8 ms/MB is the 10 Gb wire itself.
* **CPU**: Fig. 7(b) puts LIFL at 2.45 G-cycles for ResNet-152 (0.875 CPU-s
  at 2.8 GHz → 3.77 ms/MB) with SL ≈ 8× LIFL and SF in between.
* **Cold start ≈ 2 s**: typical Knative pod cold start; the paper leans on
  this for the reuse/eager arguments (§5.3–5.4, Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import CalibrationError
from repro.common.units import MB

_PER_MB = 1.0 / MB  # convert ms/MB constants into s/byte


def _ms_per_mb(x: float) -> float:
    """ms-per-MB → seconds-per-byte."""
    return x * 1e-3 * _PER_MB


@dataclass(frozen=True)
class DataplaneCalibration:
    """Frozen bundle of hop-cost constants (seconds, bytes, CPU-seconds)."""

    # --- serialization (tensor <-> wire format, §Appendix C) -------------
    serialize_lat_per_byte: float = _ms_per_mb(1.2)
    serialize_cpu_per_byte: float = _ms_per_mb(1.2)
    deserialize_lat_per_byte: float = _ms_per_mb(1.2)
    deserialize_cpu_per_byte: float = _ms_per_mb(1.2)

    # --- kernel networking -------------------------------------------------
    #: one full loopback traversal (TX + RX through the local TCP/IP stack)
    kernel_loopback_lat_per_byte: float = _ms_per_mb(7.3)
    kernel_loopback_cpu_per_byte: float = _ms_per_mb(5.5)
    #: wire-adjacent kernel processing, each side of an inter-node transfer
    kernel_wire_side_lat_per_byte: float = _ms_per_mb(5.8)
    kernel_wire_side_cpu_per_byte: float = _ms_per_mb(4.2)
    kernel_fixed_lat: float = 200e-6  # connection/syscall overhead per message
    kernel_fixed_cpu: float = 100e-6

    # --- gRPC framing ------------------------------------------------------
    grpc_lat_per_byte: float = _ms_per_mb(0.14)
    grpc_cpu_per_byte: float = _ms_per_mb(0.20)

    # --- shared memory (LIFL object store) ----------------------------------
    shm_write_lat_per_byte: float = _ms_per_mb(2.3)
    shm_write_cpu_per_byte: float = _ms_per_mb(2.4)
    shm_read_lat_per_byte: float = _ms_per_mb(0.98)
    shm_read_cpu_per_byte: float = _ms_per_mb(1.37)
    #: SKMSG delivery of a 16-byte object key through the eBPF sidecar
    skmsg_fixed_lat: float = 50e-6
    skmsg_fixed_cpu: float = 20e-6

    # --- container-based sidecar (SL baseline; §2.3) -----------------------
    #: one traversal (intercept + forward); an update crosses two per transfer
    sidecar_lat_per_byte: float = _ms_per_mb(2.0)
    sidecar_cpu_per_byte: float = _ms_per_mb(5.0)
    sidecar_fixed_lat: float = 500e-6
    sidecar_fixed_cpu: float = 300e-6

    # --- message broker (SL baseline; §2.3, Fig. 5) -------------------------
    #: broker ingress/egress kernel hops plus queue management, per transfer
    broker_lat_per_byte: float = _ms_per_mb(5.86)
    broker_cpu_per_byte: float = _ms_per_mb(13.0)
    broker_fixed_lat: float = 1e-3
    broker_fixed_cpu: float = 500e-6

    # --- message queuing on the client→aggregator path (Fig. 13, App. F) ---
    #: broker enqueue/dequeue when broker and aggregator are co-located
    #: (no extra wire crossing, unlike the aggregator→aggregator broker hop)
    queuing_broker_lat_per_byte: float = _ms_per_mb(3.2)
    queuing_broker_cpu_per_byte: float = _ms_per_mb(1.5)
    #: same stage for the serverful-microservice broker (durable/replicated)
    queuing_sf_broker_lat_per_byte: float = _ms_per_mb(8.84)
    queuing_sf_broker_cpu_per_byte: float = _ms_per_mb(9.4)
    #: in-memory enqueue inside the monolithic serverful aggregator
    monolith_enqueue_lat_per_byte: float = _ms_per_mb(2.3)
    monolith_enqueue_cpu_per_byte: float = _ms_per_mb(2.4)

    # --- LIFL gateway (per-node, §4.2) --------------------------------------
    #: consolidated one-time payload processing on RX (protocol processing,
    #: tensor→NumpyArray conversion) before the shm write
    gateway_rx_lat_per_byte: float = _ms_per_mb(1.3)
    gateway_rx_cpu_per_byte: float = _ms_per_mb(1.3)
    gateway_tx_lat_per_byte: float = _ms_per_mb(1.3)
    gateway_tx_cpu_per_byte: float = _ms_per_mb(1.3)
    #: per-core service rate for gateway vertical scaling (bytes/s a single
    #: gateway core can push through its RX pipeline)
    gateway_core_service_bps: float = 400 * MB

    # --- wire ---------------------------------------------------------------
    #: 10 Gb NIC in bytes/s; the fabric divides this among concurrent flows
    wire_bps: float = 1.25e9

    # --- function lifecycle --------------------------------------------------
    cold_start_latency: float = 2.0
    cold_start_cpu: float = 1.0
    #: converting a warm runtime's role (leaf→middle→top, §5.3) is ~free
    reuse_latency: float = 5e-3
    reuse_cpu: float = 1e-3

    # --- aggregation compute --------------------------------------------------
    #: FedAvg accumulate of one update (numpy add + scale over the payload)
    agg_compute_lat_per_byte: float = _ms_per_mb(3.3)
    agg_compute_cpu_per_byte: float = _ms_per_mb(3.3)
    #: per-round evaluation task on the global model (Fig. 4 "Eval." bars)
    eval_task_latency: float = 5.0
    eval_task_cpu: float = 5.0

    def validate(self) -> None:
        """Check internal consistency against the paper's headline ratios.

        Raises :class:`CalibrationError` if the composed pipelines no longer
        reproduce Fig. 7(a)'s ordering and rough factors.  Called by tests
        and by :func:`repro.dataplane.pipelines.intra_node_pipeline` users
        who supply custom calibrations.
        """
        r152 = 232 * MB
        lifl = (self.shm_write_lat_per_byte + self.shm_read_lat_per_byte) * r152 + self.skmsg_fixed_lat
        sf = (
            self.serialize_lat_per_byte
            + self.grpc_lat_per_byte
            + self.kernel_loopback_lat_per_byte
            + self.deserialize_lat_per_byte
        ) * r152 + self.kernel_fixed_lat
        sl = sf + (2 * self.sidecar_lat_per_byte + self.broker_lat_per_byte) * r152
        if not (lifl < sf < sl):
            raise CalibrationError(
                f"intra-node latency ordering violated: LIFL={lifl:.3f} SF={sf:.3f} SL={sl:.3f}"
            )
        if not 2.0 <= sf / lifl <= 4.5:
            raise CalibrationError(f"SF/LIFL latency ratio {sf / lifl:.2f} outside [2, 4.5]")
        if not 4.5 <= sl / lifl <= 8.0:
            raise CalibrationError(f"SL/LIFL latency ratio {sl / lifl:.2f} outside [4.5, 8]")


#: The calibration used by every experiment unless overridden.
DEFAULT_CALIBRATION = DataplaneCalibration()
DEFAULT_CALIBRATION.validate()
