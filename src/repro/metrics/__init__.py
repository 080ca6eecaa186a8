"""Metrics collection and reporting for serving experiments.

Captures exactly the quantities the paper's evaluation plots: SLO-met
request counts, TTFT CDFs, per-node decode speed, average nodes used,
GPU memory-utilization CDFs, batch-size distributions, and scheduling
overheads (Figs. 22, 25, 33).

One request-outcome ledger and one sample store per distribution carry
every run's outcomes.  The metrics mode only picks their types, once,
when the collector is built: ``exact`` (every request and sample
retained, lossless and golden-parity serializable) or ``streaming``
(bounded counters plus mergeable quantile sketches for long-horizon
runs) — see :mod:`repro.metrics.ledger`."""

from repro.metrics.cdf import Cdf
from repro.metrics.collector import METRICS_MODES, MetricsCollector
from repro.metrics.ledger import RequestAggregate
from repro.metrics.report import RunReport, merge_run_reports
from repro.metrics.streaming import QuantileSketch, StreamingStat

__all__ = [
    "Cdf",
    "METRICS_MODES",
    "MetricsCollector",
    "QuantileSketch",
    "RequestAggregate",
    "RunReport",
    "StreamingStat",
    "merge_run_reports",
]
