"""Analysis layer: closed-form cost model, schedule metrics, comparisons."""

from .compare import RunResult, make_scheduler, normalized_cycles
from .costmodel import (
    CyclePrediction,
    memory_access_latency,
    ncycle_compute,
    predict_cycles,
)
from .metrics import ScheduleMetrics, schedule_metrics, workload_balance

__all__ = [
    "CyclePrediction",
    "RunResult",
    "ScheduleMetrics",
    "make_scheduler",
    "memory_access_latency",
    "ncycle_compute",
    "normalized_cycles",
    "predict_cycles",
    "schedule_metrics",
    "workload_balance",
]
