"""Modulo-scheduling core: MII, ordering, MRT, Baseline and RMCA."""

from .base import CommunicationAwareScheduler, SchedulerConfig
from .baseline import BaselineScheduler
from .expansion import ExpandedLoop, OpInstance, expand
from .lifetimes import cluster_pressures, max_live, pressure_ok
from .mii import compute_mii, rec_mii, res_mii
from .mrt import ModuloReservationTable, Transaction
from .mve import AllocationError, RegisterAssignment, allocate_registers
from .ordering import compute_times, sms_order
from .result import (
    Communication,
    Placement,
    Schedule,
    ScheduleBody,
    SchedulingError,
)
from .rmca import RMCAScheduler

__all__ = [
    "AllocationError",
    "BaselineScheduler",
    "Communication",
    "CommunicationAwareScheduler",
    "ExpandedLoop",
    "ModuloReservationTable",
    "OpInstance",
    "Placement",
    "RegisterAssignment",
    "RMCAScheduler",
    "Schedule",
    "ScheduleBody",
    "SchedulerConfig",
    "SchedulingError",
    "Transaction",
    "allocate_registers",
    "cluster_pressures",
    "compute_mii",
    "compute_times",
    "expand",
    "max_live",
    "pressure_ok",
    "rec_mii",
    "res_mii",
    "sms_order",
]
