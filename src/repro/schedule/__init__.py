"""Schedule representation, the 2-D chart timeline, validation, metrics."""

from repro.schedule.types import PlacedTask, Schedule
from repro.schedule.timeline import IdleSweep, ProcessorTimeline
from repro.schedule.validation import validate_schedule
from repro.schedule.metrics import (
    busy_time,
    utilization,
    total_comm_time,
    total_idle_time,
    gantt_ascii,
    schedule_summary,
)
from repro.schedule.attribution import (
    AttributionReport,
    ChainLink,
    ProcessorAttribution,
    attribute_makespan,
    extract_critical_chain,
)
from repro.schedule.svg import schedule_to_svg, save_svg
from repro.schedule.export import (
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)

__all__ = [
    "PlacedTask",
    "Schedule",
    "ProcessorTimeline",
    "IdleSweep",
    "validate_schedule",
    "busy_time",
    "utilization",
    "total_comm_time",
    "total_idle_time",
    "gantt_ascii",
    "schedule_summary",
    "AttributionReport",
    "ChainLink",
    "ProcessorAttribution",
    "attribute_makespan",
    "extract_critical_chain",
    "schedule_to_svg",
    "save_svg",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
]
