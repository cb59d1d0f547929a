"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so that callers can
catch every failure mode of the reproduction with a single ``except`` clause
while still being able to discriminate the subsystem that failed.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "CycleError",
    "UnknownTaskError",
    "MissingFieldError",
    "EdgeVolumeError",
    "GraphShapeError",
    "ProfileError",
    "InvalidProfileError",
    "AllocationError",
    "ScheduleError",
    "ValidationError",
    "RedistributionError",
    "WorkloadError",
    "ExperimentError",
    "SimulationError",
    "CacheError",
    "ClusterError",
]


class ReproError(Exception):
    """Base class of every error raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """A task graph is structurally invalid (bad vertices, edges, weights)."""


class CycleError(GraphError):
    """The task graph contains a directed cycle and is therefore not a DAG."""


class UnknownTaskError(GraphError, KeyError):
    """A task name was referenced that does not exist in the graph."""

    def __str__(self) -> str:  # KeyError quotes its message; keep it readable
        return Exception.__str__(self)


class MissingFieldError(GraphError, KeyError):
    """A serialized task graph lacks a required field."""

    def __str__(self) -> str:  # as UnknownTaskError: no KeyError quoting
        return Exception.__str__(self)


class EdgeVolumeError(GraphError, ValueError):
    """An edge's data volume is NaN, infinite or negative."""


class GraphShapeError(GraphError, TypeError):
    """A serialized task graph has a field of the wrong type: a document,
    task, model, edge or ``attrs`` that is not an object, ``tasks`` or
    ``edges`` that is not a list, an unhashable name or a non-number
    time or volume."""


class ProfileError(ReproError):
    """An execution-time profile or speedup model is ill-formed."""


class InvalidProfileError(ProfileError, ValueError):
    """A profile or speedup-model parameter is out of range: a NaN,
    infinite, zero or negative time, or a model parameter outside its
    domain. Checked once at construction, so queries need not re-check."""


class AllocationError(ReproError):
    """A processor allocation is infeasible for the target cluster."""


class ScheduleError(ReproError):
    """A scheduler failed to produce a schedule."""


class ValidationError(ReproError):
    """A produced schedule violates resource or precedence constraints."""


class RedistributionError(ReproError):
    """Block-cyclic redistribution parameters are invalid."""


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""


class ExperimentError(ReproError):
    """An experiment driver was misconfigured."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class CacheError(ReproError):
    """The schedule cache hit a corrupt entry or invalid configuration."""


class ClusterError(ReproError, ValueError):
    """A cluster has a non-positive processor count or a bandwidth that is
    not a finite positive number."""
