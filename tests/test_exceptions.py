"""Exception hierarchy contract."""

import pytest

from repro import exceptions as exc


def test_all_errors_derive_from_repro_error():
    for name in exc.__all__:
        cls = getattr(exc, name)
        assert issubclass(cls, exc.ReproError)


def test_cycle_error_is_graph_error():
    assert issubclass(exc.CycleError, exc.GraphError)


def test_unknown_task_error_is_keyerror_and_graph_error():
    assert issubclass(exc.UnknownTaskError, KeyError)
    assert issubclass(exc.UnknownTaskError, exc.GraphError)


def test_unknown_task_error_message_unquoted():
    err = exc.UnknownTaskError("unknown task: 'X'")
    assert str(err) == "unknown task: 'X'"


def test_catching_base_catches_all():
    with pytest.raises(exc.ReproError):
        raise exc.ValidationError("boom")


@pytest.mark.parametrize(
    "cls",
    [
        exc.GraphError,
        exc.ProfileError,
        exc.AllocationError,
        exc.ScheduleError,
        exc.ValidationError,
        exc.RedistributionError,
        exc.WorkloadError,
        exc.ExperimentError,
        exc.SimulationError,
    ],
)
def test_each_error_constructible_with_message(cls):
    err = cls("message")
    assert "message" in str(err)


def test_graph_shape_error_is_graph_error_and_type_error():
    assert issubclass(exc.GraphShapeError, exc.GraphError)
    assert issubclass(exc.GraphShapeError, TypeError)
