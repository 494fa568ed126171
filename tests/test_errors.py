"""Every package error survives pickling: a point that fails in a forked
fan-out worker reaches the caller with its own type, message and fields."""

import importlib
import pickle
import pkgutil

import pytest

import repro
from repro.campaign.service.server import ServiceError
from repro.campaign.service.worker import WorkerError
from repro.campaign.store import StoreSchemaError
from repro.errors import (
    ConfigurationError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
)
from repro.validation.invariants import InvariantViolation

#: error class -> constructor arguments of one instance
ERRORS = {
    ReproError: ("base",),
    ConfigurationError: ("num_vcs must be >= 1, got 0",),
    TopologyError: ("no such node (9, 9)",),
    RoutingError: ("empty candidate set",),
    SimulationError: ("lost a flit",),
    InvariantViolation: ("flit_conservation", 1200, "message 7 holds 3 of 4 flits"),
    StoreSchemaError: ("artifact carries schema version 0",),
    WorkerError: ("service refused the worker",),
    ServiceError: ("service already started",),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_the_table_lists_every_error_class():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    assert set(_subclasses(ReproError)) | {ReproError} == set(ERRORS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(cls):
    error = cls(*ERRORS[cls])
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)
