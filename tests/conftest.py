import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))  # naive_oracle helper

from emu_roster import CirculationPlan, build_matrices, parse_timetable

DATA = pathlib.Path(__file__).parent / "data"

FIG1_ORDER = tuple(range(1, 13))
FIG1_MAINT = (0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1)


@pytest.fixture(scope="session")
def fig1_text():
    return (DATA / "fig1.timetable").read_text()


@pytest.fixture(scope="session")
def fig1(fig1_text):
    return parse_timetable(fig1_text)


@pytest.fixture(scope="session")
def fig1_matrices(fig1):
    return build_matrices(fig1)


@pytest.fixture(scope="session")
def fig1_plan():
    return CirculationPlan(order=FIG1_ORDER, maint_after=FIG1_MAINT)


def two_train_instance():
    """Smallest paired instance: one out-and-back pair through depot C."""
    from emu_roster import ModelParams, TimetableInstance, Train

    trains = (
        Train(1, "C", 8 * 60, "X", 10 * 60, 500.0, 120),
        Train(2, "X", 11 * 60, "C", 13 * 60, 500.0, 120),
    )
    return TimetableInstance(
        trains=trains,
        maint_station="C",
        params=ModelParams(),
    )


@pytest.fixture()
def chain():
    """Two three-leg chains through depot C: C -> X -> Y -> C and C -> U -> V -> C.

    Each leg runs 750 km, so either chain fits the 4,200 km allowance alone
    (2,250 km) and two chains do not (4,500 km). Without maintenance between
    them the first two legs of the second chain still fit (3,750 km), so the
    overrun shows only on its last leg, two stations after the depot. The
    constructor cuts at every depot arrival and never joins the two chains.
    """
    from emu_roster import ModelParams, TimetableInstance, Train

    legs = [("C", "X"), ("X", "Y"), ("Y", "C"), ("C", "U"), ("U", "V"), ("V", "C")]
    trains = tuple(
        Train(k, dep, 6 * 60 + 90 * (k - 1), arr, 7 * 60 + 90 * (k - 1), 750.0, 60)
        for k, (dep, arr) in enumerate(legs, start=1)
    )
    return TimetableInstance(
        trains=trains,
        maint_station="C",
        params=ModelParams(),
    )


@pytest.fixture()
def two_train():
    return two_train_instance()
