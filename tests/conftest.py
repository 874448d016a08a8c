"""Shared fixtures: the potassium-39 ring-trap scenario used throughout."""
import math
import pathlib

import pytest

import ringsim as rs

HERE = pathlib.Path(__file__).parent

# Frozen reference values for the K-39 scenario (R = 5.9 um, omega_perp =
# 6.4e3 rad/s).  Derived once by independent arithmetic and pinned here so a
# regression in any unit conversion shows up as a hard numeric failure.
TIME_UNIT_S = 0.021356851369429292
IDEAL_REVIVAL_S = 0.13418905473201637
OMEGA_INTERNAL = 136.68384876434746
SIGMA_U_M = 5.046536422297e-07
SIGMA_RATIO = 8.553451563215e-02


def pytest_collection_modifyitems(items):
    # any warning a test in this directory raises fails it; `pytest.warns`
    # still catches the warnings a test expects
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture(scope="session")
def trap() -> rs.TrapSpec:
    return rs.TrapSpec(mass=rs.K39_MASS_KG, radius=5.9e-6, omega_perp=6.4e3)


@pytest.fixture(scope="session")
def revival_s(trap) -> float:
    return rs.revival_time(trap)


@pytest.fixture(scope="session")
def default_packet_width(trap) -> float:
    return math.sqrt(2.0) * trap.sigma_u / trap.radius
