import pytest

import oracles
from ecodrive import (
    ControllerConfig,
    DEFAULT_PARAMS,
    FrozenDynamics,
    PowerModel,
    TrackProfile,
    WindField,
    run_race,
)
from ecodrive import fixtures as fixture_lib


@pytest.fixture(scope="session")
def params():
    return DEFAULT_PARAMS


@pytest.fixture(scope="session")
def const_power():
    return PowerModel()


@pytest.fixture(scope="session")
def wheel_power():
    return PowerModel(kind="wheel_power")


@pytest.fixture(scope="session")
def flat_slice(params, const_power):
    """Flat windless frozen slice of the reference vehicle."""
    return FrozenDynamics.from_conditions(params, const_power)


@pytest.fixture(scope="session")
def long_flat_track():
    return TrackProfile.flat(100_000.0, safe_speed=50.0)


@pytest.fixture(scope="session")
def zero_wind():
    return WindField.zero()


def _race(scenario):
    return run_race(
        scenario.track, scenario.wind, scenario.params, scenario.power, scenario.controller
    )


@pytest.fixture(scope="session")
def flat_race():
    return _race(fixture_lib.flat16500())


@pytest.fixture(scope="session")
def flat_oracle():
    """The closed-form emulation of the flat race, about 3 s of exact band roots."""
    return oracles.event_race(fixture_lib.RACE_LENGTH, fixture_lib.RACE_DURATION)


@pytest.fixture(scope="session")
def hill_race():
    return _race(fixture_lib.hill())


@pytest.fixture(scope="session")
def gust_race():
    return _race(fixture_lib.gust())


@pytest.fixture
def short_cfg():
    """Config for quick behavioral races on a 2 km flat track."""
    return ControllerConfig(race_length=2000.0, race_duration=286.0)
