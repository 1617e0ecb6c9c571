import pytest

import fixture_library
from smellprobe.harness import FixtureProfile, spawn


@pytest.fixture(scope="session")
def library():
    return fixture_library


@pytest.fixture
def endpoints():
    """Spawn fixture endpoints and guarantee they are torn down."""
    spawned = []

    def _spawn(profile):
        endpoint = spawn(profile)
        spawned.append(endpoint)
        return endpoint

    yield _spawn
    for endpoint in spawned:
        endpoint.shutdown()


@pytest.fixture
def refusing_endpoint(endpoints):
    """An endpoint that is never started: its URLs refuse connections."""
    return endpoints(FixtureProfile(name="refusing", initially_down=True))
