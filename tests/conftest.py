import pytest

import fixture_library
from smellprobe.harness import spawn


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
