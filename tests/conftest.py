"""Shared fixtures: generated datasets and pipelines are expensive, so they
are session-scoped and reused across test modules."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from eskin import (
    SingleForceProtocol,
    SkinModel,
    TwoForceProtocol,
    generate_single_force_dataset,
    generate_two_force_dataset,
    train,
)

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def small_single_ds():
    # one rep per protocol cell: 3 * 101 * 4 = 1212 samples
    return generate_single_force_dataset(
        SkinModel(), SingleForceProtocol(reps_per_cell=1)
    )


@pytest.fixture(scope="session")
def two_ds():
    # the full two-force protocol: 36 pairs * 9 force pairs * 2 reps = 648
    return generate_two_force_dataset(SkinModel(), TwoForceProtocol())


@pytest.fixture(scope="session")
def small_two_ds():
    # 2x2 node grid: 6 pairs * 9 force pairs * 2 reps = 108 samples
    return generate_two_force_dataset(
        SkinModel(), TwoForceProtocol(node_axes=(1, 6))
    )


@pytest.fixture(scope="session")
def trained_single(small_single_ds):
    return train(small_single_ds)


@pytest.fixture(scope="session")
def trained_two(small_two_ds):
    return train(small_two_ds)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
