import pytest

from hypwalk import GroupModel, uniform_walk


@pytest.fixture(scope="session")
def f2():
    return GroupModel.free(2)


@pytest.fixture(scope="session")
def z23():
    return GroupModel.free_product(2, 3)


@pytest.fixture(scope="session")
def z25():
    return GroupModel.free_product(2, 5)


@pytest.fixture(scope="session")
def walk_f2(f2):
    return uniform_walk(f2, seed=20240613)


@pytest.fixture(scope="session")
def walk_z23(z23):
    return uniform_walk(z23, seed=20240613)


@pytest.fixture(scope="session")
def boundary_samples_f2(walk_f2):
    """10^5 stabilized prefixes shared by the statistical walk tests."""
    from hypwalk.measure import boundary_sample_set

    prefixes, _, _ = boundary_sample_set(walk_f2, 100_000, 10, 20, 20_000, "test-shared")
    return prefixes
