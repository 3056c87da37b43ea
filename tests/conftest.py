import pytest
from hypothesis import settings

from pqss import AxisConfig, BivariateOperator, PQPair, standard_sweep

# sandbox machines can stall; wall-clock deadlines just make tests flaky
settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture
def worked_axis():
    # n=2, l=1, p=1, q=0.5, alpha=1, beta=2: [3]=1.75, [2]=1.5, D=3.5
    return AxisConfig(n=2, l=1, pq=PQPair(1.0, 0.5), alpha=1.0, beta=2.0)


@pytest.fixture
def worked_op(worked_axis):
    return BivariateOperator(worked_axis, worked_axis)


@pytest.fixture(scope="session")
def asymmetric_sweep():
    # sweep axis i paired with axis (i + 67) mod 135: n, l, (p, q) and
    # (alpha, beta) all differ between the two axes of every operator, so a
    # quantity taken from the wrong axis shows
    sweep = standard_sweep()
    return [BivariateOperator(sweep[i].axis1, sweep[(i + 67) % 135].axis2) for i in range(135)]
