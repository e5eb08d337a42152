import numpy as np
import pytest

from fracheston import TimeGrid, default_params
from golden.make_golden import platform_fingerprint


def pytest_report_header(config):
    # the bit-for-bit pins rest on numpy's exp kernels, pocketfft and the
    # BLAS kernels (the Riccati ddot, the Z-tilde dgemms), so name the
    # ones in play; the golden outputs record the same line
    return platform_fingerprint()


@pytest.fixture
def params():
    return default_params()


@pytest.fixture
def rough_params():
    return default_params(alpha=-0.75)


@pytest.fixture
def coarse_grid():
    return TimeGrid.from_horizon(1.0, 0.01)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
