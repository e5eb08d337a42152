import numpy as np
import pytest

from fracheston import TimeGrid, default_params


def pytest_report_header(config):
    # the bit-for-bit pins rest on numpy's exp kernels and the BLAS ddot, so
    # name the ones in play
    line = f"numpy {np.__version__}"
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints its configuration only
        return line
    simd = info.get("SIMD Extensions", {})
    blas = info.get("Build Dependencies", {}).get("blas", {})
    found = simd.get("found", [])
    return (f"{line}; SIMD baseline {' '.join(simd.get('baseline', []))}, "
            f"found {' '.join(found) if found else 'none'}; "
            f"BLAS {blas.get('name', '?')} {blas.get('version', '?')}")


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
