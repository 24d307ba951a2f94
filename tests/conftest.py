import numpy as np
import pytest

from softedge import derive_config


@pytest.fixture
def unit_cfg():
    """Default config at scale 1: L=16, H=127, steps 0.25 / 1 / 4."""
    return derive_config(1.0)


def _ssm_loop(params, x):
    """The SSM recurrence stepped once per timestep: the reference that
    ``ssm.ssm_forward``'s chunked scan is checked against."""
    xs = np.asarray(x, dtype=np.float64)
    h = params.h0.copy()
    y = np.empty(xs.size, dtype=np.float64)
    a, b, c = params.a, params.b, params.c
    for t in range(xs.size):
        h = a * h + b * xs[t]
        y[t] = c @ h
    return y


@pytest.fixture(scope="session")
def ssm_loop():
    return _ssm_loop
