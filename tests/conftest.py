import builtins
import os

import numpy as np
import pytest

from softedge import derive_config, tensor_io


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


class _Shrinking:
    """An unbuffered binary file whose size shrinks by one byte just before
    each ``readinto``: another writer truncating it while it is read. (A
    buffered one could hold a small file's body from its first read.)"""

    def __init__(self, f):
        self.f = f

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def readinto(self, buffer):
        os.truncate(self.f.name, os.fstat(self.f.fileno()).st_size - 1)
        return self.f.readinto(buffer)


@pytest.fixture
def shrinking_reads(monkeypatch):
    """``tensor_io`` opens every file it reads as a ``_Shrinking`` one."""
    def shrinking_open(path, mode="r", *args, **kwargs):
        if mode == "rb":
            return _Shrinking(builtins.open(path, mode, buffering=0))
        return builtins.open(path, mode, *args, **kwargs)

    monkeypatch.setattr(tensor_io, "open", shrinking_open, raising=False)
