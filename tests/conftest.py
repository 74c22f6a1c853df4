from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for matrix_oracle

from pgr import AdiagGroup, JRootRing, make_group_ring


@pytest.fixture
def jz():
    return JRootRing(2)


@pytest.fixture
def adiag3():
    return AdiagGroup(3)


@pytest.fixture
def ctx1(jz, adiag3):
    """jZ over adiag(C3), all powers 1: the primary worked context."""
    return make_group_ring(jz, adiag3)


@pytest.fixture
def worked_elements(ctx1):
    """The three elements of the worked product, r1 * r2 * r3."""
    r1 = ctx1.element({(1, 1): 5})
    r2 = ctx1.element({(0, 2): 2, (1, 2): -7})
    r3 = ctx1.element({(1, 0): -4, (2, 0): 7, (2, 1): -3})
    return r1, r2, r3


@pytest.fixture
def workloads():
    """The benchmark's seeded input generator, imported read-only; it does
    not import pgr."""
    bench = str(Path(__file__).resolve().parent.parent / "benchmarks")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    return workloads
