import gc
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the tests' child interpreters import wavelab from this checkout as well
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from wavelab.code_space import CylinderFn, IfsSpec

# one line per acceptance criterion, echoed after the run (uncaptured)
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that ends with the cyclic collector off (and turn it back on):
    left off, it would slow every later test without notice."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector off")


@pytest.fixture
def spec2() -> IfsSpec:
    return IfsSpec(2)


@pytest.fixture
def spec3() -> IfsSpec:
    return IfsSpec(3)


@pytest.fixture
def spec_weighted() -> IfsSpec:
    return IfsSpec(2, (0.25, 0.75))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_cylinder(rng, spec, depth, scale=1.0) -> CylinderFn:
    size = spec.N**depth
    return CylinderFn(
        spec, depth, rng.normal(0, scale, size) + 1j * rng.normal(0, scale, size)
    )
