import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import latq

settings.register_profile(
    "workbench",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("workbench")


@pytest.fixture(scope="session")
def zoo():
    """Small named lattices shared across the suite."""
    g = latq.GeneratorSpec
    members = {
        "c1": latq.generate(g("chain", n=1)),
        "c2": latq.generate(g("chain", n=2)),
        "c3": latq.generate(g("chain", n=3)),
        "c4": latq.generate(g("chain", n=4)),
        "b2": latq.generate(g("boolean", k=2)),
        "b3": latq.generate(g("boolean", k=3)),
        "m3": latq.generate(g("m3")),
        "n5": latq.generate(g("n5")),
        "p23": latq.generate(g("product", a=2, b=3)),
    }
    return members


@pytest.fixture(scope="session")
def corpus():
    return latq.builtin_corpus()


@pytest.fixture(scope="session")
def perfbench_workloads():
    """perfbench/workloads.py, loaded by path: the benchmark's inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
