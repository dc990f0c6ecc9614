"""Every span the benchmark's tracer installs must name a live library
attribute, or a library change silently breaks the benchmark.  The tracer is
loaded by path and only read; nothing is installed."""

import importlib.util
from pathlib import Path

import pytest

import halfwave
from halfwave import cli  # noqa: F401  the benchmark worker imports it too

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("module,path,name,counter", TARGETS,
                         ids=[f"{m}.{p}" for m, p, _, _ in TARGETS])
def test_target_resolves(module, path, name, counter):
    # the owner lookup and the __dict__ read mirror Tracer.install
    owner = getattr(halfwave, module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__
    assert callable(owner.__dict__[attr])
