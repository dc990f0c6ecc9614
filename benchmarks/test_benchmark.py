"""The benchmark's own tests.

Run from the repository root with

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_benchmark.py

The oracle and tracer tests take seconds.  ``test_repeatable`` runs every
workload three times with ``--seconds 1 --trace 1`` (a few minutes): two runs
on one seed must give identical err.* and counts, and a second seed identical
work counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, span_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from halfwave import BoundaryCondition, causal_kernel, images_kernel, resolve  # noqa: E402

# work counts that depend on sizes only, never on the drawn parameters
WORK_COUNTS = [m for m, (source, _) in LAYER_METRICS.items()
               if source in ("count", "calls")
               and m not in ("cli.bytes_written", "warnings.TruncationWarning.count")]


def _points(n=600, seed=0):
    rng = np.random.default_rng(seed)
    t, x, y = rng.uniform(0.0, 2.5, n), rng.uniform(0.2, 3.5, n), rng.uniform(0.2, 3.5, n)
    keep = oracles.off_characteristics(t, x, y)
    return t[keep], x[keep], y[keep]


@pytest.mark.parametrize("bc, alpha", [(BoundaryCondition.dirichlet(), None),
                                       (BoundaryCondition.neumann(), 0.0)])
def test_closed_form_matches_images(bc, alpha):
    t, x, y = _points()
    for sign in (1.0, -1.0):
        assert np.array_equal(oracles.robin_kernel(sign * t, x, y, alpha),
                              images_kernel(sign * t, x, y, bc))


@pytest.mark.parametrize("alpha", [-1.0, 0.7, 2.0])
def test_closed_form_matches_spectral_kernel(alpha):
    t, x, y = _points(300)
    res = resolve(BoundaryCondition.robin(alpha), 0.0, np.linspace(0.0, 10.0, 64))
    err = np.max(np.abs(causal_kernel(res, t, x, y) - oracles.robin_kernel(t, x, y, alpha)))
    assert err < 1e-6


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, None, 1], ["b", 1.0, 4.0, 0, 1],
             ["c", 2.0, 3.0, 1, 1], ["b", 5.0, 6.0, 0, 1]]
    stats = span_stats(spans)[1]
    assert stats["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert stats["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert stats["c"]["self_s"] == 1.0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: unit for name, (_, unit) in LAYER_METRICS.items()}
    expected.update({"trace.overhead_frac": "ratio", "trace.self_sum_frac": "ratio"})
    assert layer == expected
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)


def _run(workload, seed):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
    return json.loads((ROOT / ".bench_out" / f"{workload}-s{seed}-t1.json").read_text())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_repeatable(workload):
    first, again, other = _run(workload, 1), _run(workload, 1), _run(workload, 2)
    assert first["err"] == again["err"]
    counts = [m for m, (source, _) in LAYER_METRICS.items() if source in ("count", "calls")]
    for name in counts:
        assert first["metrics"][name] == again["metrics"][name], name
    for name in WORK_COUNTS:
        assert first["metrics"][name] == other["metrics"][name], name
