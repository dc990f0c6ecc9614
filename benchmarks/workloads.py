"""The benchmark's workloads: how each op is drawn and how its outputs are judged.

An op is one or more ``halfwave`` CLI commands run on one drawn config.  Op j
of worker process p draws its free parameters from ``default_rng([seed, p,
j])``, so the same seed always gives the same ops; sizes never depend on the
draw, so the work per op is constant.

``check`` reads an op's outputs after its worker has exited and returns the
accuracy reached against an oracle, as ``{name: (value, tol, unit)}``, plus a
list of reasons the op fails the output gate.  Tolerances are the acceptance
suite's: 1e-3 for kernels and FD eigenvalues, 1e-2 for fields against
leapfrog, and the CLI's own verify tolerances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

ALPHA_RANGE = (-1.5, -0.5)
FIELD_BCS = ("robin", "dirichlet", "wentzell")


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple        # CLI commands of one op, run in order
    sidecar: str           # sidecar a replay feeds back through --config
    primary: tuple         # outputs a replay must reproduce byte for byte
    draw: Callable         # (rng, p, j) -> config overrides
    check: Callable        # op directory -> (errs, problems)
    cycle: int = 1         # ops after which the drawn configs repeat their kinds

    def config(self, seed: int, p: int, j: int) -> dict:
        return self.draw(np.random.default_rng([seed, p, j]), p, j)


def _alpha(rng) -> float:
    return float(rng.uniform(*ALPHA_RANGE))


def _nonfinite(values: np.ndarray, what: str) -> list:
    bad = int(np.size(values) - np.count_nonzero(np.isfinite(values)))
    return [f"{bad} non-finite values in {what}"] if bad else []


def _over_tol(errs: dict) -> list:
    return [f"{name} = {value:.3e} above tol {tol:g}"
            for name, (value, tol, _) in errs.items() if not value <= tol]


# ---------------------------------------------------------------------------
# kernel_grid: `halfwave kernel` on shifted 20^3 windows

def _draw_kernel(rng, p, j):
    alpha = _alpha(rng)
    dt, dx, dy = rng.uniform(0.0, 0.5, 3)
    return {"bc": {"kind": "robin", "alpha": alpha},
            "grids": {"t": [float(dt), 2.0 + float(dt), 20],
                      "x": [0.2 + float(dx), 3.0 + float(dx), 20],
                      "y": [0.2 + float(dy), 3.0 + float(dy), 20]}}


def _check_kernel(opdir: Path):
    meta = json.loads((opdir / "kernel.json").read_text())
    cfg = json.loads((opdir / "kernel.sidecar.json").read_text())["config"]
    values = np.fromfile(opdir / "kernel.bin", dtype=meta["dtype"]).reshape(meta["shape"])
    problems = _nonfinite(values, "kernel.bin")
    axes = [np.linspace(a[0], a[1], a[2]) for a in
            (meta["axes"]["t"], meta["axes"]["x"], meta["axes"]["y"])]
    T, X, Y = np.meshgrid(*axes, indexing="ij")
    keep = oracles.off_characteristics(T, X, Y)
    exact = oracles.robin_kernel(T[keep], X[keep], Y[keep], float(cfg["bc"]["alpha"]))
    errs = {"err.kernel": (float(np.max(np.abs(values[keep] - exact))), 1e-3, "abs")}
    return errs, problems + _over_tol(errs)


# ---------------------------------------------------------------------------
# field_evolve: `halfwave evolve` cycling Robin, Dirichlet and wentzell

def _draw_field(rng, p, j):
    alpha = _alpha(rng)
    t0 = float(rng.uniform(1.4, 1.8))
    x0 = float(rng.uniform(2.5, 3.5))
    kind = FIELD_BCS[(p + j) % len(FIELD_BCS)]
    bc = {"kind": kind, "alpha": alpha} if kind == "robin" else {"kind": kind}
    return {"bc": bc, "source": {"t0": t0, "x0": x0}}


def _check_field(opdir: Path):
    from halfwave.model import BoundaryCondition
    from halfwave.oracle import assemble_fd, leapfrog

    doc = json.loads((opdir / "field.sidecar.json").read_text())
    cfg, axes = doc["config"], doc["axes"]
    t = np.linspace(*axes["t"][:2], axes["t"][2])
    x = np.linspace(*axes["x"][:2], axes["x"][2])
    field = np.fromfile(opdir / "field.bin", dtype="<f8").reshape(t.size, x.size)
    problems = _nonfinite(field, "field.bin")
    kind = cfg["bc"]["kind"]
    bc = {"robin": lambda: BoundaryCondition.robin(float(cfg["bc"]["alpha"])),
          "dirichlet": BoundaryCondition.dirichlet,
          "wentzell": BoundaryCondition.wentzell_laplace}[kind]()
    model = cfg["model"]
    sysm = assemble_fd(bc, float(model["k"]), int(model["grid"]), float(model["x_max"]))
    f = oracles.gaussian_source(cfg["source"], t, x)
    times, U, _ = leapfrog(sysm, np.zeros(x.size), np.zeros(x.size),
                           float(t[1] - t[0]), float(t[-1]), source=f)
    errs = {"err.field": (oracles.rel_l2(field[: times.size], U), 1e-2, "rel_L2")}
    return errs, problems + _over_tol(errs)


# ---------------------------------------------------------------------------
# oracle_check: `halfwave spectrum` then `halfwave verify` at grid 2048

def _spectrum_measure(check: dict) -> float:
    # the CLI's spectrum check wants one root and one FD eigenvalue at -1
    if len(check["roots"]) != 1:
        return np.inf
    return max(abs(check["roots"][0] + 1.0), abs(check["fd_lowest"] + 1.0))


# the verify.json entry each check is judged by
_VERIFY_MEASURE = {
    "greens_identity": lambda c: c["residual"],
    "spectrum": _spectrum_measure,
    "kernel_images": lambda c: c["max_err"],
    "causality": lambda c: c["max_acausal"],
    "bc_residual": lambda c: c["residual"],
    "energy": lambda c: c["drift"],
}


def _draw_oracle(rng, p, j):
    return {"bc": {"kind": "robin", "alpha": _alpha(rng)}, "model": {"grid": 2048}}


def _check_oracle(opdir: Path):
    side = json.loads((opdir / "spectrum.sidecar.json").read_text())
    report = json.loads((opdir / "verify.json").read_text())
    alpha = float(side["config"]["bc"]["alpha"])
    fd_lowest = side["fd_lowest"]
    problems = []
    if fd_lowest is None or not np.isfinite(fd_lowest):
        problems.append(f"no finite FD eigenvalue in the spectrum sidecar: {fd_lowest}")
        fd_lowest = np.inf
    checks = report["checks"]
    missing = sorted(set(_VERIFY_MEASURE) - set(checks))
    if missing:
        problems.append(f"verify.json lacks checks {missing}")
    ratios = {name: float(_VERIFY_MEASURE[name](c)) / float(c["tol"])
              for name, c in checks.items()}
    problems += [f"verify {name} marked failed" for name, c in checks.items()
                 if not c["passed"]]
    errs = {"err.fd_lowest": (abs(float(fd_lowest) + alpha * alpha), 1e-3, "abs"),
            "err.verify_ratio": (max(ratios.values(), default=np.inf), 1.0, "ratio")}
    return errs, problems + _over_tol(errs)


WORKLOADS = {w.name: w for w in (
    Workload("kernel_grid", ("kernel",), "kernel.sidecar.json", ("kernel.bin",),
             _draw_kernel, _check_kernel),
    Workload("field_evolve", ("evolve",), "field.sidecar.json", ("field.bin",),
             _draw_field, _check_field, cycle=len(FIELD_BCS)),
    Workload("oracle_check", ("spectrum", "verify"), "spectrum.sidecar.json",
             ("spectrum.csv", "verify.json"), _draw_oracle, _check_oracle),
)}
