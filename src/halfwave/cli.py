"""Command-line front end.

Subcommands
-----------
spectrum   scan spectral membership over a lambda window, with an
           FD-oracle comparison column
kernel     build a causal-kernel grid and write CSV + binary + sidecar
evolve     drive a source through the retarded propagator (dynamical
           conditions go through the extended-space applier) and write the
           trajectory with a boundary-residual column
verify     run the verification suite and emit a JSON/text report

Every command is deterministic given its configuration: quadrature grids
are uniform and nothing draws randomness.  Each output carries a JSON
sidecar holding the fully resolved configuration, so feeding a sidecar back
as ``--config`` reproduces the run bit for bit.

Exit codes: 0 success/pass, 1 check failure, 2 usage or configuration
error, 3 I/O error.

Configuration is a single JSON document; ``default_config()`` is the
canonical schema and ``parse_config`` deep-merges user files over it.  The
multiplier boundary condition takes polynomial coefficients, lowest power
first: {"kind": "multiplier", "poly": [0, 0, 1]} is p(k) = k^2.

``quadrature.nodes`` defaults to null: each command then sizes the xi grid
for its own window with ``spectral.default_nodes`` (span t_max + 2 x_max for
the appliers, max|t| + max x + max y for kernels) and records the grid it
used, ``{"xi_max", "nodes"}``, next to its outputs.  An explicit count is
used as given.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import oracle, propagator, spectral, triple, verify
from .model import BoundaryCondition, HalfSpaceModel

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


def default_config() -> dict:
    return {
        "model": {"n": 0, "k": 0.0, "x_max": 30.0, "grid": 1024},
        "bc": {"kind": "robin", "alpha": -1.0},
        "quadrature": {"xi_max": 40.0, "nodes": None},
        "grids": {
            "t": [0.0, 2.0, 20],
            "x": [0.2, 3.0, 20],
            "y": [0.2, 3.0, 20],
        },
        "scan": {"lambda_min": -3.0, "lambda_max": -1e-3, "steps": 600},
        "source": {"profile": "gaussian", "amplitude": 1.0,
                   "t0": 1.6, "sigma_t": 0.25, "x0": 3.0, "sigma_x": 0.4},
        "evolve": {"t_max": 6.0, "steps": 480},
        "verify": {"checks": "all", "tol_scale": 1.0,
                   "bc_check_alpha_override": None},
        "outputs": {"dir": "out", "formats": ["csv", "binary"]},
    }


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def parse_config(path=None, overrides=None) -> dict:
    cfg = default_config()
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        # sidecars store the effective config under "config"
        if "config" in user and "command" in user:
            user = user["config"]
        cfg = _merge(cfg, user)
    if overrides:
        cfg = _merge(cfg, overrides)
    return cfg


def emit_config(cfg: dict) -> str:
    """Canonical serialization; parse(emit(cfg)) == cfg."""
    return json.dumps(cfg, indent=2, sort_keys=True)


def _finite(value, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not np.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {number}")
    return number


def _build_bc(section: dict) -> BoundaryCondition:
    kind = section.get("kind")
    if kind == "dirichlet":
        return BoundaryCondition.dirichlet()
    if kind == "neumann":
        return BoundaryCondition.neumann()
    if kind == "robin":
        if "alpha" not in section:
            raise ConfigError("robin condition needs field 'alpha'")
        return BoundaryCondition.robin(_finite(section["alpha"], "bc.alpha"))
    if kind == "multiplier":
        coeffs = section.get("poly")
        if not coeffs or not isinstance(coeffs, (list, tuple)):
            raise ConfigError("multiplier condition needs 'poly' coefficients "
                              "(lowest power first)")
        coeffs = [_finite(c, "bc.poly coefficient") for c in coeffs]
        return BoundaryCondition.multiplier(
            lambda k, c=tuple(coeffs): sum(cj * k ** j for j, cj in enumerate(c)))
    if kind == "wentzell":
        return BoundaryCondition.wentzell_laplace()
    raise ConfigError(f"unknown boundary condition kind {kind!r}")


def _build_model(section: dict) -> HalfSpaceModel:
    try:
        return HalfSpaceModel(n=int(section["n"]), k=float(section["k"]),
                              x_max=float(section["x_max"]),
                              grid=int(section["grid"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc


def _axis(grids, name: str) -> np.ndarray:
    axis = grids.get(name) if isinstance(grids, dict) else None
    if not isinstance(axis, (list, tuple)) or len(axis) != 3:
        raise ConfigError(f"grids.{name} must be [start, stop, count], "
                          f"got {axis!r}")
    lo, hi, count = (_finite(v, f"grids.{name} entry") for v in axis)
    count = int(count)
    if count < 1:
        raise ConfigError(f"grids.{name} needs at least one sample")
    return np.linspace(lo, hi, count)


def _quadrature(section: dict):
    # (xi_max, nodes); nodes is None when the window should size the grid
    xi_max = _finite(section["xi_max"], "quadrature.xi_max")
    if xi_max <= 0:
        raise ConfigError(f"quadrature.xi_max must be positive, got {xi_max}")
    nodes = section.get("nodes")
    if nodes is None:
        return xi_max, None
    nodes = int(_finite(nodes, "quadrature.nodes"))
    if nodes < spectral.MIN_NODES:
        raise ConfigError(f"quadrature.nodes must be at least "
                          f"{spectral.MIN_NODES}, got {nodes}")
    return xi_max, nodes


def _resolution(cfg: dict, bc: BoundaryCondition, k: float, x, span: float):
    # the configured quadrature, or the default node count for ``span``
    xi_max, nodes = _quadrature(cfg["quadrature"])
    if nodes is None:
        nodes = spectral.default_nodes(bc, k, xi_max, span)
    return spectral.resolve(bc, k, x, xi_max=xi_max, nodes=nodes)


def _outdir(cfg: dict, out_flag) -> Path:
    path = Path(out_flag) if out_flag else Path(cfg["outputs"]["dir"])
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _write_sidecar(path: Path, command: str, cfg: dict, extra=None) -> None:
    doc = {"command": command, "config": cfg}
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True))


def _gaussian_source(cfg: dict, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    src = cfg["source"]
    if src.get("profile", "gaussian") != "gaussian":
        raise ConfigError(f"unknown source profile {src.get('profile')!r}")
    amp, t0, sigma_t, x0, sigma_x = (
        _finite(src[key], f"source.{key}")
        for key in ("amplitude", "t0", "sigma_t", "x0", "sigma_x"))
    if amp == 0.0:
        return np.zeros((t.size, x.size))
    return amp * np.exp(-((t[:, None] - t0) ** 2) / (2 * sigma_t ** 2)
                        - ((x[None, :] - x0) ** 2) / (2 * sigma_x ** 2))


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(cfg: dict, outdir: Path) -> int:
    model = _build_model(cfg["model"])
    bc = _build_bc(cfg["bc"])
    scan = cfg["scan"]
    lam_min, lam_max = (_finite(scan[key], f"scan.{key}")
                        for key in ("lambda_min", "lambda_max"))
    steps = int(_finite(scan["steps"], "scan.steps"))
    k_max = _finite(scan.get("k_max", 8.0), "scan.k_max")
    if k_max <= 0:
        raise ConfigError(f"scan.k_max must be positive, got {k_max}")
    if lam_max >= 0:
        lam_max = -1e-12
    lam_grid = np.linspace(lam_min, lam_max, steps) if steps > 0 else []
    k_range = model.k if model.n == 0 else (0.0, k_max)
    rows = triple.spectrum_scan(bc, lam_grid, k_range=k_range)
    # FD comparison: count of eigenvalues below each lambda
    sysm = oracle.assemble_fd(bc, model.k, model.grid, model.x_max)
    count = min(32, sysm.n_active)
    eigs = oracle.fd_spectrum(sysm, count)
    path = outdir / "spectrum.csv"
    with open(path, "w") as fh:
        fh.write("lambda,k,theta_minus_weyl,verdict,fd_eigs_below\n")
        for lam, k, value, verdict in rows:
            below = int(np.sum(eigs < lam))
            fh.write(f"{lam:.17g},{k:.17g},{value:.17g},{verdict},{below}\n")
    _write_sidecar(outdir / "spectrum.sidecar.json", "spectrum", cfg,
                   {"fd_lowest": float(eigs[0]) if len(eigs) else None})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_kernel(cfg: dict, outdir: Path) -> int:
    t, x, y = (_axis(cfg["grids"], name) for name in ("t", "x", "y"))
    model, bc = _build_model(cfg["model"]), _build_bc(cfg["bc"])
    res = _resolution(cfg, bc, model.k, model.x(), propagator.kernel_span(t, x, y))
    grid = propagator.build_kernel_grid(res, t, x, y)
    formats = cfg["outputs"]["formats"]
    if "csv" in formats:
        grid.to_csv(outdir / "kernel.csv")
    if "binary" in formats:
        grid.to_binary(outdir / "kernel")
    _write_sidecar(outdir / "kernel.sidecar.json", "kernel", cfg,
                   {"kernel_meta": grid.meta})
    print(f"wrote kernel grid {grid.values.shape} to {outdir}")
    return EXIT_OK


def _check_evolve(cfg: dict) -> None:
    # inputs that would crash the time integrals or write a NaN field
    steps = int(_finite(cfg["evolve"]["steps"], "evolve.steps"))
    if steps < 2:
        raise ConfigError(f"evolve.steps must be at least 2, got {steps}")
    for name, value in (("evolve.t_max", cfg["evolve"]["t_max"]),
                        ("source.sigma_t", cfg["source"]["sigma_t"]),
                        ("source.sigma_x", cfg["source"]["sigma_x"])):
        if _finite(value, name) <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")


def cmd_evolve(cfg: dict, outdir: Path) -> int:
    _check_evolve(cfg)
    t_max = float(cfg["evolve"]["t_max"])
    model, bc = _build_model(cfg["model"]), _build_bc(cfg["bc"])
    x = model.x()
    res = _resolution(cfg, bc, model.k, x, t_max + 2.0 * model.x_max)
    t = np.linspace(0.0, t_max, int(cfg["evolve"]["steps"]))
    f = _gaussian_source(cfg, t, x)
    if bc.is_dynamic:
        field = propagator.wentzell_apply(res, f, t, support="retarded")
    else:
        field = propagator.apply_retarded(res, f, t)
    residual = verify.bc_residual(field, t, x, bc, k=model.k)
    formats = cfg["outputs"]["formats"]
    if "csv" in formats:
        propagator.write_grid_csv(outdir / "field.csv", "t,x,value", (t, x),
                                  field)
    if "binary" in formats:
        field.astype("<f8").tofile(outdir / "field.bin")
    _write_sidecar(outdir / "field.sidecar.json", "evolve", cfg,
                   {"bc_residual": residual,
                    "axes": {"t": [float(t[0]), float(t[-1]), int(t.size)],
                             "x": [0.0, model.x_max, int(x.size)]},
                    "quadrature": res.quadrature})
    print(f"wrote field {field.shape} to {outdir}; bc residual {residual:.3e}")
    return EXIT_OK


def _verify_greens(cfg, tol):
    model = _build_model(cfg["model"])
    x = np.linspace(0.0, 30.0, 3000)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        x0, s0 = rng.uniform(2, 8), rng.uniform(0.5, 1.5)
        x1, s1 = rng.uniform(2, 8), rng.uniform(0.5, 1.5)
        f1 = np.exp(-((x - x0) ** 2) / (2 * s0 ** 2)) + rng.uniform(0, 1) * np.exp(-x)
        f2 = np.exp(-((x - x1) ** 2) / (2 * s1 ** 2)) + rng.uniform(0, 1) * x * np.exp(-x)
        worst = max(worst, triple.greens_identity_residual(f1, f2, model.k, x))
    return {"residual": worst, "tol": tol, "passed": bool(worst <= tol)}


def _verify_spectrum(cfg, tol):
    roots = triple.negative_spectrum_roots(BoundaryCondition.robin(-1.0), -3.0)
    sysm = oracle.assemble_fd(BoundaryCondition.robin(-1.0), 0.0, 1024, 20.0)
    low = float(oracle.fd_spectrum(sysm, 1)[0])
    ok = len(roots) == 1 and abs(roots[0] + 1.0) <= 1e-3 and abs(low + 1.0) <= tol
    return {"roots": roots, "fd_lowest": low, "tol": tol, "passed": bool(ok)}


def _verify_kernel_images(cfg, tol):
    # the configured condition when it is static at k = 0, else Dirichlet;
    # multipliers enter the oracle as the Robin condition they reduce to
    model = _build_model(cfg["model"])
    bc = _build_bc(cfg["bc"])
    if bc.is_dynamic or model.k != 0.0:
        bc = BoundaryCondition.dirichlet()
    rng = np.random.default_rng(11)
    t = rng.uniform(0.05, 2.0, 100)
    x = rng.uniform(0.2, 3.0, 100)
    y = rng.uniform(0.2, 3.0, 100)
    guard = 0.05
    keep = (np.abs(t - np.abs(x - y)) > guard) & (np.abs(t - (x + y)) > guard)
    t, x, y = t[keep], x[keep], y[keep]
    res = _resolution(cfg, bc, 0.0, np.linspace(0, 10, 64),
                      propagator.kernel_span(t, x, y))
    images_bc = bc if res.alpha is None else BoundaryCondition.robin(res.alpha)
    K = propagator.causal_kernel(res, t, x, y)
    Im = oracle.images_kernel(t, x, y, images_bc)
    worst = float(np.max(np.abs(K - Im)))
    return {"bc": bc.describe(0.0), "max_err": worst, "points": int(t.size),
            "quadrature": res.quadrature, "tol": tol, "passed": worst <= tol}


def _verify_causality(cfg, tol):
    model = _build_model(cfg["model"])
    bc, k = _build_bc(cfg["bc"]), model.k
    if bc.is_dynamic or k != 0.0:
        bc, k = BoundaryCondition.robin(-1.0), 0.0
    t = np.linspace(0.0, 1.5, 9)
    x = np.linspace(0.3, 3.5, 12)
    res = _resolution(cfg, bc, k, model.x(), propagator.kernel_span(t, x, x))
    grid = propagator.build_kernel_grid(res, t, x, x)
    report = verify.causality_report(grid, tol=tol)
    return {"max_acausal": report["max_acausal"], "quadrature": res.quadrature,
            "tol": tol, "passed": report["passed"]}


def _verify_bc(cfg, tol):
    t = np.linspace(0.0, 4.0, 320)
    model, bc = _build_model(cfg["model"]), _build_bc(cfg["bc"])
    res = _resolution(cfg, bc, model.k, model.x(), float(t[-1]) + 2.0 * model.x_max)
    f = _gaussian_source(_merge(cfg, {"source": {"t0": 1.6, "sigma_t": 0.25,
                                                 "x0": 2.5, "sigma_x": 0.4}}),
                         t, model.x())
    if bc.is_dynamic:
        field = propagator.wentzell_apply(res, f, t)
    else:
        field = propagator.apply_retarded(res, f, t)
    check_bc = bc
    override = cfg["verify"].get("bc_check_alpha_override")
    if override is not None:
        check_bc = BoundaryCondition.robin(float(override))
    residual = verify.bc_residual(field, t, model.x(), check_bc, k=model.k)
    return {"residual": residual, "quadrature": res.quadrature, "tol": tol,
            "passed": residual <= tol}


def _verify_energy(cfg, tol):
    model, bc = _build_model(cfg["model"]), _build_bc(cfg["bc"])
    sysm = oracle.assemble_fd(bc, model.k, model.grid, model.x_max)
    x = model.x()
    u0 = np.exp(-((x - 0.35 * model.x_max) ** 2) / (2 * 0.5 ** 2))
    dt = 0.4 * sysm.dx
    times, U, Udot = oracle.leapfrog(sysm, u0, np.zeros_like(u0), dt, 6.0,
                                     sample_stride=8)
    report = verify.energy_report(times, U, Udot, sysm.dx, bc, k=model.k)
    return {"drift": report.drift, "tol": tol, "passed": report.drift <= tol}


# check name -> (runner, tolerance before tol_scale), in report order
_VERIFY_CHECKS = {
    "greens_identity": (_verify_greens, 1e-6),
    "spectrum": (_verify_spectrum, 1e-3),
    "kernel_images": (_verify_kernel_images, 1e-3),
    "causality": (_verify_causality, 1e-3),
    "bc_residual": (_verify_bc, 1e-2),
    "energy": (_verify_energy, 1e-3),
}


def cmd_verify(cfg: dict, outdir: Path) -> int:
    requested = cfg["verify"]["checks"]
    if requested == "all":
        names = list(_VERIFY_CHECKS)
    else:
        names = list(requested)
        unknown = [n for n in names if n not in _VERIFY_CHECKS]
        if unknown:
            raise ConfigError(f"unknown check name(s): {', '.join(unknown)}; "
                              f"known: {', '.join(_VERIFY_CHECKS)}")
    scale = _finite(cfg["verify"].get("tol_scale", 1.0), "verify.tol_scale")
    if scale <= 0:
        raise ConfigError(f"verify.tol_scale must be positive, got {scale}")
    override = cfg["verify"].get("bc_check_alpha_override")
    if override is not None:
        _finite(override, "verify.bc_check_alpha_override")
    # the sections the checks read, before the first verdict is printed
    _build_model(cfg["model"])
    _build_bc(cfg["bc"])
    _quadrature(cfg["quadrature"])
    _gaussian_source(cfg, np.empty(0), np.empty(0))
    checks = {}
    for name in names:
        runner, tol = _VERIFY_CHECKS[name]
        checks[name] = runner(cfg, tol * scale)
        status = "PASS" if checks[name]["passed"] else "FAIL"
        print(f"{status}  {name}")
    payload = {"passed": all(c["passed"] for c in checks.values()),
               "checks": checks, "config": cfg}
    verify.emit_report(outdir / "verify.json", payload)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfwave",
        description="Green operators for the wave equation on the half line")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON configuration file")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (overrides outputs.dir)")
    parser.add_argument("--tol", type=float, default=None,
                        help="scale factor applied to verify tolerances")
    parser.add_argument("--nodes", type=int, default=None,
                        help="quadrature node count (default: sized for "
                             "each command's window)")
    parser.add_argument("--xi-max", type=float, default=None,
                        help="override quadrature truncation")
    parser.add_argument("command", choices=["spectrum", "kernel", "evolve",
                                            "verify"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    overrides = {}
    if args.nodes is not None:
        overrides.setdefault("quadrature", {})["nodes"] = args.nodes
    if args.xi_max is not None:
        overrides.setdefault("quadrature", {})["xi_max"] = args.xi_max
    if args.tol is not None:
        overrides.setdefault("verify", {})["tol_scale"] = args.tol
    try:
        cfg = parse_config(args.config, overrides)
        outdir = _outdir(cfg, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IOError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    handlers = {"spectrum": cmd_spectrum, "kernel": cmd_kernel,
                "evolve": cmd_evolve, "verify": cmd_verify}
    try:
        return handlers[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IOError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
