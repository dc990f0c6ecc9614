"""Command-line front end.

Subcommands
-----------
spectrum   scan spectral membership over a lambda window, with an
           FD-oracle comparison column
kernel     build a causal-kernel grid and write CSV + binary + sidecar
evolve     drive a source through the retarded propagator (one applier for
           every condition, the dynamical one included) and write the
           trajectory with a boundary-residual column
verify     run the checks of ``verify.CHECKS`` and emit a JSON/text report

Every command is deterministic given its configuration: quadrature grids
are uniform, and verify's random samples come from a fixed seed.  Each output
carries a JSON sidecar holding the fully resolved configuration, so feeding
a sidecar (or ``verify.json``) back as ``--config`` reproduces it bit for bit.

No command loads scipy: the closed-form kernel tails and the FD
eigenvalues (Sturm counts) are numpy and plain Python.

The source of ``evolve`` and of verify's bc check is a Gaussian product
g(t) h(x), handed to the applier as its two factors: no command makes an
array of the (t, x) source, so the field is the one array of its size.

Exit codes: 0 success/pass, 1 check failure, 2 usage or configuration
error, 3 I/O error, 4 internal error (an unexpected exception, reported as
one ``internal error:`` line).

Configuration is a single JSON document; ``default_config()`` is the
schema, built from the ``_FIELDS`` table of defaults and rules, and
``parse_config`` deep-merges user files over it.  ``settings`` validates
every section, whichever command runs, before any work starts, rejects any
key the schema does not name, and hands the commands converted values.
The multiplier boundary condition takes polynomial coefficients, lowest
power first: {"kind": "multiplier", "poly": [0, 0, 1]} is p(k) = k^2.

``quadrature.nodes`` defaults to null: ``spectral.resolve`` then sizes the
xi grid for each window with ``spectral.default_nodes`` (span t_max + 2 x_max
for the appliers, max|t| + max x + max y for kernels), and each command
records the grid it used, ``{"xi_max", "nodes"}``, next to its outputs.  An
explicit count is used as given.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from . import oracle, propagator, spectral, triple, verify
from .model import BoundaryCondition, HalfSpaceModel

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


# Every scalar key's (default, rule).  "real" is a finite number, "positive"
# one > 0, "width" a positive Gaussian width w with 2 w^2 a normal double, and
# an int the least value of a whole count; a default of None also admits null.
_FIELDS = {
    "model": {"n": (0, 0), "k": (0.0, "real"), "x_max": (30.0, "positive"),
              "grid": (1024, 16)},
    "quadrature": {"xi_max": (40.0, "positive"), "nodes": (None, spectral.MIN_NODES)},
    "scan": {"lambda_min": (-3.0, "real"), "lambda_max": (-1e-3, "real"),
             "steps": (600, 0), "k_max": (8.0, "positive")},
    "source": {"amplitude": (1.0, "real"), "t0": (1.6, "real"),
               "sigma_t": (0.25, "width"), "x0": (3.0, "real"),
               "sigma_x": (0.4, "width")},
    "evolve": {"t_max": (6.0, "positive"), "steps": (480, 2)},
}


def default_config() -> dict:
    """The schema: every key a config may set but ``bc.poly``, at its default."""
    cfg = {name: {key: default for key, (default, _) in fields.items()}
           for name, fields in _FIELDS.items()}
    return {**cfg,
            "bc": {"kind": "robin", "alpha": -1.0},
            "grids": {"t": [0.0, 2.0, 20], "x": [0.2, 3.0, 20], "y": [0.2, 3.0, 20]},
            "verify": {"checks": "all"},
            "outputs": {"dir": "out", "formats": ["csv", "binary"]}}


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _not_json(token: str):
    # json.load accepts NaN, Infinity and -Infinity, which JSON has not
    raise ConfigError(f"config is not valid JSON: {token} is not a JSON number")


def parse_config(path=None) -> dict:
    cfg = default_config()
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh, parse_constant=_not_json)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        # sidecars and verify.json record the effective config as "config"
        if isinstance(user, dict) and "config" in user:
            user = user["config"]
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = _merge(cfg, user)
    return cfg


def _finite(value, what: str) -> float:
    # a JSON number: booleans and numeric strings are not numbers here
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return number


def _check(value, rule, what: str):
    number = _finite(value, what)
    if rule in ("positive", "width") and number <= 0:
        raise ConfigError(f"{what} must be positive, got {number}")
    # the Gaussian source divides by 2 w^2, which must not overflow nor
    # underflow to 0 (a sample at the centre would then give 0/0)
    if rule == "width" and not sys.float_info.min <= 2.0 * number * number < math.inf:
        raise ConfigError(f"{what} must be a width w with 2 w^2 a normal "
                          f"double, got {number}")
    if isinstance(rule, int):
        count = int(value)
        if count != value or count < rule:
            raise ConfigError(f"{what} must be a whole number >= {rule}, got {value!r}")
        return count
    return number


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name)
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    return section


def _names(value, known, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise ConfigError(f"{what} must be a list of names, got {value!r}")
    unknown = [name for name in value if name not in known]
    if unknown:
        raise ConfigError(f"unknown {what} entries: {', '.join(unknown)}; "
                          f"known: {', '.join(known)}")
    return list(value)


def _boundary(section: dict, k_bound: float) -> BoundaryCondition:
    # ``k_bound`` is the widest |k| at which any command evaluates p(k)
    kind = section.get("kind")
    if kind == "robin":
        return BoundaryCondition.robin(_finite(section.get("alpha"), "bc.alpha"))
    if kind == "multiplier":
        coeffs = section.get("poly")
        if not coeffs or not isinstance(coeffs, (list, tuple)):
            raise ConfigError(f"bc.poly must list coefficients, got {coeffs!r}")
        coeffs = tuple(_finite(c, "bc.poly coefficient") for c in coeffs)
        # sum |c_j| K^j bounds |p(k)| for every |k| <= K; formed term by
        # term, as the symbol is, so 0 times an overflowing K^j counts too
        try:
            bound = sum(abs(cj) * k_bound ** j for j, cj in enumerate(coeffs))
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise ConfigError(f"bc.poly overflows a double: sum |c_j| K^j is not "
                              f"finite at K = max(|model.k|, scan.k_max) = {k_bound:g}")
        return BoundaryCondition.multiplier(
            lambda k, c=coeffs: sum(cj * k ** j for j, cj in enumerate(c)))
    if kind in ("dirichlet", "neumann", "wentzell"):
        return BoundaryCondition(kind)
    raise ConfigError(f"unknown boundary condition kind {kind!r}")


def _axis(grids: dict, name: str) -> np.ndarray:
    axis = grids.get(name)
    if not isinstance(axis, (list, tuple)) or len(axis) != 3:
        raise ConfigError(f"grids.{name} must be [start, stop, count], got {axis!r}")
    lo, hi = (_finite(v, f"grids.{name} entry") for v in axis[:2])
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(lo, hi, _check(axis[2], 1, f"grids.{name} count"))
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"grids.{name} from {lo!r} to {hi!r} overflows a double")
    return values


def _outputs(cfg: dict) -> dict:
    section = _section(cfg, "outputs")
    path = section.get("dir")
    if not isinstance(path, str) or not path:
        raise ConfigError(f"outputs.dir must be a directory name, got {path!r}")
    return {"dir": path, "formats": _names(section.get("formats"),
                                           ("csv", "binary"), "outputs.formats")}


def settings(cfg: dict) -> dict:
    """Validate every section of a merged config and reject any key the
    schema does not name; raise ConfigError or return its values converted,
    one entry per section: ``model`` is a HalfSpaceModel, ``bc`` a
    BoundaryCondition, ``grids`` the (t, x, y) axes, the rest dicts of
    numbers and name lists.  ``config`` is ``cfg``."""
    # a misspelt key would otherwise run its default without a word
    schema = default_config()
    schema["bc"]["poly"] = None
    unknown = [name for name in cfg if name not in schema]
    unknown += [f"{name}.{key}" for name, section in cfg.items()
                if name in schema and isinstance(section, dict)
                for key in section if key not in schema[name]]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    run = {"config": cfg}
    for name, fields in _FIELDS.items():
        section = _section(cfg, name)
        run[name] = {}
        for key, (default, rule) in fields.items():
            value = section.get(key)
            run[name][key] = (None if value is None and default is None
                              else _check(value, rule, f"{name}.{key}"))
    try:
        run["model"] = HalfSpaceModel(**run["model"])
    except ValueError as exc:
        raise ConfigError(f"bad model section: {exc}") from None
    if run["scan"]["lambda_min"] >= 0:
        raise ConfigError("scan.lambda_min must be negative: the scan covers "
                          f"the negative spectrum, got {run['scan']['lambda_min']}")
    k = run["model"].k
    if not math.isfinite(k * k):
        raise ConfigError(f"model.k must have a finite square k^2, got {k!r}")
    run["bc"] = _boundary(_section(cfg, "bc"), max(abs(k), run["scan"]["k_max"]))
    steps = run["evolve"]["steps"]
    dt = run["evolve"]["t_max"] / (steps - 1)
    if run["bc"].is_dynamic and not (steps >= 3 and    # the bc check's d_tt
                                     sys.float_info.min <= dt * dt < math.inf):
        raise ConfigError("the dynamical condition needs evolve.steps >= 3 and "
                          "dt = evolve.t_max / (evolve.steps - 1) with dt^2 a "
                          f"normal double, got {steps} steps and dt = {dt!r}")
    run["grids"] = tuple(_axis(_section(cfg, "grids"), name) for name in "txy")
    # the frequency quadrature evaluates e^{i xi span} up to xi = xi_max, so
    # the largest phase of each window, xi_max * span, must be a double;
    # verify's windows are its fixed kernel grids and 4 + 2 x_max, within 4
    # of the applier span
    xi_max = run["quadrature"]["xi_max"]
    for what, span in (("kernel span max|t| + max|x| + max|y|",
                        propagator.kernel_span(*run["grids"])),
                       ("applier span evolve.t_max + 2 model.x_max",
                        run["evolve"]["t_max"] + 2.0 * run["model"].x_max)):
        if not math.isfinite(xi_max * span):
            raise ConfigError(f"the largest phase, quadrature.xi_max times "
                              f"the {what}, overflows a double")
    checks = _section(cfg, "verify").get("checks")
    run["verify"] = {"checks": list(verify.CHECKS) if checks == "all" else
                     _names(checks, verify.CHECKS, "verify.checks")}
    run["outputs"] = _outputs(cfg)
    return run


def _outdir(path) -> Path:
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOError(f"cannot create output directory {path}: {exc}") from exc
    return Path(path)


def _write_sidecar(path: Path, command: str, run: dict, extra: dict) -> None:
    # strict JSON, as verify.json: a non-finite value is written as null
    doc = verify._strict({"command": command, "config": run["config"], **extra})
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))


def _all_finite(what: str, values, inf_ok: bool = False) -> None:
    # a backstop after validation: no command writes a non-finite value;
    # ``inf_ok`` admits +-inf, for a column where inf encodes Dirichlet
    ok = ~np.isnan(values) if inf_ok else np.isfinite(values)
    bad = np.size(values) - np.count_nonzero(ok)
    if bad:
        kind = "NaN" if inf_ok else "non-finite"
        raise FloatingPointError(f"{what} has {bad} {kind} values; nothing written")


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(run: dict, outdir: Path) -> int:
    model, bc, scan = run["model"], run["bc"], run["scan"]
    lam_max = scan["lambda_max"] if scan["lambda_max"] < 0 else -1e-12
    lam_grid = np.linspace(scan["lambda_min"], lam_max, scan["steps"])
    k_range = model.k if model.n == 0 else (0.0, scan["k_max"])
    rows = triple.spectrum_scan(bc, lam_grid, k_range=k_range)
    # theta = inf is Dirichlet, written as inf; a NaN witness is a fault
    _all_finite("the theta - Weyl column", [row[2] for row in rows], inf_ok=True)
    # FD comparison: the count of eigenvalues below each lambda, read from
    # those below the grid's top (at least the lowest, for fd_lowest)
    sysm = oracle.assemble_fd(bc, model.k, model.grid, model.x_max)
    _all_finite("the FD diagonals", np.concatenate((sysm.diag, sysm.off)))
    located = max(1, oracle.fd_count_below(sysm, lam_grid.max(initial=-np.inf)))
    eigs = oracle.fd_spectrum(sysm, located)
    _all_finite("the FD eigenvalues", eigs)
    below = np.searchsorted(eigs, lam_grid).tolist()
    path = outdir / "spectrum.csv"
    with open(path, "w") as fh:
        fh.write("lambda,k,theta_minus_weyl,verdict,fd_eigs_below\n")
        for (lam, k, value, verdict), count in zip(rows, below):
            fh.write(f"{lam:.17g},{k:.17g},{value:.17g},{verdict},{count}\n")
    _write_sidecar(outdir / "spectrum.sidecar.json", "spectrum", run,
                   {"fd_lowest": float(eigs[0])})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_kernel(run: dict, outdir: Path) -> int:
    t, x, y = run["grids"]
    model, bc = run["model"], run["bc"]
    res = spectral.resolve(bc, model.k, model.x(), span=propagator.kernel_span(t, x, y),
                           **run["quadrature"])
    grid = propagator.build_kernel_grid(res, t, x, y)
    _all_finite("the kernel grid", grid.values)
    formats = run["outputs"]["formats"]
    if "csv" in formats:
        grid.to_csv(outdir / "kernel.csv")
    if "binary" in formats:
        grid.to_binary(outdir / "kernel")
    _write_sidecar(outdir / "kernel.sidecar.json", "kernel", run,
                   {"kernel_meta": grid.meta})
    print(f"wrote kernel grid {grid.values.shape} to {outdir}")
    return EXIT_OK


def cmd_evolve(run: dict, outdir: Path) -> int:
    model, bc = run["model"], run["bc"]
    t_max = run["evolve"]["t_max"]
    x = model.x()
    res = spectral.resolve(bc, model.k, x, span=t_max + 2.0 * model.x_max,
                           **run["quadrature"])
    t = np.linspace(0.0, t_max, run["evolve"]["steps"])
    gh = propagator.gaussian_source(run["source"], t, x)
    field = propagator.apply_retarded(res, gh, t)
    _all_finite("the field", field)
    residual = verify.bc_residual(field, t, x, bc, k=model.k)
    formats = run["outputs"]["formats"]
    if "csv" in formats:
        propagator.write_grid_csv(outdir / "field.csv", "t,x,value", (t, x),
                                  field)
    if "binary" in formats:
        field.astype("<f8", copy=False).tofile(outdir / "field.bin")
    _write_sidecar(outdir / "field.sidecar.json", "evolve", run,
                   {"bc_residual": residual,
                    "axes": {"t": [float(t[0]), float(t[-1]), int(t.size)],
                             "x": [0.0, model.x_max, int(x.size)]},
                    "quadrature": res.quadrature})
    print(f"wrote field {field.shape} to {outdir}; bc residual {residual:.3e}")
    return EXIT_OK


def cmd_verify(run: dict, outdir: Path) -> int:
    checks = {}
    for name in run["verify"]["checks"]:
        checks[name] = verify.run_check(name, run)
        print(f"{'PASS' if checks[name]['passed'] else 'FAIL'}  {name}")
    payload = {"passed": all(c["passed"] for c in checks.values()),
               "checks": checks, "config": run["config"]}
    verify.emit_report(outdir / "verify.json", payload)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


# command -> its handler's name, in help order.  The handler is looked up
# by name when it runs, so a wrapped ``cmd_*`` attribute is the one called.
_COMMANDS = {
    "spectrum": "cmd_spectrum",
    "kernel": "cmd_kernel",
    "evolve": "cmd_evolve",
    "verify": "cmd_verify",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfwave",
        description="Green operators for the wave equation on the half line")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON configuration file")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (overrides outputs.dir)")
    parser.add_argument("command", choices=list(_COMMANDS))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handler = _COMMANDS[args.command]
    try:
        # made before validation, and before parsing when --out names it:
        # a rejected config leaves it empty
        outdir = args.out and _outdir(args.out)
        cfg = parse_config(args.config)
        outdir = outdir or _outdir(_outputs(cfg)["dir"])
        # an overflow inside the numerics is reported once, by the
        # non-finite backstop before any write, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            run = settings(cfg)
            return globals()[handler](run, outdir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
