"""halfwave benchmark: one workload per call, each op through ``halfwave.cli.main``.

Run from the repository root:

    python3 benchmarks/run.py --workload kernel_grid --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  A run starts ``SETUP_PROCS``
fresh worker processes one after another (``worker.py``).  Each runs a cold
op, which measures set-up; the first then runs warm ops for ``--seconds``, a
closed loop with one client, and the last replays the first's cold op from
its sidecar.  After every worker has exited, each op's outputs go through the
output gate: the CLI exited 0 without raising, ``.bin`` payloads are finite,
the accuracy against an oracle is within the acceptance tolerance, CSV files
have their expected row count, and the replay reproduced the primary outputs
byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the warm ops
in pairs on one config, the first traced (``tracer.py``) and the second not,
and reports the per-layer metrics and the tracing overhead.  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full results,
with the environment block, go to ``.bench_out/<workload>-s<seed>-t<trace>.json``.
The exit code is 0 when every op passes the gate, 1 when one fails and 2 when
the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROCS = 3        # fresh interpreters per run; set-up is their median
ERR_OPS = ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0))   # ops whose err.* are reported
RUN_DEADLINE = 160.0   # s for all workers of a run; a run must end within 180 s

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def environment(workload: str, seed: int, threads: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": threads},
            "nproc": os.cpu_count(),
            "cpu_model": cpu, "workload": workload, "seed": seed}


def spawn(args, proc: int, outdir: Path, threads: int, deadline: float,
          **flags) -> tuple:
    """Start one worker, wait for it, and return (spawn time, its record)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--proc", str(proc), "--out", str(outdir),
           "--trace", str(args.trace)]
    for flag, value in flags.items():
        cmd += [f"--{flag.replace('_', '-')}", str(value)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    started = time.monotonic()
    with open(outdir / f"worker{proc}.log", "w") as log:
        child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                 stderr=subprocess.STDOUT)
        try:
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            code = "timeout"
    result = outdir / f"proc{proc}.json"
    if code != 0 or not result.exists():
        return started, {"crashed": f"worker {proc} exited with {code}; "
                                    f"see {outdir / f'worker{proc}.log'}"}
    return started, json.loads(result.read_text())


def gate(workload, outdir: Path, op: dict) -> tuple:
    """Check one op; returns (errs, problems)."""
    problems = [f"`halfwave {c}` exited {code}"
                for c, code in zip(workload.commands, op["codes"]) if code != 0]
    if op["error"]:
        problems.append(f"raised {op['error']}")
    if problems:
        return {}, problems
    opdir = outdir / f"p{op['proc']}-op{op['j']}"
    errs, found = workload.check(opdir)
    cfg = json.loads((opdir / workload.sidecar).read_text())["config"]   # effective config
    for name, rows in op["csv_rows"].items():
        expected = _expected_rows(name, cfg)
        if rows != expected:
            found.append(f"{name} has {rows} lines, expected {expected}")
    return errs, problems + found


def _expected_rows(name: str, cfg: dict) -> int:
    if name == "kernel.csv":
        g = cfg["grids"]
        return 1 + g["t"][2] * g["x"][2] * g["y"][2]
    if name == "field.csv":
        return 1 + int(cfg["evolve"]["steps"]) * int(cfg["model"]["grid"])
    if name == "spectrum.csv":
        return 1 + int(cfg["scan"]["steps"])
    raise ValueError(f"no row count known for {name}")


def replay_problems(workload, outdir: Path) -> list:
    out = []
    for name in workload.primary:
        first = (outdir / "p0-op0" / name).read_bytes()
        again = (outdir / f"p{SETUP_PROCS - 1}-op0" / name).read_bytes()
        if first != again:
            out.append(f"replay through --config did not reproduce {name}")
    return out


def tail(values: list) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    return {"value": sorted(values)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (SRC / "halfwave" / "cli.py").is_file():
        print(f"benchmark: no halfwave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))   # BLAS gets every CPU we may use, no more
    outdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)

    setups, records, problems, crashed = [], [], [], 0
    deadline = time.monotonic() + RUN_DEADLINE
    for proc in range(SETUP_PROCS):
        if proc == 0:
            flags = {"seconds": args.seconds}
        elif proc == SETUP_PROCS - 1:
            flags = {"replay": outdir / "p0-op0"}
        else:
            flags = {}
        started, record = spawn(args, proc, outdir, threads, deadline, **flags)
        if "crashed" in record:
            problems.append(record["crashed"])
            crashed += 1       # counts as one attempted, failed op
            continue
        records.append(record)
        setups.append(record["ops"][0]["end"] - started)

    # output gate, outside every timed region
    ops = [op for rec in records for op in rec["ops"]]
    errs_by_op, failed = {}, crashed
    for op in ops:
        errs, found = gate(workload, outdir, op)
        errs_by_op[(op["proc"], op["j"])] = errs
        if op["replay"] and not found:
            found = replay_problems(workload, outdir)
        if found:
            failed += 1
            problems += [f"op p{op['proc']}-{op['j']}: {p}" for p in found]
    attempted = len(ops) + crashed

    warm = [op for op in ops if op["proc"] == 0 and op["j"] > 0]
    untraced = [op["seconds"] for op in warm if not op["traced"]]
    err = {}
    for key in ERR_OPS:
        for name, (value, tol, unit) in errs_by_op.get(key, {}).items():
            if name not in err or value > err[name]["value"]:
                err[name] = {"value": value, "unit": unit, "tol": tol}
    correct = not problems and bool(untraced)

    results = {
        "environment": environment(args.workload, args.seed, threads),
        "attempted": attempted, "failed": failed, "problems": problems,
        "failed_ops_frac": failed / attempted,
        "op_s": {"p50": statistics.median(untraced) if untraced else None,
                 "tail": tail(untraced), "all": untraced},
        "setup_s": {"median": statistics.median(setups) if setups else None,
                    "all": setups},
        # the peak of the workload processes: process 0, which runs the warm ops
        "peak_rss_mb": {"max": max((r["peak_rss_mb"] for r in records), default=None),
                        "all": [r["peak_rss_mb"] for r in records]},
        "err": err,
    }
    metrics, shares = {}, {}
    if correct and args.trace:
        metrics, shares = per_layer(records, outdir)
    elif correct:
        metrics = end_to_end(results)
    results["metrics"], results["layer_share"] = metrics, shares
    (OUT / f"{outdir.name}.json").write_text(json.dumps(results, indent=1))
    report(results)
    if correct:
        for p in outdir.glob("p*-op*"):
            shutil.rmtree(p)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


END_TO_END = {"op_s.p50": ("op_s", "p50", "s"),
              "setup_s": ("setup_s", "median", "s"),
              "peak_rss_mb": ("peak_rss_mb", "max", "MB")}


def end_to_end(results: dict) -> dict:
    return {name: {"value": results[key][stat], "unit": unit}
            for name, (key, stat, unit) in END_TO_END.items()}


def per_layer(records, outdir: Path) -> tuple:
    from tracer import layer_metrics
    trace = json.loads((outdir / "spans0.json").read_text())
    counts = {(op, name): value for op, name, value in trace["counts"]}
    ops = {op["j"]: op for op in records[0]["ops"]}
    pairs = [(op, ops[j + 1]) for j, op in ops.items() if op["traced"] and j + 1 in ops]
    metrics = layer_metrics(trace["spans"], counts, [t["j"] for t, _ in pairs])
    roots = defaultdict(float)
    for _, start, end, parent, op in trace["spans"]:
        if parent is None:
            roots[op] += end - start
    p50 = statistics.median(u["seconds"] for _, u in pairs)
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(t["seconds"] / u["seconds"] for t, u in pairs) - 1.0,
        "unit": "ratio"}
    metrics["trace.self_sum_frac"] = {
        "value": statistics.median(roots[t["j"]] for t, _ in pairs) / p50, "unit": "ratio"}
    shares = {name: m["value"] / p50 for name, m in metrics.items() if m["unit"] == "s"}
    return metrics, shares


def report(results: dict) -> None:
    env = results["environment"]
    print(f"# {env['workload']} seed {env['seed']}: python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS {env['blas']['name']} "
          f"{env['blas']['version']} x{env['blas']['threads']} threads, "
          f"nproc {env['nproc']}, {env['cpu_model']}")
    for p in results["problems"]:
        print(f"FAIL {p}")
    t = results["op_s"]["tail"]
    tail_txt = (f"{t['value']:.4f} s (p{t['percentile']:.1f} of {t['samples']} ops)"
                if t["value"] is not None else
                f"n/a ({t['samples']} warm ops; needs at least 11)")
    print(f"op_s.tail          {tail_txt}")
    print(f"failed_ops_frac    {results['failed_ops_frac']:.4f} ratio "
          f"({results['failed']}/{results['attempted']} ops)")
    for name, e in sorted(results["err"].items()):
        print(f"{name:<18} {e['value']:.4e} {e['unit']} (tol {e['tol']:g})")
    for name, m in results["metrics"].items():
        share = results["layer_share"].get(name)
        share = f"  ({100 * share:.1f}% of op_s.p50)" if share is not None else ""
        print(f"{name:<36} {m['value']:.6g} {m['unit']}{share}")


if __name__ == "__main__":
    sys.exit(main())
