"""One benchmark worker: a fresh interpreter that runs ops through halfwave's CLI.

Started by ``run.py``, one process at a time:

    python3 benchmarks/worker.py --workload NAME --seed N --proc P --out DIR
        [--seconds S] [--trace 0|1] [--replay OPDIR]

The first op is cold: it pays for imports and lazy BLAS/LAPACK loading, and
its end time (system-wide monotonic clock) lets the parent measure set-up
from the moment it started this process.  With ``--seconds`` the worker then
runs warm ops, a closed loop with one client, until the time is spent: at
least ``MIN_WARM`` of them, and always whole cycles of the workload's
configs, so every run times the same mix of boundary conditions.  With
``--trace 1`` warm ops come in pairs on one config, the first traced and
the second not, so the pair measures the tracing overhead.  ``--replay OPDIR`` makes the
cold op feed OPDIR's sidecar back through ``--config`` instead of drawing a
config.  Results go to ``DIR/proc<P>.json``, spans to ``DIR/spans<P>.json``.
Output checks happen in the parent, after this process has exited.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import halfwave
from halfwave import cli

from tracer import Tracer
from workloads import WORKLOADS

MIN_WARM = 2    # warm ops a run with --seconds makes at least


def _output_bytes(opdir: Path) -> dict:
    return {p.name: p.stat().st_size for p in sorted(opdir.iterdir())
            if p.name not in ("config.json", "stdout.txt")}


def _csv_rows(path: Path) -> int:
    rows = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            rows += chunk.count(b"\n")
    return rows


def run_op(workload, argv_config: Path, opdir: Path) -> dict:
    """Run one op; returns its wall time, exit codes and warning counts."""
    codes, error = [], None
    with open(opdir / "stdout.txt", "w") as log, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(log):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            for command in workload.commands:
                codes.append(cli.main(["--config", str(argv_config),
                                       "--out", str(opdir), command]))
        except Exception as exc:   # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    counts = {}
    for w in caught:
        counts[w.category.__name__] = counts.get(w.category.__name__, 0) + 1
    return {"seconds": seconds, "end": time.monotonic(), "codes": codes,
            "error": error, "warnings": counts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--proc", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--replay", default=None)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    tracer = Tracer()
    if args.trace:
        tracer.install(halfwave)
    ops = []
    warm_start = None
    # a step is one cycle of configs, of single ops or of (traced, untraced) pairs
    step = (2 if args.trace else 1) * workload.cycle
    j = 0
    while True:
        # stop once the middle of the next step would pass the time budget
        if j > 0 and (j - 1) % step == 0:
            if args.seconds <= 0:
                break
            warm = [op["seconds"] for op in ops[1:]]
            spent = time.perf_counter() - warm_start
            if len(warm) >= MIN_WARM and (
                    spent + 0.5 * step * statistics.median(warm) >= args.seconds):
                break
        opdir = out / f"p{args.proc}-op{j}"
        # traced runs pair each traced op with an untraced one on its config
        draw = (j + 1) // 2 if args.trace else j
        opdir.mkdir(parents=True)
        if j == 0 and args.replay:
            config_path = Path(args.replay) / workload.sidecar
            config = json.loads(config_path.read_text())["config"]
        else:
            config = workload.config(args.seed, args.proc, draw)
            config_path = opdir / "config.json"
            config_path.write_text(json.dumps(config, sort_keys=True))
        traced = bool(args.trace) and j % 2 == 1
        tracer.active, tracer.op = traced, j
        record = run_op(workload, config_path, opdir)
        tracer.active = False
        # bookkeeping below is outside the timed region
        record.update(proc=args.proc, j=j, traced=traced, config=config,
                      replay=bool(j == 0 and args.replay),
                      files=_output_bytes(opdir),
                      csv_rows={p.name: _csv_rows(p) for p in opdir.glob("*.csv")})
        for p in opdir.glob("*.csv"):
            if p.name not in workload.primary:
                p.unlink()       # large, and checked by row count only
        if traced:
            tracer.counts[(j, "cli.bytes_written")] = sum(record["files"].values())
            tracer.counts[(j, "warnings.TruncationWarning.count")] = \
                record["warnings"].get("TruncationWarning", 0)
        ops.append(record)
        if j == 0:
            warm_start = time.perf_counter()
        j += 1

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (out / f"spans{args.proc}.json").write_text(json.dumps(
        {"spans": tracer.spans,
         "counts": [[op, name, value] for (op, name), value in tracer.counts.items()]}))
    (out / f"proc{args.proc}.json").write_text(json.dumps(
        {"ops": ops, "peak_rss_mb": peak_kb / 1024.0}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
