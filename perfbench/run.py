#!/usr/bin/env python3
"""Benchmark of the ``netcode_unicast`` command line.

Run one workload::

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

or, without ``--workload``, every workload in turn, each in a process of its
own.  A workload runs in a fresh single-threaded interpreter with
``PYTHONHASHSEED=0``; one caller calls ``netcode_unicast.cli.main`` in a
closed loop, in whole rounds of the workload's fixed operation list, until
``--seconds`` of wall time have passed and at least three rounds are done.
Every output is checked by ``checker``, which shares no code with the
program.

Times are CPU seconds of this process and its reaped children.  The program
is single-threaded and does no waiting, so on an unshared machine that equals
wall time; on a shared virtual machine it leaves out the time the hypervisor
takes the CPU away, which the guest kernel does not charge to the process.

With ``--trace 0`` the run reports the end-to-end metrics named in
``BENCHMARK.json``: ``ops_per_s`` is operations over the CPU time spent in
them, and ``op_p50_ms`` the median, over the list's operations, of each one's
mean time over its repeats.  The machine's speed switches between modes some
35% apart every few seconds; a median of single samples jumps between the
modes, while a mean moves only with the share of time spent in each.  With
``--trace 1`` it runs untraced rounds for half of ``--seconds``, then as
many rounds again with spans around every layer, and reports the per-layer
metrics as totals per round; the spans go to ``perfbench/out/``.  The last
line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import workloads
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "netcode_unicast"
SETUP_REPEATS = 9
MIN_ROUNDS = 3


def declared_metrics(kind: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` metrics that BENCHMARK.json names."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


# -- set-up ----------------------------------------------------------------------


def _load_program():
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE), importlib.import_module(PACKAGE + ".cli")


def _write_instances(ops, folder: Path) -> list[Path]:
    files: dict[workloads.Spec, Path] = {}
    for op in ops:
        if op.spec not in files:
            files[op.spec] = folder / f"instance{len(files)}.txt"
            files[op.spec].write_text(op.spec.text(), encoding="utf-8")
    return [files[op.spec] for op in ops]


def cpu_seconds() -> float:
    """CPU time used so far by this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def setup(workload: str, seed: int, run_dir: Path):
    """Import the program, build the inputs and write the instance files,
    ``SETUP_REPEATS`` times over.  Keeps the last set; returns its program
    modules, operations and files, and the median set-up time."""
    durations = []
    for k in range(SETUP_REPEATS):
        folder = run_dir / f"setup{k}"
        start = cpu_seconds()
        pkg, cli = _load_program()
        ops = workloads.BUILDERS[workload](seed, pkg)
        folder.mkdir()
        files = _write_instances(ops, folder)
        durations.append(cpu_seconds() - start)
        if k:
            shutil.rmtree(run_dir / f"setup{k - 1}")
    return cli, ops, files, statistics.median(durations)


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.name} {op.command} {' '.join(op.args)}\n".encode())
        h.update(op.spec.text().encode())
    return h.hexdigest()


# -- operations --------------------------------------------------------------------


def argv_of(op, instance: Path) -> list[str]:
    argv = [op.command, str(instance), *op.args]
    if op.expect in ("code", "found"):
        argv += ["-o", str(instance.with_suffix(f".{op.name}.code"))]
    return argv


def judge(op, status: int, out: str, argv: list[str]) -> str | None:
    if op.expect == "analyze":
        return checker.check_analyze(op.spec, status, out)
    if op.expect == "exhausted":
        return checker.check_exhausted(op.spec, status, out, op.q, op.T, op.cut_implied)
    path = Path(argv[-1])
    text = path.read_text(encoding="utf-8") if path.exists() else None
    if op.expect == "code":
        return checker.check_code(op.spec, status, out, text, argv[-1], op.q, op.T)
    return checker.check_found(op.spec, status, out, text, argv[-1], op.q, op.T, op.routing)


class Tally:
    def __init__(self, ops) -> None:
        self.times: list[float] = []
        self.by_op: list[list[float]] = [[] for _ in ops]
        self.failed = 0
        self.wrong: dict[str, str] = {}
        self.known: dict[str, str] = {}


def run_rounds(cli, ops, files, tally: Tally, *, seconds: float = 0.0, rounds: int | None = None,
               tracer: Tracer | None = None) -> int:
    """Whole rounds of ``ops``: ``rounds`` of them, or else as many as start
    within ``seconds`` of wall time, at least ``MIN_ROUNDS``.  Only the call
    into the program is timed.  Returns the number of rounds run."""
    argvs = [argv_of(op, f) for op, f in zip(ops, files)]
    done, start = 0, time.perf_counter()

    def another_round() -> bool:
        if rounds is not None:
            return done < rounds
        return done < MIN_ROUNDS or time.perf_counter() - start < seconds

    while another_round():
        done += 1
        for k, (op, argv) in enumerate(zip(ops, argvs)):
            if op.expect in ("code", "found"):
                Path(argv[-1]).unlink(missing_ok=True)
            if tracer is not None:
                tracer.request = len(tally.times)
            out = io.StringIO()
            began = cpu_seconds()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                status = exc
            tally.times.append(cpu_seconds() - began)
            tally.by_op[k].append(tally.times[-1])
            if isinstance(status, Exception):
                reason = f"the program raised {status!r}"
            else:
                reason = judge(op, status, out.getvalue(), argv)
            if reason is not None:
                tally.failed += 1
                (tally.known if op.planted else tally.wrong).setdefault(op.name, reason)
    return done


# -- metrics -----------------------------------------------------------------------


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(tally.times) / sum(tally.times),
        "op_p50_ms": statistics.median(statistics.fmean(t) for t in tally.by_op) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, rounds: int, overhead_s: float) -> dict[str, float]:
    """Per-round totals of every traced name and layer, plus the search's
    block rate and the tracing overhead."""
    calls, self_s = tracer.totals()
    totals = {"oracle.search.blocks": tracer.blocks}
    for name in tracer.names:
        totals[f"{name}.calls"] = calls[name]
        totals[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in LAYERS:
        totals[f"{layer}.calls"] = sum(n for k, n in calls.items() if k.startswith(layer + "."))
        totals[f"{layer}.self_s"] = sum(t for k, t in self_s.items() if k.startswith(layer + "."))
    values = {name: total / rounds for name, total in totals.items()}
    search_s = self_s.get("oracle.search", 0.0)
    values["oracle.search.blocks_per_s"] = tracer.blocks / search_s if search_s else 0.0
    values["trace.overhead_s"] = overhead_s
    return values


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        cli, ops, files, setup_s = setup(args.workload, args.seed, run_dir)
        print(f"inputs: workload {args.workload} seed {args.seed}, {len(ops)} operations"
              f" per round, sha256 {digest(ops)}")
        untraced = Tally(ops)
        seconds = args.seconds / 2 if args.trace else args.seconds
        rounds = run_rounds(cli, ops, files, untraced, seconds=seconds)
        tallies = [untraced]
        if args.trace:
            tracer = Tracer()
            tracer.install(PACKAGE)
            traced = Tally(ops)
            tallies.append(traced)
            run_rounds(cli, ops, files, traced, rounds=rounds, tracer=tracer)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.tsv"
            tracer.write(trace_file)
            print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
            overhead_s = (sum(traced.times) - sum(untraced.times)) / rounds
            values = per_layer(tracer, rounds, overhead_s)
        else:
            values = end_to_end(untraced, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(len(t.times) for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(f"rounds: {rounds}, operations attempted {attempted}, failed {failed}")
    known, wrong = {}, {}
    for tally in tallies:
        known |= tally.known
        wrong |= tally.wrong
    for name, reason in known.items():
        print(f"known fault: {name}: {reason}")
    for name, reason in wrong.items():
        print(f"WRONG OUTPUT: {name}: {reason}")
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"metric {metric['name']} = {value:.6g} {metric['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report."""
    ok = True
    for workload in workloads.WORKLOADS:
        print(f"== {workload}", flush=True)
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=dict(os.environ, PYTHONHASHSEED="0"),
            capture_output=True,
            text=True,
        )
        sys.stdout.write("".join(
            line for line in child.stdout.splitlines(keepends=True) if not line.startswith("{")
        ))
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        ok = ok and child.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: the program's sources are not at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # a fresh interpreter, since the hash seed is fixed at start-up
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
