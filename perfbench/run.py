"""qsumm benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload {train,eval-sweep,paper-summarize} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; qsumm is imported from the
checkout's `src/`.  Set-up runs several times, each in a child process
that reports how long building the inputs took, so that the parent's
peak RSS covers only the measured calls.  The parent then runs rounds
of operations, one call at a time, until S seconds have passed, and
checks the outputs.

With --trace 0 the result holds the end-to-end metrics, the same on every
workload: op_ms (milliseconds per operation), setup_s and peak_rss_mb.
The human-readable lines above it also give the workload's headline
figure (train_steps_per_s, eval_sweep_s or paper_summarize_s), which is
derived from op_ms.  With --trace 1
the first half of the time runs untraced and the second half traced;
the result holds the per-layer metrics of the traced half plus the
tracing overhead per operation, and the spans go to
`.perfbench/trace-<workload>-seed<N>.jsonl` at the checkout root.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train", "eval-sweep", "paper-summarize")
CHILD_TIMEOUT_S = 150


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _cap_blas_threads() -> int:
    """Keep BLAS and OpenMP pools at or below the cores this process may use.

    Must run before numpy is imported; children inherit the setting.
    """
    cores = len(os.sched_getaffinity(0))
    threads = cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            threads = min(threads, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _machine(threads: int) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"nproc={os.cpu_count()} cores_usable={len(os.sched_getaffinity(0))} "
            f"python={sys.version.split()[0]} numpy={np.__version__} "
            f"blas={blas.get('name', '?')}-{blas.get('version', '?')} blas_threads={threads}")


def _setup_in_child(args, work) -> float:
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-into", work]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up of {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _rounds(workload, state, seconds, min_rounds, tracer=None):
    """Closed loop: run rounds until `seconds` have passed and at least
    `min_rounds` are done.  Returns [(attempted, failed, seconds)]."""
    out = []
    start = time.perf_counter()
    while len(out) < min_rounds or time.perf_counter() - start < seconds:
        if tracer is None:
            out.append(workload.round(state))
        else:
            with tracer.span("bench.round"):
                out.append(workload.round(state))
    return out


def _ms_per_op(rounds) -> float:
    return statistics.median(1e3 * sec / ops for ops, _, sec in rounds)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "qsumm", "__init__.py")):
        print(f"perfbench: no qsumm package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    threads = _cap_blas_threads()
    sys.path.insert(0, SRC)

    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_into:
        t0 = time.perf_counter()
        workload.setup(args.setup_into, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    print(f"machine: {_machine(threads)}")
    work = os.path.join(ROOT, ".perfbench", f"work-{args.workload}-{os.getpid()}")
    try:
        setup_s = statistics.median(
            _setup_in_child(args, work) for _ in range(workload.setup_repeats))
        state = workload.start(work, args.seed)
        if args.trace:
            half = args.seconds / 2
            min_half = max(1, workload.min_rounds // 2)
            plain = _rounds(workload, state, half, min_half)
            tracer = Tracer()
            with tracer.installed():
                traced = _rounds(workload, state, half, min_half, tracer)
            rounds = plain + traced
            metrics = tracer.layer_metrics(sum(ops for ops, _, _ in traced))
            metrics["trace.overhead_ms"] = {
                "value": _ms_per_op(traced) - _ms_per_op(plain), "unit": "ms/op"}
            tracer.write(os.path.join(ROOT, ".perfbench",
                                      f"trace-{args.workload}-seed{args.seed}.jsonl"))
        else:
            rounds = _rounds(workload, state, args.seconds, workload.min_rounds)
            metrics = {
                "op_ms": {"value": workload.op_ms(state, rounds), "unit": "ms"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB"},
            }
        errors = workload.check(state)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(ops for ops, _, _ in rounds)
    failed = sum(f for _, f, _ in rounds)
    for msg in errors:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed} checks={'ok' if not errors else 'FAILED'}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if "op_ms" in metrics:
        name, unit, from_op_ms = workload.headline
        print(f"  {name:32s} {from_op_ms(metrics['op_ms']['value']):.6g} {unit} (from op_ms)")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
