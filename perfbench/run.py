"""mvtrop benchmark: one workload, measured from outside the program.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload finite-exhaustive --seed 1 --seconds 15 --trace 0

Without ``--workload`` the three workloads run one after another, and the
final JSON line names each metric ``<workload>:<metric>``.

Each workload is a closed loop with one client in one fresh interpreter (see
``worker.py``).  Every job's exit code and output are checked against the
independent oracle in ``oracle.py``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Every metric is printed on its own
line with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every job agreed with the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_S, reference_time
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

# Fresh interpreters timed from spawn to the first job, half of them before
# and half after the measured run.  The reported set-up time is their median,
# so one slow start (disk cache, bytecode compilation) does not move it.  Like
# job times, each is scaled by the interpreter's speed at that moment (see
# ``worker.REFERENCE_S``), timed here in the warm parent around the spawn.
SETUP_PROBES = 20

# Every worker of a workload must have ended this long after the workload
# started, so that a run ends within three minutes even when a worker hangs.
DEADLINE_S = 170

# Per-layer metrics printed as the result of a traced run.  The full table of
# all 11 layers, including those that are legitimately zero on a workload, is
# printed above the result and written to the trace file.
PER_LAYER_TRACE = ("logic.checked_per_s", "cli.dispatch_overhead_ms", "trace.overhead_s",
                   "algebra.self_s", "logic.self_s", "terms.self_s", "jsonio.self_s",
                   "cli.self_s", "algebra.calls", "logic.calls", "jsonio.calls", "cli.calls")


def hermetic_env(src: Path) -> dict:
    """The caller's environment without MVTROP_* and PYTHON* settings, with a
    pinned hash seed and only the checkout's sources on the import path.
    MVTROP_DEFAULT_BOUND in particular would change every bounded job."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MVTROP_", "PYTHON"))}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(src))
    return env


def spawn(mode: str, args, src: Path, env: dict, extra=()) -> tuple[float, dict]:
    """Run one worker to completion; returns (seconds from spawn to ready, result)."""
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--src", str(src), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, args.deadline - start), check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker ({mode}) still running after {DEADLINE_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker ({mode}) exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - start, result


def setup_probe(args, src, env) -> float:
    before = reference_time()
    seconds, _ = spawn("setup", args, src, env)
    return seconds * 2 * REFERENCE_S / (before + reference_time())


def metric(name, value, unit, note=""):
    print(f"{name:<42} {value:>14.6g} {unit}{'  ' + note if note else ''}")
    return name, {"value": value, "unit": unit}


def end_to_end(args, src, env) -> tuple[dict, dict]:
    reference_time()  # warm-up
    setups = [setup_probe(args, src, env) for _ in range(SETUP_PROBES // 2)]
    _, r = spawn("run", args, src, env)
    setups += [setup_probe(args, src, env) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    n = r["attempted"]
    metrics = dict([
        metric("setup_s", statistics.median(setups), "s",
               f"median of {len(setups)} fresh interpreters"),
        metric("jobs_per_s", r["jobs_per_s"], "1/s",
               f"{n} jobs; raw {r['raw_jobs_per_s']:.4g}/s over {r['timed_s']:.3f} s"),
        metric("verdict_p50_ms", r["verdict_p50_ms"], "ms", f"n={n}; raw {r['raw_p50_ms']:.4g} ms"),
        metric("verdict_p90_ms", r["verdict_p90_ms"], "ms",
               f"n={n}, {r['beyond_p90']} samples beyond"),
        metric("peak_rss_mb", r["peak_rss_mb"], "MB", "ru_maxrss of the worker"),
    ])
    print(f"{'failed_frac':<42} {r['failed'] / n:>14.6g} ratio  {r['failed']}/{n} jobs")
    if r["beyond_p90"] < 10:
        print("warning: fewer than 10 samples beyond verdict_p90_ms; raise --seconds")
    return metrics, r


def traced(args, src, env) -> tuple[dict, dict]:
    out = Path.cwd() / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    _, r = spawn("trace", args, src, env, ["--trace-out", str(out)])
    t = r["trace"]
    print(f"# layer table (traced pass of {t['jobs']} jobs; spans in {out.name})")
    for layer, row in t["layers"].items():
        print(f"#   {layer:<16} self_s {row['self_s']:>10.6f}  calls {row['calls']:>10}")
    fc = r["factor"]
    ratio = f"{fc['hits'] / fc['calls']:.4f}" if fc["calls"] else "undefined"
    print(f"# untraced pass: characteristics.factor_calls {fc['calls']}, factor_hit_ratio "
          f"{ratio} ({fc['hits']}/{fc['calls']}), factor cache size {fc['cache_size']}, "
          f"peak_rss_mb {r['peak_rss_mb']:.1f}")
    print(f"# tracing overhead {t['traced_s'] - t['untraced_s']:.3f} s: traced "
          f"{t['traced_s']:.3f} s vs untraced {t['untraced_s']:.3f} s for the same jobs")
    values = {**r["micro"], **t["metrics"]}
    metrics = dict(metric(name, value, unit) for name, (value, unit) in values.items()
                   if name in PER_LAYER_TRACE or name in r["micro"])
    return metrics, r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "mvtrop" / "__init__.py").is_file():
        print(f"perfbench: no mvtrop sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = hermetic_env(src)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        if len(names) > 1:
            print(f"== {name}")
        args.workload, args.deadline = name, time.monotonic() + DEADLINE_S
        values, r = (traced if args.trace else end_to_end)(args, src, env)
        e = r["env"]
        print(f"# python {e['python']}, nproc {e['nproc']}, cpu {e['cpu']}, "
              f"threads {e['threads']}, PYTHONHASHSEED={e['hashseed']}, "
              f"MVTROP_DEFAULT_BOUND={e['default_bound_env']}")
        for f in r["failures"]:
            print(f"# FAILED {f['argv']}: {f['why']}")
        attempted, failed = attempted + r["attempted"], failed + r["failed"]
        metrics.update(values if len(names) == 1 else
                       {f"{name}:{k}": v for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
