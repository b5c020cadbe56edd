"""One benchmark workload in one fresh interpreter: a closed loop with one client.

Run by ``run.py``, never by hand.  Modes:

* ``setup``: import mvtrop, generate the first round of jobs, print the
  ``time.monotonic()`` stamp at which the first timed job could start, exit;
* ``run``: the same set-up, then jobs one after another for ``--seconds`` of
  timed wall time, each checked against the oracle outside the timed region;
* ``trace``: a span of jobs untraced (counting ``factor`` cache hits on their
  first run), the layer microbenchmarks, then the same jobs again with every
  layer's public functions wrapped (see ``tracing.py``).

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads

# Share of ``--seconds`` spent on the untraced pass in trace mode; the traced
# pass repeats the same jobs and takes longer by the tracing overhead.
TRACE_SHARE = 0.3

# The speed of a shared virtual CPU drifts by up to half within seconds (other
# tenants' load), far more than the changes the benchmark must resolve.  So
# every end-to-end time is divided by the interpreter's current speed: a fixed
# standard-library reference routine, which calls no mvtrop code, is timed
# between jobs after at most CALIBRATE_EVERY_S of timed work, and a job's
# seconds are scaled by REFERENCE_S / (mean reference time before and after
# it).  REFERENCE_S is about the routine's median time on the baseline machine
# (2-vCPU Xeon, Python 3.11.7), so figures there read close to raw seconds.
REFERENCE_S = 1e-3
CALIBRATE_EVERY_S = 0.1


@dataclass(frozen=True)
class _Pair:
    bit: int
    offset: Fraction


def _reference_routine():
    """Standard-library work of the kinds a job does: frozen dataclasses over
    Fractions compared as tuples, an argparse parser built and run, JSON."""
    acc, seen = _Pair(0, Fraction(0)), {}
    for i in range(1, 40):
        x = _Pair(i % 2, Fraction(i, i + 3))
        total = (acc.bit + x.bit, acc.offset + x.offset)
        acc = _Pair(*min(total, (1, Fraction(0))))
        seen[(i, x.offset)] = acc
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="verb")
    for verb in ("a", "b", "c"):
        p = sub.add_parser(verb, help=verb)
        p.add_argument("--x", type=int, default=0, help="x")
        p.add_argument("--y", action="store_true")
    parser.parse_args(["b", "--x", "3"])
    return len(json.dumps({str(k): [str(v.offset), v.bit] for k, v in seen.items()}))


def reference_time() -> float:
    """Median seconds of five runs of the reference routine, now."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _reference_routine()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _import_mvtrop(src: Path):
    sys.path.insert(0, str(src))
    import mvtrop
    import mvtrop.cli
    import mvtrop.export  # imported lazily by the CLI; loaded here so set-up pays for it
    if not Path(mvtrop.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: mvtrop was imported from {mvtrop.__file__}, not {src}")
    return mvtrop


def execute(m, job):
    """Send one job to mvtrop ``m``; returns (seconds, exit code or None, output).

    Only the call into mvtrop is timed.  Attributes are looked up at call time,
    so a traced run sees the wrappers ``tracing.Tracer`` installs."""
    verb, clock = job["verb"], time.perf_counter
    if verb == "lib:check_mv_axioms":
        t0 = clock()
        rep = m.algebra.check_mv_axioms(m.algebra.FiniteChain(job["algebra"][1]))
        dt = clock() - t0
        out = {"verdict": rep.verdict, "checked": rep.checked, "mode": rep.mode}
        if rep.witness is not None:
            out["witness"] = repr(rep.witness)
        return dt, None, out
    if verb == "lib:group_from_action":
        chi = m.characteristics.parse_group_label(workloads.group_text(job["group"]))
        probes = [Fraction(p) for p in job["probes"]]
        t0 = clock()
        G = m.qpoints.group_from_action(m.qpoints.frobenius_action(chi), probes)
        dt = clock() - t0
        return dt, None, {"group": m.jsonio.group_to_json(G)}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        code = m.cli.main(job["argv"])
        dt = clock() - t0
    return dt, code, out.getvalue()


def mismatch(expected, code, output, unchecked) -> str | None:
    """Why the job's outcome disagrees with the oracle, or None when it agrees."""
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    want = expected["output"]
    if isinstance(output, str):
        if isinstance(want, str):
            got = output.rstrip("\n")
        else:
            try:
                got = json.loads(output)
            except json.JSONDecodeError:
                return f"output is not JSON: {output[:80]!r}"
            got = {k: v for k, v in got.items() if k not in unchecked}
    else:
        got = output
    if got != want:
        return f"output {str(got)[:200]} expected {str(want)[:200]}"
    return None


class Loop:
    """The closed loop: oracle, call, check, repeat."""

    def __init__(self, mvtrop, oracle, stream, first_round):
        self.mvtrop, self.oracle, self.stream = mvtrop, oracle, stream
        self.pending = list(first_round)
        self.done = []

    def next_job(self):
        if not self.pending:
            self.pending = list(next(self.stream))
        return self.pending.pop(0)

    def run(self, jobs=None, seconds=None):
        """Run the given jobs, or new ones from the stream until ``seconds`` of
        timed wall time have passed.  Returns per-job raw seconds, per-job
        speed-normalized seconds and failures."""
        latencies, normalized, failures = [], [], []
        timed = 0.0
        source = iter(jobs) if jobs is not None else None
        reference_time()  # warm-up: the first runs in a process are slower
        ref_before, window = reference_time(), []
        while True:
            if source is not None:
                job = next(source, None)
            else:
                job = None if timed >= seconds else self.next_job()
            if job is None or sum(window) >= CALIBRATE_EVERY_S:
                ref_after = reference_time()
                scale = 2 * REFERENCE_S / (ref_before + ref_after)
                normalized += [x * scale for x in window]
                ref_before, window = ref_after, []
            if job is None:
                break
            expected = self.oracle.expect(job)
            try:
                dt, code, output = execute(self.mvtrop, job)
                why = mismatch(expected, code, output, self.oracle.UNCHECKED)
            except Exception as exc:  # a job that raises counts as failed; keep looping
                dt, why = 0.0, f"raised {type(exc).__name__}: {exc}"
            latencies.append(dt)
            window.append(dt)
            timed += dt
            self.done.append(job)
            if why is not None:
                failures.append({"argv": job.get("argv", job["verb"]), "why": why})
        return latencies, normalized, failures


def environment() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "threads": threading.active_count(),
            "hashseed": os.environ.get("PYTHONHASHSEED"),
            "default_bound_env": os.environ.get("MVTROP_DEFAULT_BOUND")}


def latency_summary(latencies, normalized, failures) -> dict:
    ms = [x * 1000 for x in normalized]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0]
    return {"attempted": len(ms), "failed": len(failures), "failures": failures[:5],
            "timed_s": sum(latencies), "raw_jobs_per_s": len(ms) / sum(latencies),
            "raw_p50_ms": statistics.median(latencies) * 1000,
            "jobs_per_s": len(ms) / sum(normalized),
            "verdict_p50_ms": statistics.median(ms), "verdict_p90_ms": p90,
            "beyond_p90": sum(1 for x in ms if x > p90)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args(argv)

    mvtrop = _import_mvtrop(args.src)
    stream = workloads.rounds(args.workload, args.seed)
    first_round = next(stream)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    import oracle
    loop = Loop(mvtrop, oracle, stream, first_round)
    result = {"ready": ready, "env": environment()}
    if args.mode == "run":
        latencies, normalized, failures = loop.run(seconds=args.seconds)
        result.update(latency_summary(latencies, normalized, failures))
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        import micro
        import tracing
        factor = mvtrop.characteristics.factor  # an unbounded lru_cache
        before = factor.cache_info()
        latencies, untraced_norm, failures = loop.run(seconds=args.seconds * TRACE_SHARE)
        after = factor.cache_info()
        jobs = list(loop.done)
        result["micro"] = micro.run_all(mvtrop)
        tracer = tracing.Tracer(mvtrop)
        with tracer:
            traced, traced_norm, traced_failures = loop.run(jobs=jobs)
        # Speed-normalized, like the end-to-end times, so that a slower moment
        # of the machine is not counted as tracing overhead.
        result["trace"] = tracer.summary(len(jobs), sum(untraced_norm), sum(traced_norm))
        hits, misses = after.hits - before.hits, after.misses - before.misses
        result["factor"] = {"calls": hits + misses, "hits": hits, "cache_size": after.currsize}
        result["attempted"] = len(latencies) + len(traced)
        result["failed"] = len(failures) + len(traced_failures)
        result["failures"] = (failures + traced_failures)[:5]
        result["peak_rss_mb"] = peak_rss_mb()
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
