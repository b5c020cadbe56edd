"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from mvtrop.cli import main  # noqa: E402


def _checkout(dest: Path) -> Path:
    """A copy of what the benchmark needs: its own files and the sources."""
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _bench(cwd: Path, workload: str, *extra: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_job_list(workload):
    first = json.dumps(workloads.jobs(workload, 11, 300))
    assert json.dumps(workloads.jobs(workload, 11, 300)) == first
    assert json.dumps(workloads.jobs(workload, 12, 300)) != first


def _readme_examples():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```console\n(.*?)```", text, re.S):
        for chunk in re.split(r"^\$ mvtrop ", block, flags=re.M)[1:]:
            command, *lines = [line for line in chunk.splitlines() if line]
            marker = re.fullmatch(r"\[exit (\d+)\]", lines[-1])
            code = int(marker.group(1)) if marker else 0
            examples.append((shlex.split(command), "\n".join(lines[:-1] if marker else lines), code))
    return examples


def test_readme_commands_give_byte_identical_stdout():
    examples = _readme_examples()
    jobs = workloads.readme_jobs()
    assert [job["argv"] for job in jobs] == [argv for argv, _, _ in examples]
    first_round = next(workloads.rounds("cli-oneshot", 0))
    assert all(job in first_round for job in jobs)
    for argv, golden, code in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == code
        assert out.getvalue() == golden + "\n"


# Appended to the copied mvtrop/__init__.py: the CLI entry point the benchmark
# calls then misreports, while the kernel underneath is untouched.
_CORRUPT = '''
import contextlib as _contextlib, io as _io, sys as _sys
from . import cli as _cli
_real_main = _cli.main
def _corrupt_main(argv=None):
    buf = _io.StringIO()
    with _contextlib.redirect_stdout(buf):
        code = _real_main(argv)
    text = buf.getvalue()
    {mutation}
    _sys.stdout.write(text)
    return code
_cli.main = _corrupt_main
'''
MUTATIONS = {
    "verdict": "code = 0 if code == 1 else code",
    "witness": "text = text.replace('\"witness\":{', '\"witness\":{\"bogus\":\"0\",', 1)",
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_corrupted_outcome_fails_the_run(tmp_path, mutation):
    checkout = _checkout(tmp_path)
    with open(checkout / "src/mvtrop/__init__.py", "a", encoding="utf-8") as fh:
        fh.write(_CORRUPT.format(mutation=MUTATIONS[mutation]))
    code, stdout = _bench(checkout, "finite-exhaustive")
    assert code != 0
    result = json.loads(stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    frac = float(re.search(r"^failed_frac\s+(\S+)", stdout, re.M).group(1))
    assert frac > 0


def test_uncorrupted_copy_passes(tmp_path):
    code, stdout = _bench(_checkout(tmp_path), "finite-exhaustive")
    assert code == 0
    result = json.loads(stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "jobs_per_s", "verdict_p50_ms",
                                      "verdict_p90_ms", "peak_rss_mb"}


def test_without_sources_the_benchmark_refuses(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = _bench(tmp_path, "cli-oneshot")
    assert code != 0 and stdout == ""


@pytest.mark.parametrize("workload,group_layers_run", [("finite-exhaustive", False),
                                                       ("infinite-fragments", True)])
def test_trace_sees_group_layers_only_where_used(tmp_path, workload, group_layers_run):
    checkout = _checkout(tmp_path)
    code, stdout = _bench(checkout, workload, "--trace", "1")
    assert code == 0
    trace = json.loads((checkout / f".perfbench/trace-{workload}-seed3.json").read_text())
    calls = {layer: row[1] for layer, row in trace["layers"].items()}
    assert len(calls) == 11 and calls["algebra"] > 0 and calls["cli"] > 0
    for layer in ("groups", "characteristics", "qpoints"):
        assert (calls[layer] > 0) == group_layers_run, layer
    assert any(span["name"] == "cli.main" for span in trace["spans"])
