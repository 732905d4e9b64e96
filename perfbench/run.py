#!/usr/bin/env python3
"""The permrat benchmark: run one workload and print its metrics.

Usage, from the root of a permrat checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command of the workload runs as its own `python3 -m permrat.cli`
process with `--jobs 1` and the default kernel backend, as a user runs it.
The harness times each process, reads its rusage, and checks its output
(see checks.py).  Passes over the workload repeat while the next one is
expected to end within S seconds (at least one pass), and each end-to-end
metric is the median over the passes; one set-up command runs before each
command, and setup_s is the median of those.  With --trace 1 a
further pass runs every command under tracer.py and the per-layer metrics
are printed instead; the spans go to .perfbench_out/trace-NAME.jsonl.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment.  Exit code
0 means the metrics were measured (a failed check shows as correct=false),
2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_ARGV = ["reps", "--p", "2", "--n", "1"]
DEADLINE_S = 170  # a run must end within 180 s


@dataclass
class Proc:
    """One finished permrat process."""

    argv: list[str]
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    problems: list[str] = field(default_factory=list)
    progress_bytes: int = 0
    spans: list | None = None


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PERMRAT_BACKEND", "PERMRAT_JOBS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str], work: Path, spans_out: Path | None = None) -> Proc:
    """Run one permrat command to completion; stdout is captured in a file."""
    if spans_out is None:
        exe = [sys.executable, "-m", "permrat.cli", *argv]
    else:
        exe = [sys.executable, str(HERE / "tracer.py"), str(spans_out), "--", *argv]
    out_path = work / "stdout"
    with open(out_path, "wb") as out, open(work / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(exe, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    spans = None
    if spans_out is not None and spans_out.exists():
        spans = json.loads(spans_out.read_text(encoding="utf-8"))
        spans_out.unlink()
    return Proc(argv, proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
                out_path.read_bytes(), (work / "stderr").read_bytes(), spans=spans)


def run_pass(commands, work: Path, traced: bool = False, setup: list | None = None) -> list[Proc]:
    """One pass over the workload's commands, each output checked.  With a
    `setup` list, one set-up command runs (and is appended) before each
    command, so set-up samples spread over the whole measurement."""
    import checks
    import workloads

    procs = []
    for i, cmd in enumerate(commands):
        if setup is not None:
            proc = run_cli(SETUP_ARGV, work)
            proc.problems = checks.check(workloads.Command(SETUP_ARGV), proc.code, proc.stdout)
            setup.append(proc)
        argv = [*cmd.argv, "--jobs", "1"]
        progress = work / f"progress-{i}.jsonl"
        if cmd.progress:
            progress.unlink(missing_ok=True)
            argv += ["--progress-file", str(progress)]
        proc = run_cli(argv, work, work / f"spans-{i}.json" if traced else None)
        proc.problems = checks.check(cmd, proc.code, proc.stdout)
        if cmd.progress and progress.exists():
            proc.progress_bytes = progress.stat().st_size
        procs.append(proc)
    return procs


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "permrat").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment() -> dict:
    """What a result depends on besides the code: interpreter, numpy,
    kernel build, cores, and the commit (or a digest of src/)."""
    from permrat import backend
    import checks

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "kernel_importable": backend.have_compiled(),
        "backend_default": "compiled" if backend.have_compiled() else "pure",
        "backend_agreement": checks.backend_agreement(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def _timeout(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """Run the workload; return (result, environment)."""
    import checks
    import layers
    import workloads

    env = environment()
    commands = workloads.build(workload, seed, smoke)
    for cmd in commands:
        if cmd.argv[0] == "count":
            cmd.expect["census"] = checks.census_collision_curve(*cmd.expect["field"],
                                                                 cmd.expect["b_index"])

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup, passes = [], []
        t0 = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(commands, work, setup=setup))
            now = time.perf_counter()
            if now + (now - t_pass) - t0 > seconds:
                break
        traced = run_pass(commands, work, traced=True) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    procs = setup + [p for ps in passes for p in ps] + (traced or [])
    failed = [p for p in procs if p.problems]
    setup_s = statistics.median(p.wall for p in setup)
    wall_s = statistics.median(sum(p.wall for p in ps) for ps in passes)
    if trace:
        metrics = layers.layer_metrics(
            [{"spans": p.spans or [], "backend": _reported_backend(p),
              "report_bytes": len(p.stdout), "progress_bytes": p.progress_bytes}
             for p in traced],
            traced_wall=sum(p.wall for p in traced), untraced_wall=wall_s, setup_s=setup_s)
        units = layers.metric_units()
        env["backend_ran"] = sorted({s["meta"]["backend"] for p in traced for s in p.spans or []
                                     if s["name"].startswith("kernel.")})
        _write_trace(OUT / f"trace-{workload}.jsonl", workload, seed, env, traced)
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(sum(p.cpu for p in ps) for ps in passes),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(max(p.rss_mb for p in ps) for ps in passes),
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    correct = not failed and env["backend_agreement"] is not False
    result = {
        "correct": correct,
        "attempted": len(procs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for p in failed:
        print(f"FAILED {' '.join(p.argv)}: {'; '.join(p.problems[:5])}", file=sys.stderr)
        sys.stderr.write(p.stderr[-2000:].decode(errors="replace"))
    return result, env


def _reported_backend(proc: Proc):
    try:
        return json.loads(proc.stdout)["backend"]
    except (ValueError, KeyError, TypeError):
        return None


def _write_trace(path: Path, workload: str, seed: int, env: dict, procs: list[Proc]) -> None:
    """JSON lines: a header, then one line per span tagged with its command."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "env": env,
                            "commands": [{"cmd": i, "argv": p.argv, "wall": p.wall}
                                         for i, p in enumerate(procs)]}) + "\n")
        for i, p in enumerate(procs):
            for span in p.spans or []:
                f.write(json.dumps({"cmd": i, **span}, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration of the workload, for the self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "permrat" / "cli.py").is_file():
        print(f"error: no permrat sources under {SRC}; run from a permrat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from "
                     f"{', '.join(workloads.WORKLOADS)})")
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    try:
        result, env = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.smoke)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
