"""End-to-end benchmark of the pairrank CLI.

Usage (from the repository root):

    python3 bench/run.py --workload dense-tables --seed 1 --seconds 36 --trace 0

The benchmark builds its inputs from --seed with numpy (workloads.py), then
drives ``python -m pairrank`` as a subprocess over the workload's call list,
closed loop with one client and one call at a time, repeating the list for
--seconds. Every call's exit code and output are checked against an
independent numpy reference (reference.py). The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics (medians over passes):

    setup_s      median wall of a fresh interpreter running
                 ``import pairrank.cli`` (every CLI call pays it)
    wall_s       wall time of the whole call list, one call at a time
    peak_rss_mb  highest child ru_maxrss over the calls, from os.wait4

--trace 1 runs the list once as subprocesses (for the per-subcommand wall
sums and child CPU time), then replays it in one interpreter through
``pairrank.cli.main``, each call untraced and then with spans around every
public function of each layer (traced.py, spans.py). It reports the per-layer
metrics; README.md maps each to the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
SETUP_STARTS = 4  # per pass
CALL_TIMEOUT_S = 150.0
SUBCOMMANDS = ("rank", "check-qs", "asymptotics", "simulate")
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")


def unit(name: str) -> str:
    for suffix, label in (("_mb_per_s", "MB/s"), ("_s", "s"),
                          ("bytes", "bytes"), ("_mb", "MB"),
                          ("_frac", "fraction")):
        if name.endswith(suffix):
            return label
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_walls(env: dict[str, str], starts: int) -> list[float]:
    """Walls of fresh interpreters that each run ``import pairrank.cli``."""
    walls = []
    for _ in range(starts):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pairrank.cli"],
                       env=env, check=True)
        walls.append(time.perf_counter() - start)
    return walls


def run_call(call: workloads.Call, env: dict[str, str], work: Path) -> dict:
    """One CLI subprocess: wall, child CPU and peak RSS from os.wait4, and
    the outcome of the reference check."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "pairrank", *call.argv],
            stdout=out, stderr=err, env=env)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = outcome(call, proc.returncode,
                     out_path.read_text(encoding="utf-8"),
                     err_path.read_text(encoding="utf-8"))
    record.update(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0)
    return record


def outcome(call: workloads.Call, code: int, stdout: str,
            stderr: str) -> dict:
    """A call fails when its exit code is not the expected one or its
    output fails the reference check; only the latter makes it wrong."""
    if code != call.expect_exit:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return {"exit": code, "failed": True, "wrong": False,
                "problems": [f"exit {code}, expected {call.expect_exit}: "
                             f"{tail[0][:200]}"]}
    try:
        problems = call.check(reference.parse(stdout, call.fmt))
    except (ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable {call.fmt} output: {exc!r}"]
    return {"exit": code, "failed": bool(problems), "wrong": bool(problems),
            "problems": problems}


def run_passes(calls: list[workloads.Call], env: dict[str, str], work: Path,
               seconds: float) -> tuple[list[list[dict]], list[float]]:
    """Repeat the call list while another pass still fits in seconds
    (always at least one pass). The interpreter starts for setup_s are
    spread through every pass, so their median covers the run rather than
    one moment of a machine whose speed drifts."""
    setup_walls(env, 1)  # fills the bytecode cache
    spots = {len(calls) * k // SETUP_STARTS for k in range(SETUP_STARTS)}
    start = time.perf_counter()
    passes: list[list[dict]] = []
    setup: list[float] = []
    while True:
        records = []
        for index, call in enumerate(calls):
            if index in spots:
                setup += setup_walls(env, 1)
            records.append(run_call(call, env, work))
        passes.append(records)
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(r["wall_s"] for r in p)
                                    for p in passes)
        if elapsed + typical > seconds:
            return passes, setup


def pass_sums(calls: list[workloads.Call], passes: list[list[dict]]) -> dict:
    """Medians over passes of the whole-list and per-subcommand sums."""
    def median_of(pick):
        return statistics.median(pick(p) for p in passes)

    sums = {
        "wall_s": median_of(lambda p: sum(r["wall_s"] for r in p)),
        "peak_rss_mb": median_of(lambda p: max(r["rss_mb"] for r in p)),
        "cpu_s": median_of(lambda p: sum(r["cpu_s"] for r in p)),
    }
    for command in SUBCOMMANDS:
        sums[command.replace("-", "_") + "_s"] = median_of(
            lambda p: sum(r["wall_s"] for c, r in zip(calls, p)
                          if c.command == command))
    return sums


def traced_replay(calls: list[workloads.Call], env: dict[str, str],
                  work: Path) -> dict:
    spec_path, out_path = work / "calls.json", work / "traced.json"
    spec_path.write_text(json.dumps(
        {"src": str(SRC), "calls": [list(c.argv) for c in calls]}))
    subprocess.run([sys.executable, str(BENCH / "traced.py"), str(spec_path),
                    str(out_path)], env=env, check=True,
                   timeout=CALL_TIMEOUT_S)
    return json.loads(out_path.read_text(encoding="utf-8"))


def environment() -> dict:
    """Where the numbers were measured."""
    info = {"nproc": os.cpu_count(),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "loop": "closed loop, 1 client, 1 call at a time"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = next(
        (f"{var}={os.environ[var]}" for var in
         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
         if var in os.environ), "default")
    info["commit"] = git_commit()
    return info


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def summarize(calls, records: list[dict]) -> tuple[bool, int, int]:
    wrong = sum(r["wrong"] for r in records)
    failed = sum(r["failed"] for r in records)
    for call, r in zip(calls * (len(records) // len(calls)), records):
        for problem in r["problems"]:
            print(f"  {'WRONG' if r['wrong'] else 'failed'}: "
                  f"{' '.join(call.argv)}: {problem}", file=sys.stderr)
    return wrong == 0, len(records), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pairrank" / "cli.py").is_file():
        print(f"error: no pairrank sources under {SRC}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    work = Path(".bench_work") / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        calls = workloads.build(args.workload, args.seed, work)
        env = child_env()
        record = {"workload": args.workload, "seed": args.seed,
                  "environment": environment(),
                  "inputs": workloads.input_hashes(work),
                  "call_list_sha256": hashlib.sha256("\n".join(
                      " ".join(c.argv) for c in calls).encode()).hexdigest()}
        if args.trace:
            result = traced_metrics(calls, env, work, record)
        else:
            result = end_to_end_metrics(calls, env, work, args.seconds,
                                        record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    correct, attempted, failed, metrics = result
    shown = dict(metrics)
    # per-subcommand walls of the untraced passes, for reading only
    shown.update((k, v) for k, v in record.get("breakdown_s", {}).items()
                 if v and k != "cpu_s")
    for name, value in shown.items():
        print(f"{args.workload:>13}  {name:<30} {value:>14.6g} {unit(name)}")
    print(f"{args.workload:>13}  {'fail_frac':<30} "
          f"{failed / attempted:>14.6g} fraction  ({failed}/{attempted})")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()}}))
    return 0


def end_to_end_metrics(calls, env, work, seconds, record):
    passes, setup = run_passes(calls, env, work, seconds)
    sums = pass_sums(calls, passes)
    record["passes"] = len(passes)
    record["setup_walls"] = setup
    record["calls"] = [
        {"argv": " ".join(call.argv), "exit": [p[i]["exit"] for p in passes],
         "wall_s": [p[i]["wall_s"] for p in passes]}
        for i, call in enumerate(calls)]
    record["breakdown_s"] = {k: v for k, v in sums.items()
                             if k not in END_TO_END}
    correct, attempted, failed = summarize(
        calls, [r for p in passes for r in p])
    metrics = {"setup_s": statistics.median(setup), "wall_s": sums["wall_s"],
               "peak_rss_mb": sums["peak_rss_mb"]}
    return correct, attempted, failed, metrics


def traced_metrics(calls, env, work, record):
    subprocess_pass = [run_call(call, env, work) for call in calls]
    sums = pass_sums(calls, [subprocess_pass])
    replay = traced_replay(calls, env, work)
    in_process = [outcome(call, r["exit"], r["stdout"], r["stderr"])
                  for key in ("untraced", "traced")
                  for call, r in zip(calls, replay[key])]
    correct, attempted, failed = summarize(
        calls, subprocess_pass + in_process)
    untraced = sum(r["wall_s"] for r in replay["untraced"])
    traced = sum(r["wall_s"] for r in replay["traced"])
    record["spans"] = len(replay["spans"])
    metrics = spans.layer_metrics(replay["spans"])
    metrics["cli.cpu_s"] = sums["cpu_s"]
    for command in SUBCOMMANDS:
        key = command.replace("-", "_") + "_s"
        metrics[f"cli.{key}"] = sums[key]
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return correct, attempted, failed, metrics


if __name__ == "__main__":
    sys.exit(main())
