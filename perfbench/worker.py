"""One benchmark process: set up, print READY, run jobs, print one JSON line.

    python3 perfbench/worker.py --workload W --seed N --passes P
                                [--max-seconds S] [--trace 0|1]

--passes 0 stops after READY (the orchestrator times fresh-interpreter
set-up from spawn to READY).  Otherwise the worker runs the job list P
times in a closed loop, one job at a time, stopping early at a job
boundary once S seconds have passed.  With --trace 1 the coxfree
functions listed in tracer.TRACED are wrapped before set-up, and the
aggregates are part of the output.  For the cli workload every job is a
child process, `python -m coxfree --quiet ...`, or under --trace 1
`perfbench/clichild.py`, which wraps the same functions in the child.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402  (perfbench/ is on sys.path as the script directory)
import workloads  # noqa: E402

CLI_TIMEOUT_S = 60


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """Materializes symbol files for the cli jobs and runs each as a child."""

    def __init__(self, jobs, traced):
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=temp_root())
        self.traced = traced
        self.env = child_env()
        self.trace_files = []
        self.argvs = []
        bad = os.path.join(self.tmp, "bad.json")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write('{"nodes": ["a", "b"], "edges": [["a", "b"')
        for i, job in enumerate(jobs):
            argv = list(job["argv"])
            if "@symbol" in argv:
                path = os.path.join(self.tmp, f"symbol-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(job["symbol"], fh)
                argv[argv.index("@symbol")] = path
            if "@bad" in argv:
                argv[argv.index("@bad")] = bad
            self.argvs.append(argv)

    def __call__(self, i):
        if self.traced:
            out_file = os.path.join(self.tmp, f"trace-{len(self.trace_files)}.json")
            self.trace_files.append(out_file)
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "clichild.py")]
            env = dict(self.env, PERFBENCH_TRACE_OUT=out_file)
        else:
            cmd, env = [sys.executable, "-m", "coxfree"], self.env
        return subprocess.run(cmd + ["--quiet"] + self.argvs[i], cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=CLI_TIMEOUT_S)

    def trace_snapshot(self):
        snaps = []
        for path in self.trace_files:
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    snaps.append(json.load(fh))
        return tracer.merge(snaps)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass  # another worker's files are still there


def temp_root():
    path = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(path, exist_ok=True)
    return path


def cli_answer(proc):
    out = None
    if proc.returncode == 0:
        try:
            out = json.loads(proc.stdout)
        except ValueError:
            pass  # not JSON: a wrong answer, caught by the check
    return {"exit": proc.returncode, "out": out,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}


def run_jobs(jobs, passes, max_seconds, runner):
    """Closed loop, one job at a time; returns the records and the wall time."""
    records = []
    clock = time.perf_counter
    start = clock()
    for k in range(passes * len(jobs)):
        if k and clock() - start >= max_seconds:
            break
        i = k % len(jobs)
        t0 = clock()
        try:
            raw = runner(i) if runner else workloads.execute(jobs[i])
            error = None
        except subprocess.TimeoutExpired:
            error = "timeout"
        except Exception as exc:  # a job that raises is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        if error is not None:
            answer = {"error": error}
        else:
            answer = cli_answer(raw) if runner else workloads.summarize(jobs[i], raw)
        records.append({"i": i, "t": elapsed, "answer": answer})
    return records, clock() - start


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--max-seconds", type=float, default=float("inf"))
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")
    is_cli = args.workload == "cli"

    # Set-up: import, Weyl data fills, input generation.
    tr = None
    if not is_cli:
        import coxfree  # noqa: F401
        if args.trace:
            tr = tracer.Tracer()
            tr.install()
    jobs = workloads.make_jobs(args.workload, args.seed)
    workloads.prepare(args.workload)
    runner = CliRunner(jobs, bool(args.trace)) if is_cli else None
    try:
        print("READY", flush=True)
        if args.passes == 0:
            return 0
        records, wall = run_jobs(jobs, args.passes, args.max_seconds, runner)
        trace = runner.trace_snapshot() if (runner and args.trace) else (tr.snapshot() if tr else None)
    finally:
        if runner:
            runner.close()
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    result = {"records": records, "wall_s": wall,
              "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0, "trace": trace}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
