"""coxfree benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload pipeline|algebra|cli --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout; coxfree is imported from ./src.

--trace 0 measures the end-to-end metrics.  Set-up time is the median of
several fresh worker processes timed from spawn until they can start the
first job; half start before the timed loop and half after it, so the
samples span the run instead of a two-second window of a host whose
speed drifts.  The timed worker, one more fresh worker, runs a closed
loop (one caller, the next job only after the previous one returns) over
whole passes of the job list: round(S / workloads.NOMINAL_PASS_S[W])
passes, so the run lasts about S seconds on the commit that added it.  A
fixed number of passes keeps the work, the job mix and the sample count
behind the tail percentile the same on every commit; a partial last pass
would make them depend on job order and speed.  A run still stops at a
job boundary after MAX_RUN_FACTOR * S seconds, so a much slower commit
stays in time.  The median and the tail of the per-job times are
Harrell-Davis estimates (see hd_quantile).

--trace 1 gives the per-layer metrics.  One fresh worker runs the job list
once untraced and another runs it once traced, so the per-layer numbers
are totals over the same fixed work for a given seed.  The traced answers
must equal the untraced ones, and the difference in time is the tracing
overhead.  The layer-map predictions of layer_map.json are checked here.

The last line of stdout is the result object; the line before it holds
the details: the drawn job list, set-up samples, failures, the tail
percentile and its sample count, the environment and a held-out seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import child_env  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9
MAX_RUN_FACTOR = 1.5
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 150
# Seed kept out of every tuning run, for checking a later claim on inputs
# the change was not written against.
HOLDOUT_SEED = 104729

with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as _fh:
    LAYER_MAP = json.load(_fh)

END_TO_END_UNITS = {"setup_s": "s", "throughput_jobs_per_s": "1/s", "job_s.p50": "s",
                    "job_s.tail": "s", "peak_rss_mb": "MB"}


def spawn_worker(workload, seed, passes, max_seconds=float("inf"), trace=0):
    """Run one worker; return (seconds from spawn to READY, its JSON output)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--passes", str(passes), "--max-seconds", repr(max_seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != b"READY" or code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return ready, (json.loads(rest.decode().strip().splitlines()[-1]) if passes else None)


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of values.

    A weighted mean of all order statistics, the weight of the i-th of n
    being the Beta((n+1)q, (n+1)(1-q)) probability of ((i-1)/n, i/n].  A
    job list mixes jobs of very different cost, so the plain order
    statistic jumps between neighbouring jobs when timing noise swaps
    their ranks; this estimate moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(t):
        if t <= 0.0 or t >= 1.0:
            return math.exp(-log_beta) if (a == 1 and t <= 0) or (b == 1 and t >= 1) else 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    steps = 16  # Simpson's rule on each ((i-1)/n, i/n]
    weights = []
    for i in range(n):
        lo, h = i / n, 1.0 / (n * steps)
        ys = [pdf(lo + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(times):
    """Highest percentile with at least TAIL_BEYOND samples above it,
    as (Harrell-Davis value, percentile, sample count)."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100.0, n
    q = (n - TAIL_BEYOND) / n
    return hd_quantile(times, q), 100.0 * q, n


def score(jobs, records):
    """Check every record against its known answer.

    Returns the failed and wrong-answer counts and their detail entries
    (first five of each shown).
    """
    failed, wrong = [], []
    for rec in records:
        job = jobs[rec["i"]]
        if workloads.failed(job, rec["answer"]):
            failed.append(rec)
        elif not workloads.check(job, rec["answer"]):
            wrong.append(rec)
    detail = {
        "failed_frac": len(failed) / len(records),
        "wrong_answers": len(wrong),
        "failures": [{"job": jobs[r["i"]], "answer": r["answer"]} for r in failed[:5]],
        "wrong": [{"job": jobs[r["i"]], "answer": r["answer"]} for r in wrong[:5]],
    }
    return len(failed), len(wrong), detail


def environment():
    from importlib import metadata
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "commit": commit()}


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return ref


# ---------------------------------------------------------------------------
# --trace 0

def measure(workload, seed, seconds):
    setups = [spawn_worker(workload, seed, 0)[0] for _ in range(SETUP_SAMPLES // 2)]
    passes = max(1, round(seconds / workloads.NOMINAL_PASS_S[workload]))
    ready, out = spawn_worker(workload, seed, passes, max_seconds=MAX_RUN_FACTOR * seconds)
    setups.append(ready)
    setups += [spawn_worker(workload, seed, 0)[0] for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    jobs = workloads.make_jobs(workload, seed)
    records = out["records"]
    failed, wrong, outcome = score(jobs, records)
    times = [r["t"] for r in records]
    tail_value, tail_pct, n = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_jobs_per_s": (len(records) - failed) / out["wall_s"],
        "job_s.p50": hd_quantile(times, 0.5),
        "job_s.tail": tail_value,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    detail = {
        "setup_samples_s": setups,
        "timed_wall_s": out["wall_s"],
        "passes": passes,
        "passes_complete": len(records) == passes * len(jobs),
        "job_s.tail_percentile": tail_pct,
        "job_s.sample_median": statistics.median(times),
        "job_samples": n,
        **outcome,
    }
    result = {"correct": not wrong, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}
    return result, detail


# ---------------------------------------------------------------------------
# --trace 1

def _median_run(args, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                       stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _numpy_import_s():
    samples = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import coxfree"],
                              cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, check=True, timeout=60)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                samples.append(int(parts[1]) / 1e6)
    return statistics.median(samples) if samples else 0.0


def cli_layers():
    interpreter = _median_run(["-c", "pass"], 5)
    with_import = _median_run(["-c", "import coxfree"], 5)
    return {"cli.interpreter_s": interpreter, "cli.import_s": with_import - interpreter,
            "cli.import.numpy_s": _numpy_import_s()}


def layer_value(name, stats, extra):
    if name in extra:
        return extra[name]
    fn, field = name.rsplit(".", 1)
    stat = stats.get(fn, {})
    if field.endswith("_ratio"):
        hits = stat.get({"finite_ratio": "finite", "true_ratio": "true"}[field], 0)
        return hits / stat["calls"] if stat.get("calls") else 0.0
    return stat.get(field, 0)


def check_predictions(workload, stats, extra, traced_job_s, untraced_p50):
    out = []
    for pred in LAYER_MAP["predictions"]:
        if pred["workload"] != workload:
            continue
        if pred["id"] == "pipeline-no-closure":
            value = stats.get("torsionfree.enumerate_image", {}).get("calls", 0)
            holds = value == 0
        elif pred["id"] == "algebra-walk-below-5pct":
            walk = sum(stats.get(fn, {}).get("self_s", 0.0) for fn in pred["functions"])
            value = walk / traced_job_s
            holds = value < 0.05
        elif pred["id"] == "cli-startup-majority":
            value = (extra["cli.interpreter_s"] + extra["cli.import_s"]) / untraced_p50
            holds = value > 0.5
        else:
            raise ValueError(f"unknown prediction {pred['id']!r}")
        out.append({"id": pred["id"], "claim": pred["claim"], "value": value, "holds": holds})
        if not holds:
            print(f"prediction failed: {pred['claim']} (value {value})", file=sys.stderr)
    return out


def answers_key(answer):
    if "stdout_sha256" in answer:
        return answer["exit"], answer["stdout_sha256"]
    return json.dumps(answer, sort_keys=True)


def trace_run(workload, seed):
    jobs = workloads.make_jobs(workload, seed)
    _, plain = spawn_worker(workload, seed, 1)
    _, traced = spawn_worker(workload, seed, 1, trace=1)
    extra = cli_layers()
    stats = traced["trace"]
    plain_s = sum(r["t"] for r in plain["records"])
    traced_s = sum(r["t"] for r in traced["records"])
    extra["trace.overhead_frac"] = traced_s / plain_s - 1.0
    mismatched = [r["i"] for r, q in zip(plain["records"], traced["records"])
                  if answers_key(r["answer"]) != answers_key(q["answer"])]
    records = plain["records"] + traced["records"]
    failed, wrong, outcome = score(jobs, records)
    untraced_p50 = statistics.median(r["t"] for r in plain["records"])
    metrics = {m["name"]: {"value": layer_value(m["name"], stats, extra), "unit": m["unit"]}
               for m in LAYER_MAP["per_layer"]}
    detail = {
        "untraced_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "traced_equals_untraced": not mismatched,
        "mismatched_jobs": mismatched,
        "predictions": check_predictions(workload, stats, extra, traced_s, untraced_p50),
        **outcome,
        "spans": stats,
    }
    result = {"correct": not wrong and not mismatched, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "coxfree", "__init__.py")):
        print(f"error: no coxfree package under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    if args.trace:
        result, detail = trace_run(args.workload, args.seed)
    else:
        result, detail = measure(args.workload, args.seed, args.seconds)
    detail.update({
        "workload": args.workload,
        "why": LAYER_MAP["workloads"][args.workload],
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "jobs": workloads.make_jobs(args.workload, args.seed),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
