"""Seeded benchmark of the cutstack workbench.

Usage, from the repository root:

    python3 perfbench/run.py --seed 1                  # every workload
    python3 perfbench/run.py --workload frame_audit --seed 1 --seconds 10
    python3 perfbench/run.py --workload orbit_formula --seed 1 --trace 1

Each workload runs in fresh interpreters, one after another: a single
client in a closed loop, no threads.  An untraced run (`--trace 0`) starts
one measuring interpreter between set-up-only interpreters, and reports
the end-to-end metrics; set-up time is the median over all of them.  A
traced run (`--trace 1`) reports the per-layer metrics.  Every metric is
printed with its unit, a results file with the run record is written under
perfbench/out/, and the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every op and every end-of-run check passed.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, SPEC, UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170  # deadline for all interpreters of one workload
# Interpreters whose set-up is timed.  The host's speed drifts in phases
# of tens of seconds or more, so half of them start before the measuring
# interpreter and half after it, and setup_s is the median of their set-up
# CPU times (child.py says why CPU time).
SETUPS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="length of the timed loop; an untraced run still "
                    "does at least the traced run's op count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=str(HERE / "out"))
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, workload, deadline, extra=()):
    """Run child.py once; returns its parsed JSON line."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra,
           "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.time()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} interpreter exited with "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_vals, q):
    """Nearest-rank percentile, and the number of samples beyond it."""
    rank = math.ceil(q * len(sorted_vals))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def latency_metrics(lat_ns):
    """End-to-end latency metrics, tail percentiles that have at least ten
    samples beyond them, and the 5 %-step quantiles (to see where the
    median sits among the latency modes)."""
    lat = sorted(ns / 1e6 for ns in lat_ns)
    n = len(lat)
    out = {"ops_per_s": n / (sum(lat) / 1e3),
           "op_p50_ms": statistics.median(lat)}
    tails = {}
    for name, q in (("op_p90_ms", 0.90), ("op_p99_ms", 0.99)):
        value, beyond = percentile(lat, q)
        if beyond >= 10:
            tails[name] = (value, beyond)
    quantiles = statistics.quantiles(lat, n=20) if n > 1 else lat
    return out, tails, quantiles


def run_record(args, workload, attempted):
    def git(*a):
        if not (ROOT / ".git").exists():
            return None
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            p = subprocess.run(["git", *a], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = src_status = None
    if sha:
        status = git("status", "--porcelain", "--untracked-files=no")
        src_status = git("status", "--porcelain", "--", "src")
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "cutstack").glob("*.py")))
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_dirty": None if src_status is None else bool(src_status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": args.seed,
        "workload": workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "ops": attempted,
        "src_lines": src_lines,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(args, workload):
    """Returns (result dict, printable lines)."""
    deadline = time.time() + TIME_LIMIT_S
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        child = spawn(args, workload, deadline,
                      ["--spans-out", str(out_dir / f"{stem}-spans.tsv.gz")])
        metrics = child.pop("layer_metrics")
        tails = {}
        quantiles = None
    else:
        def setup_only(k):
            return [spawn(args, workload, deadline, ["--setup-only"])
                    for _ in range(k)]

        before = setup_only((SETUPS - 1) // 2)
        child = spawn(args, workload, deadline)
        setups = before + [child] + setup_only(SETUPS // 2)
        metrics, tails, quantiles = latency_metrics(child.pop("latencies_ns"))
        for key in ("setup_s", "setup_wall_s"):
            child[key + "_samples"] = [r[key] for r in setups]
            metrics[key] = statistics.median(child[key + "_samples"])
    attempted, failed = child["attempted"], child["failed"]
    names = [m["name"] for m in (PER_LAYER if args.trace else END_TO_END)]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }
    lines = [f"{workload} {n} {metrics[n]:.6g} {UNITS[n]}" for n in names]
    if not args.trace:
        lines.append(f"{workload} setup_wall_s {metrics['setup_wall_s']:.6g} "
                     f"{UNITS['setup_wall_s']}")
        lines.append(f"{workload} peak_rss_mb {child['peak_rss_mb']:.6g} "
                     f"{UNITS['peak_rss_mb']}")
        lines.append(f"{workload} failed_frac {failed / attempted:.6g} "
                     f"{UNITS['failed_frac']} ({failed}/{attempted} ops)")
        for n, (v, beyond) in tails.items():
            lines.append(f"{workload} {n} {v:.6g} {UNITS[n]} "
                         f"({attempted} ops, {beyond} beyond)")
        lines.append(f"{workload} samples {len(setups)} set-ups, "
                     f"{attempted} ops in the timed loop")
    lines.append(f"{workload} digest {child['digest']} "
                 f"(first {child['digest_ops']} ops)")
    for k, v in child["notes"].items():
        lines.append(f"{workload} note {k} {v}")
    for f in child["failures"]:
        lines.append(f"{workload} FAILED op {f['op']} {f['type']}: "
                     f"{f['detail']}")
    record = {"run": run_record(args, workload, attempted), "result": result,
              "tails": {n: {"value": v, "unit": UNITS[n], "beyond": b}
                        for n, (v, b) in tails.items()},
              "latency_quantiles_ms": quantiles,
              "child": child}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cutstack" / "__init__.py").is_file():
        print(f"perfbench: no cutstack sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in names:
        try:
            results[w], lines = run_workload(args, w)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            print(f"perfbench: {w}: {e}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
