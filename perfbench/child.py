"""One workload in one fresh interpreter; run.py starts it.

Prints one JSON line on stdout.  Set-up runs from the start of this process
to the first timed op, so it covers interpreter start, imports, building
the systems and warm-up.  It is measured twice: as the process's CPU time
(`setup_s`), and as wall time from the moment the parent spawned the
process (`setup_wall_s`, from the `--spawned-at` time.time() stamp).  On a
shared virtual machine the wall time also counts the time the host gave
the CPU to someone else, which doubled it for minutes at a time.

Untraced runs (`--trace 0`) time ops in a closed loop, one op at a time,
until `--seconds` have passed and at least the traced run's op count is
done.  Traced runs (`--trace 1`) install the layer wrappers before set-up
and run a fixed number of ops, each once traced and once untraced, so
counts repeat exactly and the overhead is measured on the same ops.
"""

import argparse
import hashlib
import json
import resource
import sys
import time


def parse_args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    return ap.parse_args(argv)


def run_one(wl, inp, failures, i):
    """Run op i; returns (ns, ok, output).  A failure is recorded with its
    op index and type."""
    t0 = time.perf_counter_ns()
    try:
        out = wl.op(inp)
    except Exception as e:  # every failure is counted, none is fatal
        t1 = time.perf_counter_ns()
        failures.append({"op": i, "type": type(e).__name__,
                         "detail": str(e)[:200]})
        return t1 - t0, False, None
    return time.perf_counter_ns() - t0, True, out


def timed_loop(wl, args, digest):
    lat_ns, failures = [], []
    attempted = 0
    t_end = time.perf_counter() + args.seconds
    while attempted < wl.trace_ops or time.perf_counter() < t_end:
        i = attempted
        inp = wl.make_input(i)
        ns, ok, out = run_one(wl, inp, failures, i)
        attempted += 1
        if not ok:
            item = ("failed", i)
        else:
            lat_ns.append(ns)
            wl.record(i, inp, out)
            item = wl.digest_items(out)
        if i < wl.trace_ops:
            digest.update(repr(item).encode())
    return attempted, lat_ns, failures


def traced_loop(wl, tracer, digest):
    """Each op runs traced, then again untraced on a fresh copy of its
    input; only the traced output is recorded and hashed."""
    n = wl.trace_ops
    traced_ns = untraced_ns = 0
    failures = []
    for i in range(n):
        inp = wl.make_input(i)
        tracer.begin_op(i)
        ns, ok, out = run_one(wl, inp, failures, i)
        tracer.end_op()
        traced_ns += ns
        untraced_ns += run_one(wl, wl.make_input(i), [], i)[0]
        if not ok:
            item = ("failed", i)
        else:
            wl.record(i, inp, out)
            item = wl.digest_items(out)
        digest.update(repr(item).encode())
    return n, traced_ns, untraced_ns, failures


def main(argv=None):
    args = parse_args(argv)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    for j in range(wl.warmup_ops):
        wl.op(wl.make_input(-1 - j))
    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": time.process_time(),
              "setup_wall_s": time.time() - args.spawned_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    digest = hashlib.sha256()
    if tracer is None:
        attempted, lat_ns, failures = timed_loop(wl, args, digest)
        result.update(latencies_ns=lat_ns)
    else:
        attempted, traced_ns, untraced_ns, failures = traced_loop(
            wl, tracer, digest)
        result.update(traced_ns=traced_ns, untraced_ns=untraced_ns,
                      spans=tracer.spans())
    failures += wl.finish()
    if any(f["op"] is None for f in failures):
        failed = attempted  # an aggregate check fails the whole run
    else:
        failed = len({f["op"] for f in failures})
    result.update(
        attempted=attempted,
        failed=failed,
        failures=failures[:50],
        digest=digest.hexdigest(),
        digest_ops=wl.trace_ops,
        notes=wl.notes(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["layer_metrics"] = tracing.layer_metrics(
            tracer, attempted, traced_ns, untraced_ns, wl.notes())
        if args.spans_out:
            tracing.write_spans(tracer, args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
