"""One fresh-interpreter run of one workload; prints one JSON line.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload systems-sweep --seed 1 --shard 0 --trace 0

The run times ``import ordkit, ordkit.cli`` (``setup_s``; with
``--setup-only`` it stops there), builds the
workload's inputs, then times the fixed op list (of a sharded workload,
the op list of shard ``--shard``) with ``perf_counter``: ``wall_s`` for
the whole list and one sample per op.  Only after timing are the ops'
results checked.  With ``--trace 1`` the library's public functions are
wrapped for the timed loop only, the per-span-name calls and self times
are added to the output, and the spans are written to
``perfbench/results/<workload>-seed<seed>-shard<shard>.spans``.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def lane_probe():
    """The compiled lane's import error; ordkit.kernels discards its own."""
    try:
        import ordkit._kernels  # noqa: F401
    except ImportError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shard", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import ordkit
    import ordkit.cli  # noqa: F401
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import workloads

    # Relative, so that the cli-json diagnostics name the same paths on every run.
    results_dir = os.path.relpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "results"))
    os.makedirs(results_dir, exist_ok=True)
    w = workloads.build(args.workload, args.seed, results_dir, args.shard)
    runners = w.runners
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        runners = {cls: tracer.wrap(f"op.{cls}", fn) for cls, fn in runners.items()}

    ops = w.ops
    times = [0.0] * len(ops)
    results = [None] * len(ops)
    errors = {}
    clock = time.perf_counter
    with contextlib.ExitStack() as stack:
        if w.streams:
            stack.enter_context(contextlib.redirect_stdout(w.streams[0]))
            stack.enter_context(contextlib.redirect_stderr(w.streams[1]))
        start = clock()
        for i, (cls, op_args) in enumerate(ops):
            run = runners[cls]
            t = clock()
            try:
                results[i] = run(*op_args)
            except Exception as exc:  # an op that raises is a failed op
                errors[i] = f"{type(exc).__name__}: {exc}"
            times[i] = clock() - t
        wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    failures = [f"op {i} ({ops[i][0]}): {msg}" for i, msg in errors.items()]
    for i, (cls, op_args) in enumerate(ops):
        if i in errors:
            continue
        try:
            ok = w.checkers[cls](op_args, results[i])
        except Exception as exc:  # a result the checker cannot read is wrong
            failures.append(f"op {i} ({cls}): check raised {type(exc).__name__}: {exc}")
            continue
        if not ok:
            failures.append(f"op {i} ({cls}): wrong result for {op_args!r:.200}")
    failed_ops = len(failures)
    failures += w.finish(list(zip(ops, results)))

    ordered = sorted(times)
    by_class = {}
    for (cls, _), t in zip(ops, times):
        by_class.setdefault(cls, []).append(t)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "shard": args.shard,
        "shards": workloads.SHARDS.get(args.workload, 1),
        "ops": len(ops),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_p99_ms": percentile(ordered, 99) * 1e3 if len(ops) >= 1000 else None,
        "peak_rss_mb": peak_rss_mb,
        "failed": failed_ops,
        "failures": failures[:10],
        "correct": not failures,
        "classes": {
            cls: {"ops": len(ts), "median_ms": statistics.median(ts) * 1e3}
            for cls, ts in by_class.items()
        },
        "lane": ordkit.kernels.BACKEND,
        "lane_import_error": lane_probe(),
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        out["spans"] = len(tracer.ids)
        out["spans_by_name"] = tracer.summary()
        tracer.write(os.path.join(
            results_dir, f"{args.workload}-seed{args.seed}-shard{args.shard}.spans"))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
