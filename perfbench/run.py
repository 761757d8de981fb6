#!/usr/bin/env python3
"""The ordkit benchmark: one workload, fresh child interpreters, medians.

Run from the repository root::

    python3 perfbench/run.py --workload systems-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A run starts ``perfbench/child.py`` again and again, one child at a time,
for about ``--seconds``: a round (one child, or one untraced and one traced
child with ``--trace 1``) starts only if it should end by then, give or take
half a round, and there is always at least one round per shard.  Each child
is a fresh single-threaded interpreter, so the library's caches start cold
as they do for a user; it times the import, builds the seeded inputs, times
the workload's fixed op list and checks every op's result.  The two sweeps
are cut into shards (see ``workloads.SHARDS``), one shard per child, and the
rounds cycle through the shards.  Before each child, three more fresh
interpreters only time the import, so ``setup_s`` has many samples.

Every end-to-end metric is a median over the run's children; ``wall_s`` is
the median child time times the number of shards, so it estimates the time
of the whole op list.  Single children differ by tens of percent on a busy
host, so compare medians of repeated runs, never single runs.  With
``--trace 1`` the per-layer metrics come from the traced children, summed
over shards, and ``trace.overhead_s`` is the traced minus the untraced
``wall_s``.

The lines before the last describe the environment and every metric with
its unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results and spans are also
written under ``perfbench/results/``.  The exit code is non-zero, with no
result printed, when the program cannot be imported or a child fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("systems-sweep", "orders-sweep", "kernel-search", "cli-json")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
# Printed but not in BENCHMARK.json.  Per-op latencies jump by up to 60%
# with the host's speed phases, too much for a 25% bound; op_p99_ms exists
# only with >= 1000 ops per child; fail_rate is 0 on a correct program.
REPORTED = (("op_p50_ms", "ms"), ("op_p99_ms", "ms"), ("fail_rate", "ratio"))
SETUP_PROBES = 3  # import-only interpreters started before each child
TIME_LIMIT_S = 170


class ChildFailed(Exception):
    pass


def environment(root: str, seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    package = os.path.join(root, "src", "ordkit")
    for name in sorted(os.listdir(package)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(package, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


class Runner:
    """Starts children one at a time under one overall deadline."""

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
        self.env.pop("ORDKIT_PURE", None)
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def child(self, argv) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("time limit reached before the run finished")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), *argv],
                env=self.env, cwd=self.root, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"child {argv} did not finish within the time limit")
        if proc.returncode != 0:
            raise ChildFailed(f"child {argv} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(runner: Runner, workload: str, seed: int, seconds: float, trace: int):
    """Run one workload; returns (report lines, result object)."""
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{workload}-seed{seed}"
    plain, traced, setups = [], [], []
    started = time.monotonic()
    longest = 0.0
    shards = 1  # known from the first child
    while True:
        t0 = time.monotonic()
        base = ["--workload", workload, "--seed", str(seed), "--shard", str(len(plain) % shards)]
        setups += [runner.child(["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
        plain.append(runner.child(base + ["--trace", "0"]))
        shards = plain[0]["shards"]
        if trace:
            traced.append(runner.child(base + ["--trace", "1"]))
        longest = max(longest, time.monotonic() - t0)
        # Every shard runs once; another round may overrun the run length
        # by at most half a round.
        if len(plain) >= shards and time.monotonic() + longest / 2 > started + seconds:
            break

    # The cli-json inputs are kept between children: creating files is slow.
    shutil.rmtree(os.path.join(results_dir, "work"), ignore_errors=True)
    children = plain + traced
    setups += [c["setup_s"] for c in children]
    attempted = sum(c["ops"] for c in children)
    failed = sum(c["failed"] for c in children)
    correct = all(c["correct"] for c in children)
    env = environment(runner.root, seed)
    env.update(lane=plain[0]["lane"], lane_import_error=plain[0]["lane_import_error"])

    # The shards hold about the same mix of ops, so every child is a
    # sample of the same per-shard time.
    summary = {
        "setup_s": statistics.median(setups),
        "wall_s": shards * statistics.median(c["wall_s"] for c in plain),
    }
    for name in ("op_p50_ms", "peak_rss_mb", "op_p99_ms"):
        values = [c[name] for c in plain if c[name] is not None]
        summary[name] = statistics.median(values) if values else None
    summary["fail_rate"] = failed / attempted

    lines = [f"workload {workload}  seed {seed}  trace {trace}  shards {shards}  children "
             f"{len(plain)} untraced + {len(traced)} traced, {len(setups)} setup samples"]
    lines += [f"  env {key}: {value}" for key, value in env.items()]
    for name, unit in END_TO_END + REPORTED:
        value = summary[name]
        shown = "n/a (fewer than 1000 ops)" if value is None else f"{value:.6g} {unit}"
        if name == "setup_s":
            samples = setups
        elif name == "fail_rate":
            samples = [c["failed"] / c["ops"] for c in plain]
        else:
            samples = [c[name] for c in plain if c[name] is not None]
        lines.append(f"  {name:<12} {shown:<26} samples: [{', '.join(f'{v:.4g}' for v in samples)}]")
    lines.append(f"  ops in the first child {plain[0]['ops']}: " + ", ".join(
        f"{cls} {v['ops']} (median {v['median_ms']:.3g} ms)"
        for cls, v in plain[0]["classes"].items()))

    if trace:
        by_shard = {}
        for c in traced:
            by_shard.setdefault(c["shard"], []).append(c["spans_by_name"])
        counts_repeat = all(
            run[name]["calls"] == runs[0][name]["calls"]
            for runs in by_shard.values() for run in runs for name in run
        )
        correct = correct and counts_repeat
        # Per span name: the shard's calls and median self time, summed over shards.
        total = {}
        for runs in by_shard.values():
            for name in runs[0]:
                row = total.setdefault(name, {"calls": 0, "self_s": 0.0})
                row["calls"] += runs[0][name]["calls"]
                row["self_s"] += statistics.median(run[name]["self_s"] for run in runs)
        traced_wall = shards * statistics.median(c["wall_s"] for c in traced)
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in tracer.layer_metrics(total, traced_wall).items()
        }
        metrics["trace.overhead_s"] = {"value": traced_wall - summary["wall_s"], "unit": "s"}
        lines += [f"  {name:<50} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        if not counts_repeat:
            lines.append("  FAIL per-layer call counts differ between traced children of a shard")
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    lines += [f"  FAIL {message}" for c in children for message in c["failures"]]

    record = {"workload": workload, "trace": trace, "env": env, "summary": summary,
              "setup_samples": setups, "metrics": metrics, "children": children}
    with open(os.path.join(results_dir, f"{tag}-trace{trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, result


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_per_witness"):
        return "calls/witness"
    return "ratio"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ordkit", "__init__.py")):
        sys.exit("perfbench: no src/ordkit here; run from the repository root")
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            runner = Runner(root)
            # Compile the bytecode once, so that no timed import pays for it.
            runner.child(["--setup-only"])
            lines, result = run_workload(runner, workload, args.seed, args.seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(result), flush=True)
    except ChildFailed as exc:
        sys.exit(f"perfbench: {exc}")


if __name__ == "__main__":
    main()
