"""The repository benchmark: SDF write units, conventional-SSD GC traffic
and a fleet day, timed end to end and split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sdf_write_units --seed 1 \
        --seconds 38 --trace 0

A run is one episode in a fresh process (``episode.py``): timed
set-ups and repetitions of the measured phase, each repetition in a
forked copy of the set-up process, until ``--seconds`` have passed.  With
``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics: ``setup_s`` as the median over the set-up samples,
``run_s`` and peak memory as medians over repetitions, simulated metrics
from the (identical) repetitions.  With ``--trace 1`` an untraced and a
cProfile-traced episode share the seconds and the object holds the
per-layer metrics.  Every repetition runs the output checks, and every simulated
metric and deterministic count must repeat exactly across the
repetitions of one seed; either failing makes the run report
``"correct": false`` and exit 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("sdf_write_units", "conv_random_rw", "fleet_day")
#: The seed used when ``--seed`` is omitted.  Seed 7 is held out of
#: tuning, so a claimed gain can be re-checked on it.
DEFAULT_SEED = 1

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mib": "MiB",
    "events_per_request": "events",
    "sim_mb_s": "MB/s",
    "sim_p50_ms": "ms",
    "sim_tail_ms": "ms",
    "write_amp": "ratio",
    "good_frac": "ratio",
}
LAYERS = (
    "sim", "channel", "nand", "ftl", "devices", "interfaces", "core",
    "kv", "cluster", "qos", "policy", "obs", "faults", "workloads",
)
#: Simulated per-layer counts (``--trace 1``), read after untraced episodes.
SIM_COUNTS = {
    "sim.events": "count",
    "sim.end_ms": "ms",
    "channel.ops": "count",
    "channel.busy_frac": "ratio",
    "channel.wait_ms": "ms",
    "nand.page_reads": "count",
    "nand.page_programs": "count",
    "nand.block_erases": "count",
    "ftl.gc_programs": "count",
    "ftl.gc_runs": "count",
    "ftl.parity_programs": "count",
    "ftl.erases": "count",
    "devices.requests": "count",
    "devices.read_tail_ms": "ms",
    "devices.write_tail_ms": "ms",
    "interfaces.link_read_mb": "MB",
    "interfaces.link_write_mb": "MB",
    "core.blk_reads": "count",
    "core.blk_writes": "count",
    "core.background_erases": "count",
    "kv.flushes": "count",
    "kv.compactions": "count",
    "kv.wal_mb": "MB",
    "cluster.retries": "count",
    "cluster.mb_migrated": "MB",
    "cluster.rebalance_moves": "count",
    "qos.throttled": "count",
    "qos.throttle_wait_ms": "ms",
    "qos.shed": "count",
    "qos.write_stalls": "count",
    "policy.evals": "count",
    "policy.fires": "count",
    "faults.fired": "count",
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls_in"] = "count"
    units.update({
        "bench.self_s": "s",
        "trace.overhead_s": "s",
        "bench.tail_pct": "%",
        "bench.tail_samples": "count",
    })
    units.update(SIM_COUNTS)
    return units


def run_episode(workload, seed, size, seconds, traced) -> dict:
    """One episode in a fresh interpreter, given ``seconds`` for its
    repetitions; its parsed JSON report (the set-up samples under
    ``setups`` and one report per repetition under ``reps``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Fixed string hashing: profiler call counts must repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "episode.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--seconds", repr(max(seconds, 0.0)),
    ]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"episode exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    reps = report["reps"]
    print(
        f"episode{' traced' if traced else ''}: "
        f"setup={','.join('%.3f' % t for t in report['setups'])}s "
        f"run={','.join('%.3f' % r['run_s'] for r in reps)}s "
        f"rss={max(r['peak_rss_mib'] for r in reps):.1f}MiB "
        f"digest={','.join(sorted({r['digest'] for r in reps}))}",
        flush=True,
    )
    return report


def run_episodes(workload, seed, size, seconds, trace):
    """One untraced episode and, with ``trace``, one traced episode,
    sharing ``seconds`` evenly.  Returns the (untraced, traced) report
    lists."""
    began = time.perf_counter()
    share = seconds / 2 if trace else seconds
    untraced = [run_episode(workload, seed, size, share, False)]
    traced = []
    if trace:
        left = seconds - (time.perf_counter() - began)
        traced.append(run_episode(workload, seed, size, left, True))
    return untraced, traced


def summarize(workload, seed, untraced, traced, trace):
    """(correct, metrics dict, notes) for the final report."""
    setups = untraced
    untraced = [rep for episode in untraced for rep in episode["reps"]]
    traced = [rep for episode in traced for rep in episode["reps"]]
    reports = untraced + traced
    notes = []
    correct = True
    for report in reports:
        bad = sorted(name for name, ok in report["checks"].items() if not ok)
        if bad:
            correct = False
            notes.append(f"output checks failed: {', '.join(bad)}")
    first = reports[0]["deterministic"]
    if any(r["deterministic"] != first for r in reports[1:]):
        correct = False
        notes.append("simulated outcome drifted between repetitions of one seed")
    if traced:
        calls = [r["layers"]["calls_in"] for r in traced]
        if any(c != calls[0] for c in calls[1:]):
            correct = False
            notes.append("calls_in drifted between traced repetitions")
        for r in traced:
            if r["layers"]["run_loop_pops"] != first["events"]:
                correct = False
                notes.append("run-loop pops disagree with the event count")
    med = lambda key, rs: statistics.median(r[key] for r in rs)
    if not trace:
        metrics = {
            "setup_s": statistics.median(
                t for episode in setups for t in episode["setups"]
            ),
            "run_s": med("run_s", untraced),
            "peak_rss_mib": med("peak_rss_mib", untraced),
        }
        metrics.update(first["metrics"])
        units = END_TO_END
    else:
        units = per_layer_units()
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = statistics.median(
                r["layers"]["self_s"].get(layer, 0.0) for r in traced
            )
            metrics[f"{layer}.calls_in"] = traced[0]["layers"]["calls_in"].get(layer, 0)
        metrics["bench.self_s"] = statistics.median(
            r["layers"]["self_s"].get("bench", 0.0) for r in traced
        )
        metrics["trace.overhead_s"] = med("run_s", traced) - med("run_s", untraced)
        metrics["bench.tail_pct"] = first["tail_pct"]
        metrics["bench.tail_samples"] = first["tail_n"]
        metrics["sim.events"] = first["events"]
        for name in SIM_COUNTS:
            if name != "sim.events":
                metrics[name] = first["counts"].get(name, 0)
    print(f"digest {workload} seed={seed} {reports[0]['digest']}")
    print(
        f"sim_tail_ms is p{first['tail_pct']:g} of {first['tail_n']} requests"
    )
    return correct, {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: tiny inputs, for the benchmark's own test",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"no simulator sources under {SRC}; run from a checkout\n")
        return 2

    untraced, traced = run_episodes(
        args.workload, args.seed, args.size, args.seconds, bool(args.trace)
    )
    correct, metrics, notes = summarize(
        args.workload, args.seed, untraced, traced, bool(args.trace)
    )
    for note in notes:
        print(f"FAIL: {note}")
    for name, entry in metrics.items():
        print(f"{name:>28} {entry['value']!r} {entry['unit']}")
    reports = [rep for episode in untraced + traced for rep in episode["reps"]]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
