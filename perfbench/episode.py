"""One episode of one workload, in a process of its own.

``run.py`` starts this script once per episode, so peak memory and
allocator state never carry over from an earlier episode or workload.
The episode first imports every ``repro`` module.  Then it runs the
workload's measured phase in forked copies of itself, one after another,
while the next copy is expected to end within ``--seconds`` (and at
least ``MIN_REPS`` times).  Every copy starts from the same state, so the
copies do the same work and must reach the same outcome.  Untraced
full-size episodes set the workload up afresh before each copy,
``SETUP_BATCH`` times back to back, and record the mean set-up time;
``conv_random_rw`` sets up before its first copy only.  It prints one
JSON object on its last stdout line::

    PYTHONPATH=src python3 perfbench/episode.py --workload fleet_day \
        --seed 1 --seconds 20 [--trace] [--size smoke]

With ``--trace`` the measured phases run under cProfile and each copy's
report also carries the per-layer host split (see :func:`layer_split`).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import pstats
import resource
import statistics
import sys
import time
import traceback

from workloads import MIN_REPS, SETUP_BATCH, WORKLOADS

_SRC_MARK = os.sep + os.path.join("src", "repro") + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _owner(func):
    """'bench', a ``src/repro`` package name, or None (stdlib/numpy/builtin)."""
    filename = func[0]
    if filename.startswith(_BENCH_DIR):
        return "bench"
    index = filename.find(_SRC_MARK)
    if index < 0:
        return None
    rest = filename[index + len(_SRC_MARK):]
    return rest.split(os.sep, 1)[0] if os.sep in rest else "repro"


def layer_split(profile: cProfile.Profile) -> dict:
    """Per-layer self time and calls entering the layer.

    Self time of code outside the repo (builtins, stdlib, numpy) is
    charged to the package that called it, split by the caller edges'
    own times and followed up through foreign callers.  ``calls_in``
    counts calls (generator resumes included) whose caller sits in
    another package.
    """
    stats = pstats.Stats(profile).stats
    self_s: dict = {}
    calls_in: dict = {}

    def charge(func, seconds, depth=0):
        owner = _owner(func)
        if owner is not None:
            self_s[owner] = self_s.get(owner, 0.0) + seconds
            return
        callers = stats.get(func, (0, 0, 0, 0, {}))[4]
        total = sum(edge[2] for edge in callers.values())
        if depth > 8 or not callers:
            self_s["bench"] = self_s.get("bench", 0.0) + seconds
            return
        for caller, edge in callers.items():
            share = edge[2] / total if total else 1.0 / len(callers)
            charge(caller, seconds * share, depth + 1)

    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        charge(func, tottime)
        owner = _owner(func)
        if owner is None:
            continue
        for caller, edge in callers.items():
            if _owner(caller) != owner:
                calls_in[owner] = calls_in.get(owner, 0) + edge[1]
    pops = sum(
        edge[1]
        for func, entry in stats.items()
        if func[2] == "<built-in method _heapq.heappop>"
        for caller, edge in entry[4].items()
        if _owner(caller) == "sim" and caller[2] in ("run", "step")
    )
    return {"self_s": self_s, "calls_in": calls_in, "run_loop_pops": pops}


def measure_report(measure, trace: bool) -> dict:
    """Run one measured phase; the report of what it did."""
    profile = cProfile.Profile() if trace else None
    episode = measure(profile)
    metrics, tail_pct = episode.end_to_end()
    deterministic = {
        "metrics": metrics,
        "counts": episode.counts,
        "tail_pct": tail_pct,
        "tail_n": len(episode.latencies_ns),
        "attempted": episode.attempted,
        "events": episode.events,
        "extra": episode.extra,
    }
    digest = hashlib.sha256(
        json.dumps(deterministic, sort_keys=True).encode()
    ).hexdigest()[:16]
    report = {
        "run_s": episode.run_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": episode.attempted,
        "failed": episode.failed,
        "checks": episode.checks,
        "deterministic": deterministic,
        "digest": digest,
    }
    if profile is not None:
        report["layers"] = layer_split(profile)
    return report


def forked_report(measure, trace: bool) -> dict:
    """:func:`measure_report` in a forked copy of this process, which
    is waited for before returning.  The parent's state stays as set-up
    left it.  The child's peak memory includes the pages it shares with
    the parent, as the process's own would."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            data = json.dumps(measure_report(measure, trace)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"measured phase failed (wait status {status})")
    return json.loads(data)


def import_all() -> None:
    """Import every module under ``src/repro``, then freeze the heap.

    Set-up code imports some modules lazily, and without cached
    bytecode each such import compiles its source inside the timed
    set-up.  Frozen, the module objects are left out of the collections
    that set-up and the measured phase trigger, so those collections
    walk the workload's own objects only.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    gc.collect()
    gc.freeze()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import_all()
    began = time.perf_counter()
    full = args.size == "full" and not args.trace
    batch = SETUP_BATCH[args.workload] if full else 0
    # Set-ups are spread between the repetitions, so their times sample
    # the host over the whole episode as the repetitions' times do.
    setups, reports, measure, took = [], [], None, []
    while len(reports) < MIN_REPS or (
        time.perf_counter() - began + took[-1] <= args.seconds
    ):
        start = time.perf_counter()
        if not reports or batch:
            batch_s = []
            for _ in range(max(batch, 1)):
                measure = None  # free the previous set-up first
                gc.collect()
                setup_s, measure = WORKLOADS[args.workload](args.seed, args.size)
                batch_s.append(setup_s)
            setups.append(statistics.fmean(batch_s))
        reports.append(forked_report(measure, args.trace))
        took.append(time.perf_counter() - start)
    out = {
        "setup_s": statistics.median(setups),
        "setups": setups,
        "reps": reports,
    }
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
