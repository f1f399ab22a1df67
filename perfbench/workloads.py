"""The three benchmark workloads, driven through the public API only.

Each workload is a function ``(seed, size) -> (setup_s, measure)``.  It
builds its target and times that as set-up.  ``measure(profile)`` then
runs one measured phase (timed as the run, drain included), reads the
program's public counters, checks its outputs and returns an
:class:`Episode`.  ``episode.py`` calls ``measure`` in forked copies of
the set-up process, so every repetition starts from the same state and
does the same work.  Inputs come from ``seed`` alone: the same seed gives
the same inputs, and the simulated outcome must then repeat exactly.

The profiler (``profile``) wraps only the measured phase, so a traced
repetition reports the per-layer split of the same work an untraced one
times.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.devices import HUAWEI_GEN3_SPEC, build_device
from repro.sim import KIB, MIB, MS, Simulator

#: Percentile ladder for ``sim_tail_ms``: the highest rung with at
#: least ``TAIL_BEYOND`` samples above it is reported.
TAIL_LADDER = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9, 99.95, 99.99)
TAIL_BEYOND = 10


def tail(samples):
    """(percentile, value) at the highest ladder rung that still has
    ``TAIL_BEYOND`` samples beyond it (nearest-rank); (0, 0) if empty."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return 0.0, 0
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            chosen = pct
    rank = max(1, math.ceil(n * chosen / 100.0))
    return chosen, ordered[rank - 1]


def median(samples):
    """Median, as the mean of the samples between the 45th and 55th
    percentiles.

    Simulated service times are quantized (fixed controller, bus and
    link costs), so a single order statistic jumps between a few
    discrete levels from seed to seed; averaging the central tenth
    moves smoothly with the share of requests on each level.
    """
    ordered = sorted(samples)
    n = len(ordered)
    lo, hi = (n * 45) // 100, max((n * 55 + 99) // 100, (n * 45) // 100 + 1)
    middle = ordered[lo:hi]
    return sum(middle) / len(middle)


def processed_events(sim: Simulator) -> int:
    """Events the run loop has dispatched so far.

    Every heap push bumps ``sim._seq`` and the run loop is the heap's
    only consumer, so dispatched = pushed - still queued.  Traced
    episodes cross-check this against the profiler's count of
    ``heappop`` calls made by ``Simulator.run``.
    """
    return sim._seq - len(sim._heap)


@dataclass
class Episode:
    """What one measured phase produced."""

    run_s: float
    #: Client requests the workload issued / completed.
    attempted: int
    completed: int
    #: Client requests that raised or returned a wrong result.
    failed: int
    latencies_ns: list
    window_ns: int
    client_bytes: int
    client_write_bytes: int
    nand_program_bytes: int
    good: int
    events: int
    counts: dict
    checks: dict
    extra: dict = field(default_factory=dict)
    #: Raw device (read, write) latencies, for pooling across days.
    device_samples: tuple = ((), ())

    def end_to_end(self) -> dict:
        """The simulated end-to-end metrics (deterministic per seed)."""
        pct, tail_ns = tail(self.latencies_ns)
        return {
            "events_per_request": self.events / self.completed,
            "sim_mb_s": self.client_bytes / 1e6 / (self.window_ns / 1e9),
            "sim_p50_ms": median(self.latencies_ns) / 1e6,
            "sim_tail_ms": tail_ns / 1e6,
            "write_amp": self.nand_program_bytes / self.client_write_bytes,
            "good_frac": self.good / self.attempted,
        }, pct


def _timed(fn, profile):
    """Run ``fn()`` (under ``profile`` if given); (result, seconds)."""
    if profile is not None:
        profile.enable()
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - start
        if profile is not None:
            profile.disable()
    return result, elapsed


def _device_counts(devices, engines, links, end_ns):
    """Channel / device / link counters over a set of devices."""
    busy = sum(engine.busy_value(end_ns) for engine in engines)
    counts = {
        "sim.end_ms": end_ns / 1e6,
        "channel.ops": sum(e.ops_executed.value for e in engines),
        "channel.busy_frac": busy / (len(engines) * end_ns) if end_ns else 0.0,
        "channel.wait_ms": sum(e.wait_ns.value for e in engines) / 1e6,
        "devices.requests": sum(d.stats.requests.value for d in devices),
        "interfaces.link_read_mb": sum(l.read_meter.total_bytes for l in links) / 1e6,
        "interfaces.link_write_mb": sum(l.write_meter.total_bytes for l in links) / 1e6,
    }
    samples = (
        [s for d in devices for s in d.stats.read_latency.samples],
        [s for d in devices for s in d.stats.write_latency.samples],
    )
    _add_device_tails(counts, samples)
    return counts, samples


def _add_device_tails(counts, samples):
    reads, writes = samples
    counts["devices.read_tail_ms"] = tail(reads)[1] / 1e6
    counts["devices.write_tail_ms"] = tail(writes)[1] / 1e6


def _nand_totals(arrays):
    return (
        sum(a.total_reads for a in arrays),
        sum(a.total_programs for a in arrays),
        sum(a.total_erases for a in arrays),
    )


# ---------------------------------------------------------------------------
# sdf_write_units: the Figure 7 write procedure on all 44 channels.
# ---------------------------------------------------------------------------

SDF_SIZES = {
    # (capacity_scale, channels, units per writer, max start stagger)
    "full": (0.004, 44, 3, 20 * MS),
    "smoke": (0.002, 4, 1, 2 * MS),
}


def sdf_write_units(seed: int, size: str = "full"):
    """44 synchronous writers, one per channel, each erasing and writing
    whole 8 MB write units (erase + write timed as one request)."""
    scale, n_channels, units, stagger_ns = SDF_SIZES[size]
    rng = np.random.default_rng(seed)

    def setup():
        sim = Simulator()
        sdf = build_device("sdf", sim, capacity_scale=scale, n_channels=n_channels)
        sdf.prefill(1.0)
        return sim, sdf

    (sim, sdf), setup_s = _timed(setup, None)
    n_blocks = sdf.channels[0].n_logical_blocks
    pages_per_unit = sdf.channels[0].pages_per_logical_block
    unit_bytes = pages_per_unit * sdf.page_size
    # Generated inputs: a start offset and a block order per writer.
    plans = [
        (
            int(rng.integers(0, stagger_ns)),
            [int(b) for b in rng.choice(n_blocks, units, replace=False)],
        )
        for _ in range(n_channels)
    ]

    def measure(profile) -> Episode:
        latencies = []
        last_token = {}

        def writer(channel, offset, blocks):
            yield sim.timeout(offset)
            for seq, block in enumerate(blocks):
                token = (channel.channel, block, seq)
                start = sim.now
                yield from channel.write_fresh(block, [token] * pages_per_unit)
                latencies.append(sim.now - start)
                last_token[(channel.channel, block)] = token

        nand0 = _nand_totals([sdf.array])
        host0 = sum(ftl.host_programs for ftl in sdf.ftls)
        erase0 = sum(ftl.erase_count for ftl in sdf.ftls)
        events0 = processed_events(sim)
        start_ns = sim.now

        def measured():
            for channel, (offset, blocks) in zip(sdf.channels, plans):
                sim.process(writer(channel, offset, blocks))
            sim.run()

        _, run_s = _timed(measured, profile)
        reads, programs, erases = (
            after - before for after, before in zip(_nand_totals([sdf.array]), nand0)
        )
        host_programs = sum(ftl.host_programs for ftl in sdf.ftls) - host0
        attempted = n_channels * units
        client_bytes = len(latencies) * unit_bytes
        wrong = sum(
            1
            for (ch, block), token in last_token.items()
            if sdf.ftls[ch].read(block, 0, 1)[0][0] != token
        )
        counts, _ = _device_counts([sdf], sdf.engines, [sdf.link], sim.now)
        counts.update({
            "nand.page_reads": reads,
            "nand.page_programs": programs,
            "nand.block_erases": erases,
            "ftl.gc_programs": 0,
            "ftl.gc_runs": 0,
            "ftl.parity_programs": 0,
            "ftl.erases": sum(ftl.erase_count for ftl in sdf.ftls) - erase0,
        })
        checks = {
            "all_requests_completed": len(latencies) == attempted,
            "nand_programs_eq_ftl_programs": programs == host_programs,
            "write_amp_exactly_1": programs * sdf.page_size == client_bytes,
            "link_write_bytes_eq_completed": sdf.link.write_meter.total_bytes == client_bytes,
            "link_read_bytes_eq_completed": sdf.link.read_meter.total_bytes == 0,
            "written_units_read_back": wrong == 0,
        }
        return Episode(
            run_s=run_s,
            attempted=attempted,
            completed=len(latencies),
            failed=attempted - len(latencies) + wrong,
            latencies_ns=latencies,
            window_ns=sim.now - start_ns,
            client_bytes=client_bytes,
            client_write_bytes=client_bytes,
            nand_program_bytes=programs * sdf.page_size,
            good=len(latencies) - wrong,
            events=processed_events(sim) - events0,
            counts=counts,
            checks=checks,
        )

    return setup_s, measure


# ---------------------------------------------------------------------------
# conv_random_rw: 8 KB random reads beside writes on a GC-active Gen3.
# ---------------------------------------------------------------------------

CONV_SIZES = {
    # (capacity_scale, channels, requests, queue depth, write share,
    #  priming overwrites as a share of the user pages)
    "full": (0.004, 44, 8000, 32, 0.75, 0.15),
    "smoke": (0.004, 11, 2000, 8, 0.75, 0.15),
}

#: The Figure 8 setup's scaled DRAM write buffer.
CONV_BUFFER_BYTES = 48 * MIB


def conv_random_rw(seed: int, size: str = "full"):
    """One async submitter keeping ``depth`` random 8 KB requests
    outstanding against a full, GC-active page-mapped Huawei Gen3."""
    scale, n_channels, n_requests, depth, write_share, prime = CONV_SIZES[size]
    rng = np.random.default_rng(seed)
    spec = replace(
        HUAWEI_GEN3_SPEC, dram_buffer_bytes=CONV_BUFFER_BYTES, n_channels=n_channels
    )

    def setup():
        sim = Simulator()
        ssd = build_device(
            "conventional", sim, spec=spec, capacity_scale=scale, store_data=True
        )
        ssd.prefill(1.0)
        # GC priming: random overwrites (functional, no simulated time)
        # past the first collections, which find sequentially filled,
        # all-valid blocks; the measured phase then runs in steady GC.
        for lpn in rng.integers(0, ssd.user_pages, int(prime * ssd.user_pages)):
            ssd.ftl.write(int(lpn), None)
        return sim, ssd

    (sim, ssd), setup_s = _timed(setup, None)
    ftl = ssd.ftl
    page = ssd.page_size
    # Generated inputs: the op sequence and the logical pages.
    is_write = rng.random(n_requests) < write_share
    lpns = rng.integers(0, ssd.user_pages, n_requests)

    def ftl_totals():
        return (
            ftl.user_programs, ftl.gc_programs, ftl.parity_programs,
            ftl.gc_runs, ftl.erases,
        )

    def measure(profile) -> Episode:
        latencies = []
        completions = []
        state = {"next": 0, "bad_reads": 0, "reads": 0, "writes": 0, "last_issue": 0}

        def worker():
            while state["next"] < n_requests:
                index = state["next"]
                state["next"] = index + 1
                state["last_issue"] = sim.now
                lpn = int(lpns[index])
                start = sim.now
                if is_write[index]:
                    yield from ssd.write(lpn, 1, (lpn, index))
                    state["writes"] += 1
                else:
                    (payload,) = yield from ssd.read(lpn, 1)
                    state["reads"] += 1
                    if payload is not None and payload[0] != lpn:
                        state["bad_reads"] += 1
                latencies.append(sim.now - start)
                completions.append(sim.now)

        nand0 = _nand_totals([ssd.array])
        ftl0 = ftl_totals()
        link0 = (ssd.link.read_meter.total_bytes, ssd.link.write_meter.total_bytes)
        events0 = processed_events(sim)
        start_ns = sim.now

        def measured():
            workers = [sim.process(worker()) for _ in range(depth)]
            sim.run(until=sim.all_of(workers))
            sim.run(until=sim.process(ssd.drain()))

        _, run_s = _timed(measured, profile)
        reads, programs, erases = (
            after - before for after, before in zip(_nand_totals([ssd.array]), nand0)
        )
        user, gc_programs, parity, gc_runs, ftl_erases = (
            after - before for after, before in zip(ftl_totals(), ftl0)
        )
        link_read = ssd.link.read_meter.total_bytes - link0[0]
        link_write = ssd.link.write_meter.total_bytes - link0[1]
        n_writes = int(is_write.sum())
        # After the drain every written page is on flash: its final
        # mapping must hold a payload written to that page.
        misplaced = sum(
            1
            for lpn in {int(lpn) for lpn in lpns[is_write]}
            if ftl.read(lpn)[0][0] != lpn
        )
        counts, _ = _device_counts([ssd], ssd.engines, [ssd.link], sim.now)
        counts.update({
            "nand.page_reads": reads,
            "nand.page_programs": programs,
            "nand.block_erases": erases,
            "ftl.gc_programs": gc_programs,
            "ftl.gc_runs": gc_runs,
            "ftl.parity_programs": parity,
            "ftl.erases": ftl_erases,
        })
        completed = len(latencies)
        wrong = state["bad_reads"] + misplaced
        checks = {
            "all_requests_completed": completed == n_requests,
            "nand_programs_eq_ftl_programs": programs == user + gc_programs + parity,
            "every_write_programmed": user == n_writes,
            "link_write_bytes_eq_completed": link_write == state["writes"] * page,
            "link_read_bytes_eq_completed": link_read == state["reads"] * page,
            "reads_return_own_page": state["bad_reads"] == 0,
            "writes_land_on_own_page": misplaced == 0,
            "gc_active_in_window": gc_programs > 0,
        }
        return Episode(
            run_s=run_s,
            attempted=n_requests,
            completed=completed,
            failed=n_requests - completed + wrong,
            latencies_ns=latencies,
            # Throughput window: while all ``depth`` slots were busy, i.e.
            # up to the last issue (the ragged drain-down is excluded).
            window_ns=state["last_issue"] - start_ns,
            client_bytes=page * sum(1 for t in completions if t <= state["last_issue"]),
            client_write_bytes=n_writes * page,
            nand_program_bytes=programs * page,
            good=completed - wrong,
            events=processed_events(sim) - events0,
            counts=counts,
            checks=checks,
        )

    return setup_s, measure


# ---------------------------------------------------------------------------
# fleet_day: three SDF nodes serving two tenants with every plane attached.
# ---------------------------------------------------------------------------

FLEET_SIZES = {
    # (days per repetition, arrival window per day, web rate, bulk rate)
    "full": (8, 1200 * MS, 1300.0, 120.0),
    "smoke": (1, 200 * MS, 200.0, 40.0),
}


def _fleet_scenario(seed: int, size: str):
    from repro.workloads import (
        DiurnalWave,
        FaultBurst,
        RateSchedule,
        Scenario,
        SizeDistribution,
        SloSpec,
        Spike,
        TenantSpec,
        UniformKeyModel,
        YCSB_A,
        YCSB_B,
        ZipfianKeyModel,
    )

    _days, duration, web_rps, bulk_rps = FLEET_SIZES[size]
    tenants = (
        TenantSpec(
            name="web",
            mix=YCSB_B,
            keys=ZipfianKeyModel(0, 20_000, theta=0.99),
            sizes=SizeDistribution(fixed=16 * KIB),
            arrivals=RateSchedule(
                base_rps=web_rps,
                wave=DiurnalWave(amplitude=0.4, period_ns=duration),
            ),
            slo=SloSpec(deadline_ns=40 * MS),
        ),
        TenantSpec(
            name="bulk",
            mix=YCSB_A,
            keys=UniformKeyModel(0, 60_000),
            sizes=SizeDistribution(lo=32 * KIB, hi=256 * KIB),
            arrivals=RateSchedule(
                base_rps=bulk_rps,
                spikes=(
                    Spike(
                        at_ns=duration * 2 // 5,
                        duration_ns=duration // 5,
                        multiplier=3.0,
                    ),
                ),
            ),
            slo=SloSpec(deadline_ns=80 * MS),
        ),
    )
    return Scenario(
        name="perfbench-fleet-day",
        tenants=tenants,
        duration_ns=duration,
        n_nodes=3,
        n_slices=6,
        key_span=60_000,
        seed=seed,
        faults=(
            FaultBurst(node=1, at_ns=duration * 2 // 5,
                       duration_ns=duration // 6, kind="crash"),
            FaultBurst(node=2, at_ns=duration // 2,
                       duration_ns=duration // 6, kind="brownout",
                       multiplier=10.0),
        ),
        rebalance_every_ns=duration // 4,
        # Every flush writes a whole 8 MB unit.  At 1 MiB the flushes and
        # the rare compaction they trigger made each day's work swing
        # with its seed; 2 MiB flushes 3-6 times a day and never compacts.
        memtable_bytes=2 * MIB,
    )


def _fleet_planes():
    from repro.policy import Hysteresis, MetricSignal, PolicyPlan, Rule
    from repro.policy.actions import SetAdmission
    from repro.qos import (
        AdmissionConfig,
        BreakerConfig,
        ChannelQosConfig,
        QosPlan,
        WriteStallConfig,
    )

    qos = QosPlan(
        channel=ChannelQosConfig(max_inflight_ops=8),
        admission=AdmissionConfig(max_reads=64, max_writes=32, max_scans=16),
        write_stall=WriteStallConfig(),
        breaker=BreakerConfig(failure_threshold=5, reset_ns=50 * MS),
    )
    policy = PolicyPlan(
        rules=(
            Rule(
                name="tighten-on-shed",
                signal=MetricSignal("tenant.web.shed"),
                hysteresis=Hysteresis(upper=50.0, lower=10.0),
                action=SetAdmission(max_reads=32, max_writes=16),
                cooldown_ns=50 * MS,
            ),
        ),
        period_ns=20 * MS,
    )
    return qos, policy


class _ClientTap:
    """Counts client-visible bytes at each server's request handlers.

    Wraps the public ``handle_get``/``handle_put`` generators on the
    server *instances*: a call that returns counts its value bytes, and
    as goodput when it returned by its propagated deadline.
    """

    def __init__(self, sim):
        self.sim = sim
        self.read_bytes = 0
        self.write_bytes = 0
        self.good_bytes = 0

    def wrap(self, server):
        from repro.kv.common import sizeof_value

        get, put = server.handle_get, server.handle_put

        def handle_get(key, deadline_ns=None, **kwargs):
            value = yield from get(key, deadline_ns=deadline_ns, **kwargs)
            self._note(0 if value is None else sizeof_value(value), deadline_ns, False)
            return value

        def handle_put(key, value, deadline_ns=None, **kwargs):
            result = yield from put(key, value, deadline_ns=deadline_ns, **kwargs)
            self._note(sizeof_value(value), deadline_ns, True)
            return result

        server.handle_get = handle_get
        server.handle_put = handle_put

    def _note(self, nbytes, deadline_ns, is_write):
        if is_write:
            self.write_bytes += nbytes
        else:
            self.read_bytes += nbytes
        if deadline_ns is None or self.sim.now <= deadline_ns:
            self.good_bytes += nbytes


class _BlockTap:
    """Counts calls into each node's user-space block layer."""

    def __init__(self):
        self.reads = 0
        self.writes = 0

    def wrap(self, block_layer):
        read, write, write_batch = (
            block_layer.read, block_layer.write, block_layer.write_batch
        )

        def counted_read(*args, **kwargs):
            self.reads += 1
            return read(*args, **kwargs)

        def counted_write(*args, **kwargs):
            self.writes += 1
            return write(*args, **kwargs)

        def counted_write_batch(items):
            items = list(items)
            self.writes += len(items)
            return write_batch(items)

        block_layer.read = counted_read
        block_layer.write = counted_write
        block_layer.write_batch = counted_write_batch


def fleet_day(seed: int, size: str = "full"):
    """Independent open-loop days on three SDF nodes, pooled.

    Flushes, compactions and migrations are few and lumpy, so one short
    day's work swings with its seed; pooling ``days`` independent days
    (scenario seeds ``seed * days + i``) steadies every metric.  Every
    day's cluster is built during set-up; the measured phase runs them
    one after another.
    """
    days = FLEET_SIZES[size][0]
    built = [_fleet_one_day(seed * days + day, size) for day in range(days)]
    setup_s = sum(day_setup_s for day_setup_s, _ in built)

    def measure(profile) -> Episode:
        return _pool_days([measure_day(profile) for _, measure_day in built])

    return setup_s, measure


def _pool_days(parts) -> Episode:
    """One episode from the measured phases of independent days."""
    counts = {}
    for part in parts:
        for name, value in part.counts.items():
            counts[name] = counts.get(name, 0) + value
    counts["channel.busy_frac"] = sum(
        p.counts["channel.busy_frac"] * p.counts["sim.end_ms"] for p in parts
    ) / counts["sim.end_ms"]
    samples = tuple(
        [s for p in parts for s in p.device_samples[kind]] for kind in (0, 1)
    )
    _add_device_tails(counts, samples)

    def total(name):
        return sum(getattr(p, name) for p in parts)

    return Episode(
        run_s=total("run_s"),
        attempted=total("attempted"),
        completed=total("completed"),
        failed=total("failed"),
        latencies_ns=[s for p in parts for s in p.latencies_ns],
        window_ns=total("window_ns"),
        client_bytes=total("client_bytes"),
        client_write_bytes=total("client_write_bytes"),
        nand_program_bytes=total("nand_program_bytes"),
        good=total("good"),
        events=total("events"),
        counts=counts,
        checks={
            name: all(p.checks[name] for p in parts) for name in parts[0].checks
        },
        extra={"days": [p.extra["report"] for p in parts]},
    )


def _fleet_one_day(seed: int, size: str):
    """One open-loop two-tenant day: diurnal wave, flash crowd, crash
    and brownout bursts, QoS + obs + policy + rebalancer attached.
    Returns (setup seconds, measure)."""
    from repro.obs import Observability
    from repro.workloads.scenarios import ScenarioRunner

    scenario = _fleet_scenario(seed, size)

    def setup():
        qos, policy = _fleet_planes()
        return ScenarioRunner(scenario, qos=qos, obs=Observability(), policy=policy)

    runner, setup_s = _timed(setup, None)

    def measure(profile) -> Episode:
        sim = runner.sim
        servers = [runner.ctrl.nodes[name] for name in sorted(runner.ctrl.nodes)]
        systems = [server.system for server in servers]
        devices = [system.device for system in systems]
        client = _ClientTap(sim)
        blocks = _BlockTap()
        for server, system in zip(servers, systems):
            client.wrap(server)
            blocks.wrap(system.block_layer)
        nand0 = _nand_totals([d.array for d in devices])
        host0 = sum(ftl.host_programs for d in devices for ftl in d.ftls)
        erase0 = sum(ftl.erase_count for d in devices for ftl in d.ftls)
        bg_erase0 = sum(s.block_layer.background_erases for s in systems)
        events0 = processed_events(sim)
        lsms = _LsmTap(servers)

        result, run_s = _timed(runner.run, profile)
        reads, programs, erases = (
            after - before
            for after, before in zip(_nand_totals([d.array for d in devices]), nand0)
        )
        host_programs = sum(ftl.host_programs for d in devices for ftl in d.ftls) - host0
        snapshot = result.snapshot
        latencies = [
            sample
            for tenant in scenario.tenants
            for sample in runner.obs.metrics.histogram(
                f"tenant.{tenant.name}.request_ns"
            ).samples
        ]
        tenants = result.tenants.values()
        offered = sum(t.offered for t in tenants)
        good = sum(t.good for t in tenants)
        completed = good + sum(t.late for t in tenants)
        engines = [engine for d in devices for engine in d.engines]
        counts, device_samples = _device_counts(
            devices, engines, [d.link for d in devices], sim.now
        )
        flushes, compactions, wal_bytes = lsms.deltas()

        def snap_sum(pattern):
            """Sum of the node-level snapshot counters matching ``pattern``."""
            regex = re.compile(pattern)
            return sum(v for k, v in snapshot.items() if regex.fullmatch(k))

        counts.update({
            "nand.page_reads": reads,
            "nand.page_programs": programs,
            "nand.block_erases": erases,
            "ftl.gc_programs": 0,
            "ftl.gc_runs": 0,
            "ftl.parity_programs": 0,
            "ftl.erases": sum(ftl.erase_count for d in devices for ftl in d.ftls) - erase0,
            "core.blk_reads": blocks.reads,
            "core.blk_writes": blocks.writes,
            "core.background_erases": sum(s.block_layer.background_erases for s in systems)
            - bg_erase0,
            "kv.flushes": flushes,
            "kv.compactions": compactions,
            "kv.wal_mb": wal_bytes / 1e6,
            "cluster.retries": sum(t.retries for t in tenants),
            "cluster.mb_migrated": runner.ctrl.bytes_migrated.value / 1e6,
            "cluster.rebalance_moves": result.rebalance_moves,
            "qos.throttled": snap_sum(r"qos\.n\d+\.ch\d+\.throttled"),
            "qos.throttle_wait_ms": snap_sum(r"qos\.n\d+\.ch\d+\.throttle_wait_ns") / 1e6,
            "qos.shed": snap_sum(r"qos\.n\d+\.shed_[a-z]+"),
            "qos.write_stalls": snap_sum(r"qos\.n\d+\.write_stalls"),
            "policy.evals": snap_sum(r"policy\.[^.]+\.evals"),
            "policy.fires": result.policy_fires,
            "faults.fired": result.faults_fired,
        })
        checks = {
            "tenant_offered_eq_good_late_shed": all(
                t.offered == t.good + t.late + t.shed for t in tenants
            ),
            "nand_programs_eq_ftl_programs": programs == host_programs,
            "faults_fired": result.faults_fired >= 2,
            "requests_completed": completed > 0,
        }
        return Episode(
            run_s=run_s,
            attempted=offered,
            completed=completed,
            failed=0,
            latencies_ns=latencies,
            window_ns=scenario.duration_ns,
            client_bytes=client.good_bytes,
            client_write_bytes=client.write_bytes,
            nand_program_bytes=programs * devices[0].page_size,
            good=good,
            events=processed_events(sim) - events0,
            counts=counts,
            checks=checks,
            extra={"report": result.to_json()},
            device_samples=device_samples,
        )

    return setup_s, measure


class _LsmTap:
    """Every LSM a node holds during the run, with its counters at the
    start: slices that migrate in arrive through ``add_slice``."""

    def __init__(self, servers):
        self.start = {}
        for server in servers:
            for slice_ in server.slices:
                self._note(slice_.lsm)
            add_slice = server.add_slice

            def counted_add(slice_, *args, _add=add_slice, **kwargs):
                self._note(slice_.lsm)
                return _add(slice_, *args, **kwargs)

            server.add_slice = counted_add

    @staticmethod
    def _totals(lsm):
        wal = lsm.wal.appended_bytes if lsm.wal is not None else 0
        return lsm.flushes, lsm.compactions, wal

    def _note(self, lsm):
        if id(lsm) not in self.start:
            self.start[id(lsm)] = (lsm, self._totals(lsm))

    def deltas(self):
        """(flushes, compactions, WAL bytes) done since the tap began."""
        sums = [0, 0, 0]
        for lsm, before in self.start.values():
            for index, (after, base) in enumerate(zip(self._totals(lsm), before)):
                sums[index] += after - base
        return tuple(sums)


WORKLOADS = {
    "sdf_write_units": sdf_write_units,
    "conv_random_rw": conv_random_rw,
    "fleet_day": fleet_day,
}

#: Set-ups timed back to back before each repetition of an untraced
#: full-size episode; their mean is one set-up sample.  On a shared
#: 2-vCPU VM the host's speed flipped between two levels every few
#: seconds, so one short set-up read either level; a sample of about a
#: second averages more.  ``conv_random_rw`` sets up for several
#: seconds, so only before its first repetition.
SETUP_BATCH = {"sdf_write_units": 1, "conv_random_rw": 0, "fleet_day": 3}
#: Repetitions an episode makes even past its time budget: two, so that
#: every deterministic count can be compared between them.
MIN_REPS = 2
