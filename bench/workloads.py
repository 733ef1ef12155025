"""The four benchmark workloads.

Each workload has a set-up (`__init__`, which ends with a fixed warm-up that
fills the predictor windows), a timed `block()` that is repeated until the
run's time is up, and a `check()` made after the timed phase. A block
returns what it measured; every correctness check works on records kept
during the block and runs after the block's timed window has closed.

Sim workloads run in virtual time, so their completion errors depend on the
seed alone; live workloads run over loopback TCP on this host's clock.
"""

from __future__ import annotations

import gc
import hashlib
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

from chronorpc.client import ClientError, ScheduleOutcome
from chronorpc.harness import ServerSpec, Scenario, build_world, check_world
from chronorpc.harness import load_scenario, run_scenario
from chronorpc.live import LiveClient, LiveServer
from chronorpc.protocol import MICROS, MILLIS, SECONDS, Operation
from chronorpc.protocol import SchedulingRangeConfig
from chronorpc.server import ExecutionModel

import oracle

NOOP = Operation("noop")


def derive(seed: int, *names: object) -> int:
    """Seed for one block, stable across processes (unlike hash())."""
    label = ":".join(str(n) for n in (seed, *names)).encode()
    return int.from_bytes(hashlib.sha256(label).digest()[:4], "big")


@dataclass
class Block:
    """What one timed block measured."""

    ops: int  # rpc replies received inside the timed window
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int = 0
    errors_ns: list[int] = field(default_factory=list)  # |T_e - T_d|
    layer: dict[str, object] = field(default_factory=dict)  # layer data kept untraced


class Timed:
    """A timed window: wall time, process CPU time (every thread) and the
    main thread's CPU time. Garbage is collected before it opens, and a
    tracer, when given, records spans only inside it."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __enter__(self):
        gc.collect()
        if self.tracer is not None:
            self.tracer.enabled = True
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        self.main_cpu = time.thread_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu
        self.main_cpu = time.thread_time() - self.main_cpu
        if self.tracer is not None:
            self.tracer.enabled = False


# -- sim-scenarios ----------------------------------------------------------

SCENARIO_FILES = ("gaussian", "spikes", "two-servers", "burst")
SCENARIO_SCALE = 2  # sample counts (periodic) and trials (burst) times this


class SimScenarios:
    """The shipped scenario files through run_scenario, plus their CSV text."""

    pooled_errors = True

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.problems: list[str] = []
        self.scenarios = [
            load_scenario(root / "scenarios" / f"{name}.txt") for name in SCENARIO_FILES
        ]
        self.csv_digest: dict[str, str] = {}
        for scenario in self.scenarios:
            run_scenario(
                replace(scenario, samples=scenario.window, trials=2)
            ).csv_text()

    def _scaled(self, scenario: Scenario, index: int) -> Scenario:
        return replace(
            scenario,
            seed=derive(self.seed, "scenarios", index),
            samples=scenario.samples * SCENARIO_SCALE,
            trials=scenario.trials * SCENARIO_SCALE,
        )

    def block(self, index: int, timed) -> Block:
        # Each scenario is timed on its own and its result dropped before the
        # next one runs: a result still referenced slows the next run.
        total = Block(0, 0.0, 0.0, 0)
        for scenario in self.scenarios:
            scenario = self._scaled(scenario, index)
            with timed() as t:
                result = run_scenario(scenario)
                text = result.csv_text()
            rpcs = sum(len(s.log) for s in result.world.servers.values())
            total.ops += rpcs
            total.attempted += rpcs
            total.wall_s += t.wall
            total.cpu_s += t.cpu
            for outcomes in result.outcomes.values():
                total.errors_ns += [abs(o.completion_error) for o in outcomes]
            for key, count in (
                ("server.ops_retained", sum(len(s.ops) for s in result.world.servers.values())),
                ("client.pending_retained", len(result.world.client._pending)),
            ):
                total.layer[key] = total.layer.get(key, 0) + count
            if index == 0:
                self.csv_digest[scenario.name] = hashlib.sha256(text.encode()).hexdigest()
            del result, text
        return total

    def check(self) -> dict[str, float]:
        """Re-run block 0 and check it against the method's own rules.

        Returns the mean absolute error of each algorithm over that run,
        which depends on the seed alone.
        """
        errors: dict[str, list[int]] = {}
        for scenario in self.scenarios:
            scenario = self._scaled(scenario, 0)
            result = run_scenario(scenario)
            digest = hashlib.sha256(result.csv_text().encode()).hexdigest()
            if digest != self.csv_digest.get(scenario.name):
                self.problems.append(f"{scenario.name}: CSV differs between two runs")
            check_world(result.world)
            self._check_samples(scenario, result)
            for sid in result.samples:
                for algo in scenario.algorithms:
                    errors.setdefault(algo, []).extend(result.errors(sid, algo))
        return {algo: sum(v) / len(v) / 1e3 for algo, v in errors.items()}

    def _check_samples(self, scenario: Scenario, result) -> None:
        name = scenario.name
        for sid, samples in result.samples.items():
            outcomes = result.outcomes[sid]
            for outcome, sample in zip(outcomes, samples, strict=True):
                if outcome.scheduled_time != (
                    outcome.desired_completion - outcome.prediction.value
                ):
                    self.problems.append(f"{name}/{sid}: scheduled != T_d - prediction")
                if (sample.scheduled_time, sample.execution_time) != (
                    outcome.scheduled_time,
                    outcome.execution_time,
                ) or sample.ete != sample.execution_time - sample.scheduled_time:
                    self.problems.append(f"{name}/{sid}: sample != T_e - T_s")
            if scenario.probe == "periodic":
                streams = [[s.ete for s in samples]]
            else:
                # Each trial predicts from its own burst only; a placeholder
                # offset makes the oracle emit the prediction after the burst.
                streams = [[s.ete for s in burst] + [0] for burst in result.bursts[sid]]
            for algo in scenario.algorithms:
                expected = []
                for stream in streams:
                    preds = oracle.predictions(stream, algo, scenario.window)
                    expected += preds if scenario.probe == "periodic" else preds[-1:]
                got = [p.raw for p in result.predictions[sid][algo]]
                if len(got) != len(expected) or any(
                    abs(a - b) > 1.0 for a, b in zip(got, expected)
                ):
                    self.problems.append(f"{name}/{sid}/{algo}: offline predictions differ")


# -- sim-coordinated ------------------------------------------------------

# Four servers with distinct execution models. s4 accepts schedules at most
# 1 s ahead, so a commit placed 2 s ahead is refused there and aborted.
COORDINATED_SERVERS = (
    ServerSpec(model=ExecutionModel(base=5 * MILLIS, sigma=0.5 * MILLIS, jitter=200 * MICROS)),
    ServerSpec(
        model=ExecutionModel(base=20 * MILLIS, sigma=2 * MILLIS, jitter=1 * MILLIS), lanes=2
    ),
    ServerSpec(
        model=ExecutionModel(
            base=10 * MILLIS, sigma=1 * MILLIS, jitter=500 * MICROS, spike_p=0.05, spike_mult=4
        )
    ),
    ServerSpec(
        model=ExecutionModel(
            base=40 * MILLIS,
            sigma=4 * MILLIS,
            jitter=2 * MILLIS,
            load_penalty=0.5,
            load_recovery=1 * SECONDS,
        ),
        range_config=SchedulingRangeConfig(sched_max_future=1 * SECONDS),
    ),
)
REFUSING_SERVER = "s4"
ROUNDS = 128  # per block
REFUSE_EVERY = 4  # every 4th commit is refused by s4
WRITE_LEAD = 100 * MILLIS
COMMIT_AHEAD = 500 * MILLIS
REFUSED_COMMIT_AHEAD = 2 * SECONDS
SNAPSHOT_AFTER_COMMIT = 200 * MILLIS
KEY = "k"


@dataclass
class Round:
    value: str
    refused: bool
    expected_read: str
    writes: dict
    commit_at: int
    commit: object  # CommitOutcome, or the ClientError atomic_commit raised
    reads: dict


class SimCoordinated:
    """Rounds of aligned writes, an all-or-nothing commit and a snapshot."""

    pooled_errors = True

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.problems: list[str] = []
        self._next = self._world(0)

    def _world(self, index: int):
        world = build_world(
            Scenario(
                name="coordinated",
                seed=derive(self.seed, "coordinated", index),
                servers=COORDINATED_SERVERS,
                algorithm="ft-average",
                delay_jitter=200 * MICROS,
            )
        )
        # Warm-up: fill each server's set-value predictor window.
        op = Operation("set-value", {"key": KEY, "value": "warm-up"})
        for _ in range(world.scenario.window):
            world.client.coordinated_operation(
                world.server_ids, op, world.loop.now() + WRITE_LEAD, align_completion=True
            )
        return world

    def block(self, index: int, timed) -> Block:
        world = self._next if self._next is not None else self._world(index)
        self._next = None
        client, loop, sids = world.client, world.loop, world.server_ids
        rounds: list[Round] = []
        committed = None
        with timed() as t:
            for r in range(ROUNDS):
                value = f"{index}.{r}"
                write = Operation("set-value", {"key": KEY, "value": value})
                writes = client.coordinated_operation(
                    sids, write, loop.now() + WRITE_LEAD, align_completion=True
                )
                refused = r % REFUSE_EVERY == REFUSE_EVERY - 1
                ahead = REFUSED_COMMIT_AHEAD if refused else COMMIT_AHEAD
                commit_at = loop.now() + ahead
                try:
                    commit = client.atomic_commit(sids, commit_at)
                except ClientError as exc:
                    commit = exc
                if not refused:
                    committed = value
                # An aborted commit returns early; read only after its instant,
                # and within s4's 1 s range.
                loop.run_until(deadline=commit_at)
                reads = client.coordinated_snapshot(
                    sids, KEY, commit_at + SNAPSHOT_AFTER_COMMIT
                )
                rounds.append(Round(value, refused, committed, writes, commit_at, commit, reads))
        n = len(sids)
        rpcs = sum(4 * n - 1 if rd.refused else 3 * n for rd in rounds)
        out = Block(rpcs, t.wall, t.cpu, rpcs)
        # Let every refused commit instant pass before looking for leaks.
        loop.run_until(deadline=rounds[-1].commit_at + REFUSED_COMMIT_AHEAD)
        out.failed = self._check_block(world, rounds, out.errors_ns)
        out.layer["server.ops_retained"] = sum(len(s.ops) for s in world.servers.values())
        out.layer["client.pending_retained"] = len(client._pending)
        return out

    def _check_block(self, world, rounds: list[Round], errors: list[int]) -> int:
        sids = world.server_ids
        failed = 0
        executed = set().union(*(s.executed_ids() for s in world.servers.values()))
        for rd in rounds:
            for sid in sids:
                w = rd.writes[sid]
                if isinstance(w, ScheduleOutcome) and w.ok:
                    errors.append(abs(w.completion_error))
                else:
                    failed += 1
                    self.problems.append(f"write {rd.value} on {sid}: {w!r}")
            failed += self._check_commit(rd, sids, executed)
            for sid in sids:
                entry = rd.reads[sid]
                if isinstance(entry, ClientError) or entry.value != rd.expected_read:
                    failed += 1
                    self.problems.append(
                        f"snapshot after {rd.value} on {sid}: {entry!r}, "
                        f"expected {rd.expected_read!r}"
                    )
        # Coordinated starts land in [at, at + jitter) on every server.
        for sid, server in world.servers.items():
            width = max(server.model.jitter, 1)
            for op in server.ops.values():
                if op.scheduled_time is None or op.t_start is None:
                    continue
                if not 0 <= op.t_start - op.scheduled_time < width:
                    failed += 1
                    self.problems.append(f"{sid}: {op.message_id} started off its instant")
        try:
            check_world(world)
        except AssertionError as exc:
            self.problems.append(str(exc))
        return failed

    def _check_commit(self, rd: Round, sids: list[str], executed: set[str]) -> int:
        c = rd.commit
        commit_ops = 2 * len(sids) - 1 if rd.refused else len(sids)
        if isinstance(c, ClientError):
            self.problems.append(f"commit {rd.value}: {c!r}")
            return commit_ops
        if not rd.refused:
            if not c.committed or not all(
                isinstance(o, ScheduleOutcome) and o.ok for o in c.outcomes.values()
            ):
                self.problems.append(f"commit {rd.value}: {c.status} {c.reason}")
                return commit_ops
            return 0
        others = set(sids) - {REFUSING_SERVER}
        ok = (
            c.status == "aborted"
            and c.reason == f"rejected: {REFUSING_SERVER}"
            and set(c.cancel_times) == others
            and all(at < rd.commit_at for at in c.cancel_times.values())
        )
        withdrawn = [c.outcomes[sid] for sid in sorted(others)]
        ok = ok and all(
            isinstance(o, ScheduleOutcome)
            and o.error_code == "cancelled"
            and o.message_id not in executed
            for o in withdrawn
        )
        if not ok:
            self.problems.append(f"refused commit {rd.value}: {c.status} {c.reason}")
            return commit_ops
        return 0

    def check(self) -> dict[str, float]:
        return {}


# -- live workloads ----------------------------------------------------------

# Runnable, but not listed in BENCHMARK.json: their completion errors follow
# the host's steal time too closely for two sets of runs to agree (README.md).

LIVE_ID = "live"
LIVE_WINDOW = 8  # warm-up rpcs per connection, one predictor window


class LiveWorkload:
    """A fresh LiveServer and LiveClient over loopback for every block."""

    pooled_errors = False

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.problems: list[str] = []
        self._next = self._open()

    def _open(self):
        server = LiveServer(LIVE_ID, model=ExecutionModel(base=0))
        client = LiveClient(algorithm="ft-average")
        try:
            client.connect(LIVE_ID, server.address)
            core = client.core
            # Scheduled for now, so each runs at once and still feeds the
            # predictor: no wait on a scheduled instant.
            warm = [core.submit(LIVE_ID, NOOP, core.now(), get_time=True) for _ in range(LIVE_WINDOW)]
            core.wait(warm, core.now() + 10 * SECONDS)
        except BaseException:
            client.close()
            server.close()
            raise
        return server, client, warm

    def block(self, index: int, timed) -> Block:
        server, client, warm = self._next if self._next is not None else self._open()
        self._next = None
        try:
            out, calls, targeted = self._drive(index, client.core, timed)
            self._check_block(server, client, warm + calls, targeted, out)
        finally:
            client.close()
            server.close()
        return out

    def _check_block(self, server, client, calls, targeted, out: Block) -> None:
        core, srv = client.core, server.core
        core.wait(calls, core.now() + 10 * SECONDS)
        bad = [c for c in calls if c.reply is None or not c.reply.ok]
        out.failed += len(bad)
        if bad:
            self.problems.append(f"{len(bad)} rpcs without an ok reply")
        if core.unmatched_messages or core.decode_errors or srv.decode_errors:
            self.problems.append("unmatched messages or undecodable frames")
        if len(srv.log) != len(calls):
            self.problems.append(f"server logged {len(srv.log)} of {len(calls)} rpcs")
        early = [
            op.message_id
            for op in srv.ops.values()
            if op.scheduled_time is not None and op.t_start < op.scheduled_time
        ]
        if early:
            self.problems.append(f"{len(early)} scheduled ops started early")
        late = []
        for c in targeted:
            if c.reply is not None and c.reply.ok:
                out.errors_ns.append(abs(c.reply.execution_time - c.desired_completion))
                late.append(srv.ops[c.message_id].t_start - c.scheduled_time)
        out.layer["live.timer_lateness_ns"] = late
        out.layer["server.ops_retained"] = len(srv.ops)
        out.layer["client.pending_retained"] = len(core._pending)

    def check(self) -> dict[str, float]:
        return {}


PIPELINE_RPCS = 1500  # closed-loop noop rpcs per block
IN_FLIGHT = 16
TARGETED_EVERY = 5  # one completion-targeted rpc beside every 5th noop
TARGETED_LEAD = 20 * MILLIS


class LivePipelined(LiveWorkload):
    """Closed loop of immediate noops with a sparse completion-targeted stream."""

    def _drive(self, index: int, core, timed):
        phase = random.Random(derive(self.seed, "pipelined", index)).randrange(TARGETED_EVERY)
        calls, targeted = [], []
        inflight: deque = deque()
        with timed() as t:
            threads = threading.active_count()
            for i in range(PIPELINE_RPCS):
                if len(inflight) >= IN_FLIGHT:
                    oldest = inflight.popleft()
                    core.wait([oldest], core.now() + 10 * SECONDS)
                call = core.submit(LIVE_ID, NOOP)
                inflight.append(call)
                calls.append(call)
                if i % TARGETED_EVERY == phase:
                    call = core.submit_at_completion(LIVE_ID, NOOP, core.now() + TARGETED_LEAD)
                    targeted.append(call)
            core.wait(inflight, core.now() + 10 * SECONDS)
        out = Block(PIPELINE_RPCS, t.wall, t.cpu, PIPELINE_RPCS + len(targeted))
        out.layer["live.threads"] = threads
        out.layer["live.main_cpu_s"] = t.main_cpu
        return out, calls + targeted, targeted


PACED_RATE = 500  # rpc/s
PACED_RPCS = 500  # per block
PACED_LEAD_MIN = 15 * MILLIS
PACED_LEAD_MAX = 25 * MILLIS


class LivePaced(LiveWorkload):
    """Open loop at a fixed rate; every rpc targets a completion instant."""

    def _drive(self, index: int, core, timed):
        rng = random.Random(derive(self.seed, "paced", index))
        leads = [rng.randrange(PACED_LEAD_MIN, PACED_LEAD_MAX) for _ in range(PACED_RPCS)]
        period = SECONDS // PACED_RATE
        calls, generator_late = [], []
        with timed() as t:
            threads = threading.active_count()
            first_due = time.time_ns() + 1 * MILLIS
            for i, lead in enumerate(leads):
                due = first_due + i * period
                wait = due - time.time_ns()
                if wait > 0:
                    time.sleep(wait / 1e9)
                generator_late.append(time.time_ns() - due)
                # The target counts from when the rpc was due, not when sent.
                calls.append(core.submit_at_completion(LIVE_ID, NOOP, due + lead))
            core.wait(calls, core.now() + 10 * SECONDS)
        out = Block(PACED_RPCS, t.wall, t.cpu, PACED_RPCS)
        out.layer["live.threads"] = threads
        out.layer["live.main_cpu_s"] = t.main_cpu
        out.layer["live.generator_lateness_ns"] = generator_late
        return out, calls, calls


WORKLOADS = {
    "sim-scenarios": SimScenarios,
    "sim-coordinated": SimCoordinated,
    "live-pipelined": LivePipelined,
    "live-paced": LivePaced,
}
