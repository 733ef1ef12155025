"""Self-checking walkthroughs of the coordination features.

Each demo wires a small world, runs one choreography, verifies the
behaviour it demonstrates (raising DemoFailure otherwise) and returns the
lines it wants printed. The cli exposes them under `chronorpc demo`.
"""

from __future__ import annotations

from ..protocol import MILLIS, SECONDS, Operation, SchedulingRangeConfig
from ..server import ExecutionModel
from .scenario import Scenario, ServerSpec
from .runner import CheckFailed, World, build_world

__all__ = [
    "DemoFailure",
    "demo_coordinated",
    "demo_snapshot",
    "demo_commit",
    "demo_commit_abort",
    "DEMOS",
]


class DemoFailure(CheckFailed):
    """A demo observed behaviour it was supposed to rule out.

    A CheckFailed, so the cli reports it as it reports a failed scenario check.
    """


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DemoFailure(message)


def _ms(ns: int) -> str:
    return f"{ns / 1e6:.3f} ms"


def _world(seed: int, specs: tuple[ServerSpec, ...], name: str) -> World:
    return build_world(Scenario(name=name, seed=seed, servers=specs))


def demo_coordinated(seed: int = 0) -> list[str]:
    """Three servers start the same operation at the same instant."""
    model = ExecutionModel(base=20 * MILLIS, sigma=1 * MILLIS, jitter=2 * MILLIS)
    world = _world(seed, (ServerSpec(model=model),) * 3, "demo-coordinated")
    client = world.client
    target = world.loop.now() + 2 * SECONDS
    results = client.coordinated_operation(world.server_ids, Operation("noop"), target)

    lines = [f"coordinated start requested for t={target} ns on 3 servers"]
    for sid in world.server_ids:
        outcome = results[sid]
        _require(outcome.ok, f"{sid}: coordinated operation failed: {outcome!r}")
        log = world.servers[sid].log
        _require(len(log) == 1, f"{sid}: expected exactly one execution")
        offset = log[0].t_start - target
        _require(
            0 <= offset < model.jitter,
            f"{sid}: start drifted {offset} ns from the common instant",
        )
        lines.append(f"  {sid} started {_ms(offset)} after t (within scheduler jitter)")
    lines.append("all starts landed inside the jitter bound")
    return lines


def demo_snapshot(seed: int = 0) -> list[str]:
    """A same-instant read is consistent even while a write is queued.

    One server has an updated value committed one second after the snapshot
    instant; the snapshot still observes the old state everywhere.
    """
    model = ExecutionModel(base=10 * MILLIS)
    world = _world(seed, (ServerSpec(model=model),) * 3, "demo-snapshot")
    client = world.client

    before: dict[str, str] = {}
    for i, sid in enumerate(world.server_ids):
        before[sid] = str(100 + i)
        world.servers[sid].state.running["counter"] = before[sid]

    # Stage the new value on s1 now, commit it only after the snapshot time.
    client.schedule_raw(
        "s1", Operation("set-value", {"key": "counter", "value": "999"}), get_time=False
    )
    snapshot_at = world.loop.now() + 2 * SECONDS
    commit_at = snapshot_at + 1 * SECONDS
    commit_call = client.submit("s1", Operation("commit"), commit_at, get_time=True)

    snap = client.coordinated_snapshot(world.server_ids, "counter", snapshot_at)
    lines = [f"snapshot of 'counter' at t={snapshot_at} ns, write commits 1 s later"]
    for sid in world.server_ids:
        entry = snap[sid]
        _require(entry.ok, f"{sid}: snapshot failed: {entry!r}")
        _require(
            entry.value == before[sid],
            f"{sid}: snapshot saw {entry.value!r}, expected pre-write {before[sid]!r}",
        )
        lines.append(f"  {sid} read {entry.value} (completed at {entry.execution_time} ns)")

    client.resolve(commit_call)
    _require(
        world.servers["s1"].state.running["counter"] == "999",
        "s1: commit after the snapshot did not apply",
    )
    lines.append("snapshot was consistent; the later commit applied afterwards")
    return lines


def demo_commit(seed: int = 0) -> list[str]:
    """Five servers promote staged state at exactly the same instant."""
    model = ExecutionModel(base=15 * MILLIS)
    world = _world(seed, (ServerSpec(model=model),) * 5, "demo-commit")
    client = world.client

    for sid in world.server_ids:
        client.schedule_raw(
            sid, Operation("set-value", {"key": "mode", "value": "active"}),
            get_time=False,
        )
    target = world.loop.now() + 2 * SECONDS
    outcome = client.atomic_commit(world.server_ids, target)

    _require(outcome.committed, f"commit aborted: {outcome.reason}")
    lines = [f"atomic commit at t={target} ns across 5 servers: {outcome.status}"]
    for sid in world.server_ids:
        per_server = outcome.outcomes[sid]
        _require(per_server.ok, f"{sid}: commit rpc failed: {per_server!r}")
        entry = next(
            e for e in world.servers[sid].log if e.message_id == per_server.message_id
        )
        _require(
            entry.t_start == target,
            f"{sid}: commit ran at {entry.t_start}, not {target}",
        )
        _require(
            world.servers[sid].state.running.get("mode") == "active",
            f"{sid}: staged value was not promoted",
        )
        accepted_at = outcome.accept_times[sid]
        _require(
            accepted_at < target - outcome.margin,
            f"{sid}: acceptance arrived inside the decision margin",
        )
        lines.append(f"  {sid} accepted at {accepted_at} ns, executed at exactly t")
    lines.append("all 5 executions landed on the commit instant")
    return lines


def demo_commit_abort(seed: int = 0) -> list[str]:
    """One refusing server makes the whole commit roll back in time."""
    model = ExecutionModel(base=15 * MILLIS)
    narrow = SchedulingRangeConfig(sched_max_future=1 * SECONDS)
    specs = (ServerSpec(model=model),) * 4 + (
        ServerSpec(model=model, range_config=narrow),
    )
    world = _world(seed, specs, "demo-commit-abort")
    client = world.client

    for sid in world.server_ids:
        client.schedule_raw(
            sid, Operation("set-value", {"key": "mode", "value": "active"}),
            get_time=False,
        )
    staged_executions = {sid: len(world.servers[sid].log) for sid in world.server_ids}

    # 2 s ahead is outside s5's 1 s acceptance horizon, so s5 must refuse.
    target = world.loop.now() + 2 * SECONDS
    outcome = client.atomic_commit(world.server_ids, target)

    _require(outcome.status == "aborted", "commit unexpectedly went through")
    _require("s5" in (outcome.reason or ""), f"unexpected abort reason: {outcome.reason}")
    lines = [
        f"atomic commit at t={target} ns: {outcome.status} ({outcome.reason})",
    ]
    world.loop.run_until(deadline=target + 1 * SECONDS)
    for sid in world.server_ids:
        _require(
            len(world.servers[sid].log) == staged_executions[sid],
            f"{sid}: something executed despite the abort",
        )
        _require(
            world.servers[sid].state.running.get("mode") != "active",
            f"{sid}: aborted commit still promoted state",
        )
    for sid, confirmed_at in outcome.cancel_times.items():
        _require(
            confirmed_at < target,
            f"{sid}: cancellation confirmed only after the commit instant",
        )
        lines.append(f"  {sid} cancellation confirmed {_ms(target - confirmed_at)} before t")
    _require(len(outcome.cancel_times) == 4, "expected 4 confirmed cancellations")
    lines.append("no server executed; every participant was withdrawn in time")
    return lines


DEMOS = {
    "coordinated": demo_coordinated,
    "snapshot": demo_snapshot,
    "commit": demo_commit,
    "commit-abort": demo_commit_abort,
}
