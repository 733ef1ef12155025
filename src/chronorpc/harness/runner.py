"""Deterministic scenario execution under virtual time.

run_scenario() builds a world (one client, the scenario's servers, delayed
in-order links, everything seeded through named substreams) and drives the
closed scheduling loop. Every rule reads the one window the client keeps
for each (server, op-type), and each measured rpc records every scored
rule's prediction just before it is sent. So rules are scored on the same
samples, whichever one drove the loop, and on what the client knew when it
sent each rpc: a pipelined scenario would score what was achievable.

Periodic scenarios schedule one completion-targeted operation per server at
the probe cadence; each reply is one sample. Burst scenarios repeat
(probe burst, then one completion-targeted operation) per trial, from a
fresh predictor each time, and score the target operation.

Outputs: a per-sample CSV with schema
sample_index,server_id,algorithm,t_s_ns,t_e_ns,ete_ns,prediction_ns,abs_error_ns
and a gnuplot-friendly summary. Identical (scenario, seed) runs produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..client import Client, PendingCall, operation_type, probe_operation
# evaluate_stream is not called here, but bench/tracing.py wraps it here too.
from ..prediction import Prediction, evaluate_stream
from ..probing import BurstProbe, run_probe_plan
from ..protocol import MILLIS, Operation
from ..server import OpState, Server
from ..sim import EventLoop, Link, named_rng
from .scenario import Scenario

__all__ = [
    "CheckFailed",
    "World",
    "build_world",
    "ScenarioResult",
    "run_scenario",
    "check_world",
    "error_score",
    "CSV_HEADER",
]

CSV_HEADER = [
    "sample_index",
    "server_id",
    "algorithm",
    "t_s_ns",
    "t_e_ns",
    "ete_ns",
    "prediction_ns",
    "abs_error_ns",
]


class CheckFailed(AssertionError):
    """A scenario-level invariant did not hold."""


@dataclass
class World:
    loop: EventLoop
    client: Client
    servers: dict[str, Server]
    scenario: Scenario

    @property
    def server_ids(self) -> list[str]:
        return list(self.servers)


def build_world(scenario: Scenario, seed: int | None = None) -> World:
    """Wire up client, servers and links for a scenario.

    All randomness (per-server execution draws, per-link delay jitter) comes
    from named substreams of the single root seed, so adding a server leaves
    every existing stream untouched.
    """
    root = scenario.seed if seed is None else seed
    loop = EventLoop()
    rtt = 2 * (scenario.delay + scenario.delay_jitter)
    client = Client(
        loop,
        algorithm=scenario.algorithm,
        window=scenario.window,
        rtt_bound=max(rtt, 50 * MILLIS),
        dispatch_lead=scenario.lead,
    )
    servers: dict[str, Server] = {}
    for index, spec in enumerate(scenario.servers):
        sid = scenario.server_id(index)
        to_client = Link(
            loop,
            client.on_frame,
            delay=scenario.delay,
            jitter=scenario.delay_jitter,
            rng=named_rng(root, "link", sid, "up"),
            name=f"{sid}-up",
        )
        server = Server(
            sid,
            scheduler=loop,
            send=to_client.send,
            model=spec.model,
            range_config=spec.range_config,
            rng=named_rng(root, "server", sid),
            lanes=spec.lanes,
        )
        to_server = Link(
            loop,
            server.on_frame,
            delay=scenario.delay,
            jitter=scenario.delay_jitter,
            rng=named_rng(root, "link", sid, "down"),
            name=f"{sid}-down",
        )
        client.connect(sid, to_server.send)
        servers[sid] = server
    return World(loop, client, servers, scenario)


def error_score(errors: list[int]) -> tuple[int, str, int]:
    """Count, mean (to three decimals) and max of a list of absolute errors;
    all zero when it is empty. Every report scores a rule with this."""
    mean = sum(errors) / len(errors) if errors else 0.0
    return len(errors), f"{mean:.3f}", max(errors, default=0)


@dataclass
class ScenarioResult:
    """One run: per server, the measured calls in sample order, each rule's
    predictions as they were sent and, in burst mode, each trial's probe
    calls that measured an offset. Each call is its own sample: its
    scheduled_time, execution_time and ete are T_s, T_e and T_e - T_s."""

    scenario: Scenario
    world: World
    outcomes: dict[str, list[PendingCall]]
    predictions: dict[str, dict[str, list[Prediction]]]
    bursts: dict[str, list[list[PendingCall]]] = field(default_factory=dict)

    @property
    def samples(self) -> dict[str, list[PendingCall]]:
        """The same lists as outcomes.

        Kept for its two readers: bench/workloads.py and acceptance test 06
        (tests/test_acceptance.py), which reads burst.samples["s1"].
        """
        return self.outcomes

    @property
    def spike_indices(self) -> dict[str, list[int]]:
        """Per server, the sample indices whose execution the server spiked."""
        return {
            sid: [
                i
                for i, call in enumerate(calls)
                if self.world.servers[sid].ops[call.message_id].spiked
            ]
            for sid, calls in self.outcomes.items()
        }

    def errors(self, server_id: str, algorithm: str) -> list[int]:
        preds = self.predictions[server_id][algorithm]
        return [
            abs(p.value - call.ete)
            for p, call in zip(preds, self.outcomes[server_id])
        ]

    def rule_rows(self, server_id: str, *labels: object) -> list[tuple]:
        """One row per scored rule: the labels, the rule, then error_score()
        of its errors on this server."""
        return [
            (*labels, algo, *error_score(self.errors(server_id, algo)))
            for algo in self.scenario.algorithms
        ]

    def mean_ete(self, server_id: str) -> float:
        calls = self.outcomes[server_id]
        if not calls:
            return 0.0
        return sum(call.ete for call in calls) / len(calls)

    def csv_text(self) -> str:
        # Rows are written directly, as csv.writer would write them: server
        # ids are s<N>, algorithm names come from ALGORITHMS (Scenario checks
        # them) and every other field is an int, so no field ever
        # needs quoting.
        rows = [",".join(CSV_HEADER) + "\n"]
        for sid, calls in self.outcomes.items():
            predictions = self.predictions[sid]
            for i, call in enumerate(calls):
                t_s = call.scheduled_time
                t_e = call.execution_time
                ete = t_e - t_s
                head = f"{i},{sid},"
                tail = f",{t_s},{t_e},{ete},"
                for algo in self.scenario.algorithms:
                    value = predictions[algo][i].value
                    rows.append(f"{head}{algo}{tail}{value},{abs(value - ete)}\n")
        return "".join(rows)

    def summary_text(self) -> str:
        s = self.scenario
        lines = [
            f"# scenario {s.name} seed {s.seed} probe {s.probe} "
            f"period_ns {s.period} window {s.window} driving {s.algorithm}",
            "# server algorithm count mean_abs_error_ns max_abs_error_ns",
        ]
        for sid, calls in self.outcomes.items():
            lines += [" ".join(map(str, row)) for row in self.rule_rows(sid, sid)]
            lines.append(f"{sid} mean-ete {len(calls)} {self.mean_ete(sid):.3f} -")
        return "\n".join(lines) + "\n"

    def write_outputs(self, out_dir: str | Path) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        samples_path = out / "samples.csv"
        summary_path = out / "summary.txt"
        samples_path.write_text(self.csv_text(), encoding="utf-8")
        summary_path.write_text(self.summary_text(), encoding="utf-8")
        return samples_path, summary_path


def check_world(world: World) -> None:
    """Post-run structural invariants shared by every scenario."""
    for sid, server in world.servers.items():
        executed = server.executed_ids()
        leaked = server.rejected_ids & executed
        if leaked:
            raise CheckFailed(f"{sid}: rejected rpcs reached the log: {sorted(leaked)}")
        ends = [op.t_end for op in server.log]
        if ends != sorted(ends):
            raise CheckFailed(f"{sid}: execution log is not ordered by completion")
        for mid, op in server.ops.items():
            if op.state is OpState.CANCELLED and mid in executed:
                raise CheckFailed(f"{sid}: cancelled op {mid} was executed")
    if world.client.decode_errors:
        raise CheckFailed("client saw undecodable frames")


def _fan_out(result: ScenarioResult, op: Operation, desired: int, what: str) -> None:
    """One rpc per server, each aligned to complete at `desired`; all ok.

    Every other rule's prediction is recorded first; no event runs before
    the sends, so each is what the client knew when its rpc went out. The
    driving rule's is the one the call was scheduled with.
    """
    client = result.world.client
    driving = client.algorithm
    rpc_type = operation_type(op)
    for sid, per_rule in result.predictions.items():
        state = client.predictor(sid, rpc_type)
        for algo, preds in per_rule.items():
            if algo != driving:
                preds.append(state.predict(algo))
    calls = client.coordinated_operation(
        result.world.servers, op, desired, align_completion=True
    )
    for sid, call in calls.items():
        if call.error is not None:
            raise CheckFailed(f"{sid}: {what} failed: {call.error}")
        if not call.ok:
            raise CheckFailed(f"{sid}: {what} failed with {call.error_code}")
        result.outcomes[sid].append(call)
        if driving in result.predictions[sid]:
            result.predictions[sid][driving].append(call.prediction)


def _drive_periodic(result: ScenarioResult) -> None:
    world, scenario = result.world, result.scenario
    op = Operation(scenario.op)
    first_deadline = world.loop.now() + scenario.lead
    for k in range(scenario.samples):
        _fan_out(result, op, first_deadline + k * scenario.period, f"sample {k}")


def _drive_burst(result: ScenarioResult) -> None:
    world, scenario = result.world, result.scenario
    op = Operation(scenario.op)
    rpc_type = operation_type(op)
    probe_op = probe_operation(rpc_type)
    result.bursts = {sid: [] for sid in world.servers}
    for trial in range(scenario.trials):
        for sid in world.servers:
            world.client.reset_predictor(sid, rpc_type)
        for sid, bursts in result.bursts.items():
            calls = run_probe_plan(
                world.client,
                sid,
                BurstProbe(scenario.burst_size, scenario.period),
                operation=probe_op,
            )
            measured = [call for call in calls if call.ete is not None]
            if not measured:
                raise CheckFailed(f"{sid}: trial {trial} burst produced no samples")
            bursts.append(measured)
        desired = world.loop.now() + scenario.lead
        _fan_out(result, op, desired, f"trial {trial} target")


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute a scenario start to finish; write_outputs() writes its files."""
    world = build_world(scenario)
    result = ScenarioResult(
        scenario,
        world,
        outcomes={sid: [] for sid in world.servers},
        predictions={
            sid: {algo: [] for algo in scenario.algorithms} for sid in world.servers
        },
    )
    if scenario.probe == "periodic":
        _drive_periodic(result)
    else:
        _drive_burst(result)
    check_world(world)
    return result
