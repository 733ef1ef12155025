"""Deterministic scenario execution under virtual time.

run_scenario() builds a world (one client, the scenario's servers, delayed
in-order links, everything seeded through named substreams), drives the
closed scheduling loop to collect the measurement stream, then evaluates
every configured algorithm offline over that identical stream - so
algorithms are compared on exactly the same data regardless of which one
drove the loop.

Periodic scenarios schedule one completion-targeted operation per server at
the probe cadence; each reply is one sample. Burst scenarios repeat
(probe burst, then one completion-targeted operation) per trial and measure
the prediction error on the target operation.

Outputs: a per-sample CSV with schema
sample_index,server_id,algorithm,t_s_ns,t_e_ns,ete_ns,prediction_ns,abs_error_ns
and a gnuplot-friendly summary. Identical (scenario, seed) runs produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..client import Client, ClientError, PendingCall, operation_type, probe_operation
from ..prediction import EteSample, Prediction, PredictorState, evaluate_stream
from ..probing import BurstProbe, run_probe_plan
from ..protocol import MILLIS, Operation
from ..server import Server
from ..sim import EventLoop, Link, named_rng
from .scenario import Scenario

__all__ = [
    "CheckFailed",
    "World",
    "build_world",
    "ScenarioResult",
    "run_scenario",
    "check_world",
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
    scenario.validate()
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
            toast_time=spec.toast_time,
        )
        to_server = Link(
            loop,
            server.on_frame,
            delay=scenario.delay,
            jitter=scenario.delay_jitter,
            rng=named_rng(root, "link", sid, "down"),
            name=f"{sid}-down",
        )
        client.connect(sid, to_server.send, range_config=spec.range_config)
        servers[sid] = server
    return World(loop, client, servers, scenario)


@dataclass
class ScenarioResult:
    """One run: each server's measured calls in sample order, the offline
    predictions over them and, in burst mode, each trial's probe samples."""

    scenario: Scenario
    world: World
    outcomes: dict[str, list[PendingCall]]
    predictions: dict[str, dict[str, list[Prediction]]]
    bursts: dict[str, list[list[EteSample]]] = field(default_factory=dict)

    @property
    def samples(self) -> dict[str, list[EteSample]]:
        return {
            sid: [call.sample for call in calls] for sid, calls in self.outcomes.items()
        }

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
            abs(p.value - call.sample.ete)
            for p, call in zip(preds, self.outcomes[server_id])
        ]

    def error_stats(self, server_id: str, algorithm: str) -> tuple[int, float, int]:
        """Count, mean and max of errors(); all zero when there are none."""
        errors = self.errors(server_id, algorithm)
        if not errors:
            return 0, 0.0, 0
        return len(errors), sum(errors) / len(errors), max(errors)

    def mean_ete(self, server_id: str) -> float:
        calls = self.outcomes[server_id]
        if not calls:
            return 0.0
        return sum(call.sample.ete for call in calls) / len(calls)

    def csv_text(self) -> str:
        # Rows are written directly, as csv.writer would write them: server
        # ids are s<N>, algorithm names come from ALGORITHMS (Scenario.validate
        # checks them) and every other field is an int, so no field ever
        # needs quoting.
        rows = [",".join(CSV_HEADER) + "\n"]
        for sid, calls in self.outcomes.items():
            predictions = self.predictions[sid]
            for i, call in enumerate(calls):
                sample = call.sample
                ete = sample.ete
                head = f"{i},{sid},"
                tail = f",{sample.scheduled_time},{sample.execution_time},{ete},"
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
            for algo in s.algorithms:
                count, mean, worst = self.error_stats(sid, algo)
                lines.append(f"{sid} {algo} {count} {mean:.3f} {worst}")
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
            if op.state.value == "cancelled" and mid in executed:
                raise CheckFailed(f"{sid}: cancelled op {mid} was executed")
    if world.client.decode_errors:
        raise CheckFailed("client saw undecodable frames")


def _fan_out(
    world: World, op: Operation, desired: int, what: str
) -> dict[str, PendingCall]:
    """One rpc per server, each aligned to complete at `desired`; all ok."""
    results = world.client.coordinated_operation(
        world.servers, op, desired, align_completion=True
    )
    for sid, call in results.items():
        if isinstance(call, ClientError):
            raise CheckFailed(f"{sid}: {what} failed: {call}")
        if not call.ok:
            raise CheckFailed(f"{sid}: {what} failed with {call.error_code}")
    return results


def _drive_periodic(world: World) -> dict[str, list[PendingCall]]:
    scenario = world.scenario
    op = Operation(scenario.op)
    outcomes: dict[str, list[PendingCall]] = {sid: [] for sid in world.servers}
    first_deadline = world.loop.now() + scenario.lead
    for k in range(scenario.samples):
        desired = first_deadline + k * scenario.period
        for sid, call in _fan_out(world, op, desired, f"sample {k}").items():
            outcomes[sid].append(call)
    return outcomes


def _drive_burst(world: World) -> tuple[dict, dict]:
    scenario = world.scenario
    client = world.client
    op = Operation(scenario.op)
    rpc_type = operation_type(op)
    probe_op = probe_operation(rpc_type)
    outcomes: dict[str, list[PendingCall]] = {sid: [] for sid in world.servers}
    bursts: dict[str, list[list[EteSample]]] = {sid: [] for sid in world.servers}
    for trial in range(scenario.trials):
        for sid in world.servers:
            client.reset_predictor(sid, rpc_type)
            run = run_probe_plan(
                client,
                sid,
                BurstProbe(scenario.burst_size, scenario.period),
                operation=probe_op,
            )
            if not run.samples:
                raise CheckFailed(f"{sid}: trial {trial} burst produced no samples")
            bursts[sid].append(run.samples)
        desired = world.loop.now() + scenario.lead
        for sid, call in _fan_out(world, op, desired, f"trial {trial} target").items():
            outcomes[sid].append(call)
    return outcomes, bursts


def _burst_predictions(
    bursts: list[list[EteSample]], algorithms, window: int
) -> dict[str, list[Prediction]]:
    out: dict[str, list[Prediction]] = {}
    for algo in algorithms:
        preds = []
        for burst_samples in bursts:
            state = PredictorState(algo, window)
            for sample in burst_samples:
                state.push(sample)
            preds.append(state.predict())
        out[algo] = preds
    return out


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None) -> ScenarioResult:
    """Execute a scenario start to finish and (optionally) write its outputs."""
    world = build_world(scenario)
    if scenario.probe == "periodic":
        outcomes = _drive_periodic(world)
        bursts = {}
        predictions = {}
        for sid, calls in outcomes.items():
            samples = [call.sample for call in calls]
            predictions[sid] = {
                algo: evaluate_stream(samples, algo, scenario.window)
                for algo in scenario.algorithms
            }
    else:
        outcomes, bursts = _drive_burst(world)
        predictions = {
            sid: _burst_predictions(bursts[sid], scenario.algorithms, scenario.window)
            for sid in outcomes
        }

    result = ScenarioResult(scenario, world, outcomes, predictions, bursts)
    check_world(world)
    if out_dir is not None:
        result.write_outputs(out_dir)
    return result
