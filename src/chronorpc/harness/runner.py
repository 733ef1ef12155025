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

import io
import csv
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
    "AlgorithmStats",
    "ServerReport",
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


@dataclass(frozen=True)
class AlgorithmStats:
    algorithm: str
    count: int
    mean_abs_error: float
    max_abs_error: int
    errors: tuple[int, ...]


@dataclass(frozen=True)
class ServerReport:
    server_id: str
    sample_count: int
    mean_ete: float
    stats: dict[str, AlgorithmStats]


@dataclass
class ScenarioResult:
    scenario: Scenario
    world: World
    samples: dict[str, list[EteSample]]
    outcomes: dict[str, list[PendingCall]]
    predictions: dict[str, dict[str, list[Prediction]]]
    reports: dict[str, ServerReport] = field(default_factory=dict)
    spike_indices: dict[str, list[int]] = field(default_factory=dict)
    bursts: dict[str, list[list[EteSample]]] = field(default_factory=dict)

    def errors(self, server_id: str, algorithm: str) -> list[int]:
        preds = self.predictions[server_id][algorithm]
        return [
            abs(p.value - s.ete)
            for p, s in zip(preds, self.samples[server_id])
        ]

    def csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for sid in self.samples:
            for i, sample in enumerate(self.samples[sid]):
                for algo in self.scenario.algorithms:
                    pred = self.predictions[sid][algo][i]
                    writer.writerow(
                        [
                            i,
                            sid,
                            algo,
                            sample.scheduled_time,
                            sample.execution_time,
                            sample.ete,
                            pred.value,
                            abs(pred.value - sample.ete),
                        ]
                    )
        return out.getvalue()

    def summary_text(self) -> str:
        s = self.scenario
        lines = [
            f"# scenario {s.name} seed {s.seed} probe {s.probe} "
            f"period_ns {s.period} window {s.window} driving {s.algorithm}",
            "# server algorithm count mean_abs_error_ns max_abs_error_ns",
        ]
        for sid, report in self.reports.items():
            for algo in s.algorithms:
                stats = report.stats[algo]
                lines.append(
                    f"{sid} {algo} {stats.count} "
                    f"{stats.mean_abs_error:.3f} {stats.max_abs_error}"
                )
            lines.append(f"{sid} mean-ete {report.sample_count} {report.mean_ete:.3f} -")
        return "\n".join(lines) + "\n"

    def write_outputs(self, out_dir: str | Path) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        samples_path = out / "samples.csv"
        summary_path = out / "summary.txt"
        samples_path.write_text(self.csv_text(), encoding="utf-8")
        summary_path.write_text(self.summary_text(), encoding="utf-8")
        return samples_path, summary_path


def _stats_for(algorithm: str, preds: list[Prediction], samples: list[EteSample]) -> AlgorithmStats:
    errors = tuple(abs(p.value - s.ete) for p, s in zip(preds, samples))
    if errors:
        mean = sum(errors) / len(errors)
        worst = max(errors)
    else:
        mean, worst = 0.0, 0
    return AlgorithmStats(algorithm, len(errors), mean, worst, errors)


def _build_reports(result: ScenarioResult) -> None:
    for sid, samples in result.samples.items():
        stats = {
            algo: _stats_for(algo, result.predictions[sid][algo], samples)
            for algo in result.scenario.algorithms
        }
        mean_ete = sum(s.ete for s in samples) / len(samples) if samples else 0.0
        result.reports[sid] = ServerReport(sid, len(samples), mean_ete, stats)


def _spiked_indices(server: Server, outcomes: list[PendingCall]) -> list[int]:
    return [i for i, o in enumerate(outcomes) if server.ops[o.message_id].spiked]


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


def _drive_periodic(world: World) -> tuple[dict, dict]:
    scenario = world.scenario
    op = Operation(scenario.op)
    outcomes: dict[str, list[PendingCall]] = {sid: [] for sid in world.servers}
    samples: dict[str, list[EteSample]] = {sid: [] for sid in world.servers}
    first_deadline = world.loop.now() + scenario.lead
    for k in range(scenario.samples):
        desired = first_deadline + k * scenario.period
        for sid, call in _fan_out(world, op, desired, f"sample {k}").items():
            outcomes[sid].append(call)
            samples[sid].append(call.sample)
    return outcomes, samples


def _drive_burst(world: World) -> tuple[dict, dict, dict]:
    scenario = world.scenario
    client = world.client
    op = Operation(scenario.op)
    rpc_type = operation_type(op)
    probe_op = probe_operation(rpc_type)
    outcomes: dict[str, list[PendingCall]] = {sid: [] for sid in world.servers}
    samples: dict[str, list[EteSample]] = {sid: [] for sid in world.servers}
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
            samples[sid].append(call.sample)
    return outcomes, samples, bursts


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
    scenario.validate()
    world = build_world(scenario)
    if scenario.probe == "periodic":
        outcomes, samples = _drive_periodic(world)
        bursts = {}
        predictions = {
            sid: {
                algo: evaluate_stream(samples[sid], algo, scenario.window)
                for algo in scenario.algorithms
            }
            for sid in samples
        }
    else:
        outcomes, samples, bursts = _drive_burst(world)
        predictions = {
            sid: _burst_predictions(bursts[sid], scenario.algorithms, scenario.window)
            for sid in samples
        }

    result = ScenarioResult(scenario, world, samples, outcomes, predictions)
    result.bursts = bursts
    result.spike_indices = {
        sid: _spiked_indices(world.servers[sid], outcomes[sid]) for sid in outcomes
    }
    _build_reports(result)
    check_world(world)
    if out_dir is not None:
        result.write_outputs(out_dir)
    return result
