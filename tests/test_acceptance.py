"""Acceptance gate: the ten go/no-go checks for this package.

Each test prints exactly one PASS/FAIL line on the real stdout (bypassing
capture) so the verdicts are visible in any pytest run. The checks
deliberately re-derive expectations with brute-force oracles where one
exists instead of trusting package internals.
"""

import random
import statistics
import sys
from contextlib import contextmanager

import pytest

from chronorpc.client import Client, Operation
from chronorpc.harness import (
    Scenario,
    ServerSpec,
    run_scenario,
)
from chronorpc.harness.experiments import spike_window_split
from chronorpc.prediction import EteSample, evaluate_stream
from chronorpc.probing import (
    PeriodSelectionConfig,
    select_period_burst,
    select_period_periodic,
)
from chronorpc.protocol import (
    MILLIS,
    SECONDS,
    MalformedFrame,
    MissingField,
    SchedulingRangeConfig,
    UnknownType,
    Verdict,
    decode,
    encode,
    validate_schedule,
)
from chronorpc.server import ExecutionModel, Server
from chronorpc.sim import EventLoop, Link, named_rng

from _reference import ref_prediction_series
from _wire import random_message

WINDOW = 8


@pytest.fixture
def check(capsys):
    """Yields a context manager that prints one visible verdict line."""

    def _verdict(number, title, verdict):
        with capsys.disabled():  # punch through fd-level capture
            sys.stdout.write(f"acceptance {number:02d} {title}: {verdict}\n")
            sys.stdout.flush()

    @contextmanager
    def criterion(number, title):
        try:
            yield
        except BaseException:
            _verdict(number, title, "FAIL")
            raise
        _verdict(number, title, "PASS")

    return criterion


# ---------------------------------------------------------------------------
# scenario builders (criterion 9 reruns all of these from scratch)

def constant_scenario():
    return Scenario(
        name="accept-constant",
        seed=11,
        period=1 * SECONDS,
        samples=50,
        algorithm="average",
        servers=(ServerSpec(model=ExecutionModel(base=25 * MILLIS)),),
    )


def gaussian_scenario():
    return Scenario(
        name="accept-gaussian",
        seed=7,
        period=1 * SECONDS,
        samples=1000,
        window=WINDOW,
        algorithm="average",
        servers=(
            ServerSpec(model=ExecutionModel(base=30 * MILLIS, sigma=3 * MILLIS)),
        ),
    )


def spike_scenario(seed):
    model = ExecutionModel(
        base=30 * MILLIS, sigma=3 * MILLIS, spike_p=0.02, spike_mult=10.0
    )
    return Scenario(
        name=f"accept-spikes-{seed}",
        seed=seed,
        period=1 * SECONDS,
        samples=2000,
        window=WINDOW,
        algorithm="ft-average",
        servers=(ServerSpec(model=model),),
    )


def burst_scenario():
    return Scenario(
        name="accept-burst",
        seed=7,
        probe="burst",
        period=1 * SECONDS,
        burst_size=4,
        trials=200,
        window=WINDOW,
        algorithm="average",
        servers=(
            ServerSpec(model=ExecutionModel(base=30 * MILLIS, sigma=3 * MILLIS)),
        ),
    )


SPIKE_SEEDS = (101, 202, 303, 404, 505)


def mean_error(result, algo, start=0):
    errs = result.errors("s1", algo)[start:]
    return sum(errs) / len(errs)


def test_01_codec_soundness(check):
    with check(1, "codec round-trip and malformed frames"):
        rng = random.Random(20240817)
        for _ in range(10_000):
            msg = random_message(rng)
            assert decode(encode(msg)) == msg
        try:
            decode(b"this is not json\n")
            raise AssertionError("malformed frame accepted")
        except MalformedFrame:
            pass
        try:
            decode(b'{"type":"teleport","message-id":"m1"}\n')
            raise AssertionError("unknown type accepted")
        except UnknownType:
            pass
        try:
            decode(b'{"type":"rpc","op":"noop","params":{}}\n')
            raise AssertionError("missing field accepted")
        except MissingField as exc:
            assert "message-id" in str(exc)


def test_02_predictor_reference_oracles(check):
    with check(2, "predictors match independent reference"):
        rng = random.Random(42)
        trace = []
        for i in range(100):
            ete = max(0, round(rng.gauss(30 * MILLIS, 3 * MILLIS)))
            if i % 17 == 5:
                ete *= 10
            trace.append(ete)
        samples = [
            EteSample.from_times(i * SECONDS, i * SECONDS + v, i)
            for i, v in enumerate(trace)
        ]
        for algo in ("average", "ft-average", "kalman"):
            got = [row[algo].raw for row in evaluate_stream(samples, (algo,), WINDOW)]
            want = ref_prediction_series([float(v) for v in trace], algo, WINDOW)
            for step, (g, w) in enumerate(zip(got, want)):
                rel = abs(g - w) / max(1.0, abs(w))
                assert rel <= 1e-9, (algo, step, g, w)


def test_03_closed_loop_exactness(check):
    with check(3, "constant world completes on the desired instant"):
        result = run_scenario(constant_scenario())
        outcomes = result.outcomes["s1"]
        assert len(outcomes) == 50
        for out in outcomes[1:]:  # everything after the cold start
            assert out.completion_error == 0, out
            assert out.execution_time == out.desired_completion
        for algo in ("average", "ft-average", "kalman"):
            assert result.errors("s1", algo)[1:] == [0] * 49


def test_04_error_reduction_ratio(check):
    with check(4, "windowed predictors beat baseline 5x on gaussian"):
        result = run_scenario(gaussian_scenario())
        baseline = mean_error(result, "baseline")
        assert baseline > 25 * MILLIS  # sanity: baseline error ~ mean ete
        for algo in ("average", "ft-average", "kalman"):
            assert mean_error(result, algo) <= 0.2 * baseline, algo


def test_05_spike_resilience_ordering(check):
    with check(5, "ft-average most resilient to spikes on every seed"):
        for seed in SPIKE_SEEDS:
            result = run_scenario(spike_scenario(seed))
            ft = mean_error(result, "ft-average")
            assert ft <= mean_error(result, "average"), seed
            assert ft <= mean_error(result, "kalman"), seed

            spikes = result.spike_indices["s1"]
            assert spikes, f"seed {seed} produced no spikes at p=0.02"
            inside, _ = spike_window_split(spikes, 2000, WINDOW)
            ft_errs = result.errors("s1", "ft-average")
            base_errs = result.errors("s1", "baseline")
            ft_in = sum(ft_errs[i] for i in inside) / len(inside)
            base_in = sum(base_errs[i] for i in inside) / len(inside)
            assert ft_in < base_in, seed


def test_06_burst_sufficiency(check):
    with check(6, "4-probe bursts within 2x of steady periodic"):
        periodic = run_scenario(gaussian_scenario())
        burst = run_scenario(burst_scenario())
        assert len(burst.samples["s1"]) == 200
        for algo in ("average", "ft-average", "kalman"):
            steady = mean_error(periodic, algo, start=WINDOW)
            assert mean_error(burst, algo) <= 2 * steady, algo


def test_07_scheduling_range_conformance(check):
    with check(7, "range verdicts at the 1ns boundaries, no rejected runs"):
        for now in (0, 5 * SECONDS, 2**40):
            for config in (
                SchedulingRangeConfig(),
                SchedulingRangeConfig(
                    sched_max_future=2 * SECONDS, sched_max_past=500 * MILLIS
                ),
            ):
                fut, past = config.sched_max_future, config.sched_max_past
                table = [
                    (now - past - 1, Verdict.REJECT),
                    (now - past, Verdict.ACCEPT_RUN_NOW),
                    (now - 1, Verdict.ACCEPT_RUN_NOW),
                    (now, Verdict.ACCEPT),
                    (now + fut, Verdict.ACCEPT),
                    (now + fut + 1, Verdict.REJECT),
                ]
                for t, want in table:
                    assert validate_schedule(t, now, config) is want, (t, now)

        # a world peppered with out-of-range requests never runs them
        loop = EventLoop()
        client = Client(loop)
        up = Link(loop, client.on_frame, delay=1 * MILLIS, rng=named_rng(7, "u"))
        server = Server(
            "s1", scheduler=loop, send=up.send,
            model=ExecutionModel(base=10 * MILLIS), rng=named_rng(7, "s"),
        )
        down = Link(loop, server.on_frame, delay=1 * MILLIS, rng=named_rng(7, "d"))
        client.connect("s1", down.send)
        bad, good = [], []
        for k in range(20):
            t = client.now() + (30 * SECONDS if k % 3 == 0 else 1 * SECONDS)
            call = client.submit("s1", Operation("noop"), t, get_time=True)
            (bad if k % 3 == 0 else good).append(call.message_id)
        loop.run_until(deadline=40 * SECONDS)
        executed = {e.message_id for e in server.log}
        assert server.rejected_ids == set(bad)
        assert executed == set(good)
        assert not (server.rejected_ids & executed)

        # and the closed-loop scenario worlds agree
        result = run_scenario(constant_scenario())
        for sid, srv in result.world.servers.items():
            assert not srv.rejected_ids & {e.message_id for e in srv.log}


def _commit_world(seed, *, tight_last=False):
    loop = EventLoop()
    client = Client(loop)
    servers = {}
    for i in range(1, 6):
        sid = f"s{i}"
        up = Link(loop, client.on_frame, delay=1 * MILLIS, jitter=200_000,
                  rng=named_rng(seed, "commit", sid, "up"))
        server = Server(
            sid, scheduler=loop, send=up.send,
            model=ExecutionModel(base=15 * MILLIS, sigma=2 * MILLIS),
            rng=named_rng(seed, "commit", sid),
        )
        if tight_last and i == 5:
            server.range_config = SchedulingRangeConfig(
                sched_max_future=1 * SECONDS
            )
        down = Link(loop, server.on_frame, delay=1 * MILLIS, jitter=200_000,
                    rng=named_rng(seed, "commit", sid, "down"))
        client.connect(sid, down.send)
        servers[sid] = server
    for sid in servers:
        client.schedule_raw(
            sid, Operation("set-value", {"key": "mode", "value": "on"})
        )
    return loop, client, servers


def test_08_atomic_commit_both_paths(check):
    with check(8, "5-server commit: all-or-nothing over 100 seeded reps"):
        for rep in range(100):
            # all-accept path
            loop, client, servers = _commit_world(rep)
            at = client.now() + 2 * SECONDS
            result = client.atomic_commit(list(servers), at)
            assert result.committed, rep
            for sid, server in servers.items():
                assert server.state.running == {"mode": "on"}, (rep, sid)
                assert server.log[-1].t_start == at, (rep, sid)
                assert result.accept_times[sid] < at - result.margin

            # one-reject path
            loop, client, servers = _commit_world(rep, tight_last=True)
            staged = {sid: len(s.log) for sid, s in servers.items()}
            at = client.now() + 2 * SECONDS
            result = client.atomic_commit(list(servers), at)
            assert result.status == "aborted", rep
            assert "s5" in (result.reason or ""), rep
            loop.run_until(deadline=at + 1 * SECONDS)
            for sid, server in servers.items():
                assert len(server.log) == staged[sid], (rep, sid)
                assert server.state.running == {}, (rep, sid)
            for sid in ("s1", "s2", "s3", "s4"):
                assert result.cancel_times[sid] < at, (rep, sid)
            assert "s5" not in result.cancel_times


def test_09_determinism_byte_identical(check):
    with check(9, "same seed twice gives byte-identical csv"):
        builders = [constant_scenario, gaussian_scenario, burst_scenario]
        builders += [lambda s=s: spike_scenario(s) for s in SPIKE_SEEDS]
        for build in builders:
            first = run_scenario(build()).csv_text()
            second = run_scenario(build()).csv_text()
            assert first == second, build().name
            assert first.encode("utf-8") == second.encode("utf-8")


def test_10_period_selection_oracles(check):
    with check(10, "period choices match brute-force oracle"):
        base = 20 * MILLIS
        recovery = 1 * SECONDS

        def build():
            loop = EventLoop()
            client = Client(loop)
            up = Link(loop, client.on_frame, delay=1 * MILLIS,
                      rng=named_rng(5, "up"))
            server = Server(
                "s1", scheduler=loop, send=up.send,
                model=ExecutionModel(
                    base=base, load_penalty=1.0, load_recovery=recovery
                ),
                rng=named_rng(5, "server"),
            )
            down = Link(loop, server.on_frame, delay=1 * MILLIS,
                        rng=named_rng(5, "down"))
            client.connect("s1", down.send)
            return client

        config = PeriodSelectionConfig()
        periods = config.periods()

        # oracle: ETE of a probe started g after the previous one is
        # base * (1 + max(0, 1 - g/recovery)); the first probe of each
        # burst is clean because bursts rest longer than the recovery.
        oracle_means = []
        for period in periods:
            loaded = base * (1.0 + max(0.0, 1.0 - period / recovery))
            burst = [float(base)] + [loaded] * (config.burst_size - 1)
            oracle_means.append(statistics.fmean(burst))

        best = 0
        for i in range(len(periods)):  # explicit argmin, earliest tie
            if oracle_means[i] < oracle_means[best]:
                best = i
        oracle_burst_choice = 2 * periods[best]

        bound = (1.0 + config.alpha) * oracle_means[best]
        qualifying = [i for i in range(len(periods)) if oracle_means[i] < bound]
        oracle_periodic_choice = max(periods[i] for i in qualifying)

        got_burst = select_period_burst(build(), "s1")
        assert got_burst.means == oracle_means
        assert got_burst.best_index == best
        assert got_burst.period == oracle_burst_choice

        got_periodic = select_period_periodic(build(), "s1")
        assert got_periodic.period == oracle_periodic_choice

        # the shape assumption behind the oracle really held
        assert oracle_means[0] > oracle_means[1] > oracle_means[2]
        assert oracle_means[2] == oracle_means[3] == oracle_means[4]
