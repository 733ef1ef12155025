import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from chronorpc.cli import DEMO_NAMES, main
from chronorpc.harness import (
    CSV_HEADER,
    DEMOS,
    CheckFailed,
    DemoFailure,
    Scenario,
    ScenarioInvalid,
    ServerSpec,
    build_world,
    check_world,
    experiment_platforms,
    experiment_probing,
    experiment_stress,
    load_scenario,
    parse_duration,
    parse_scenario_text,
    run_scenario,
    spike_window_split,
)
from chronorpc import protocol
from chronorpc.prediction import EteSample, PredictorState, evaluate_stream
from chronorpc.protocol import MICROS, MILLIS, SECONDS, Operation, SchedulingRangeConfig
from chronorpc.server import ExecutionModel, OpState


class TestParseDuration:
    def test_units(self):
        assert parse_duration("250ms") == 250 * MILLIS
        assert parse_duration("1s") == 1 * SECONDS
        assert parse_duration("10us") == 10 * MICROS
        assert parse_duration("40ns") == 40
        assert parse_duration("1234") == 1234

    def test_fractional(self):
        assert parse_duration("0.5s") == 500 * MILLIS
        assert parse_duration("2.5ms") == 2_500_000

    def test_whitespace(self):
        assert parse_duration("  3 ms ") == 3 * MILLIS


class TestScenarioText:
    def test_defaults(self):
        s = parse_scenario_text("")
        assert s.probe == "periodic"
        assert len(s.servers) == 1
        assert s.algorithm == "average"

    def test_full_document(self):
        s = parse_scenario_text(
            """
            # comment lines and blanks are skipped
            name = spiky
            seed = 12
            probe = burst
            period = 250ms
            burst_size = 6
            trials = 9
            window = 4
            algorithm = kalman
            algorithms = baseline, kalman
            delay = 2ms
            lead = 400ms

            servers = 3
            base = 10ms
            sigma = 2.5e6
            server2.base = 30ms
            server2.sigma = 1e6
            server3.sigma = 1.5ms
            server3.spike_p = 0.25
            """
        )
        assert s.name == "spiky"
        assert (s.seed, s.probe, s.period) == (12, "burst", 250 * MILLIS)
        assert (s.burst_size, s.trials, s.window) == (6, 9, 4)
        assert s.algorithms == ("baseline", "kalman")
        assert [spec.model.base for spec in s.servers] == [
            10 * MILLIS, 30 * MILLIS, 10 * MILLIS
        ]
        assert s.servers[2].model.spike_p == 0.25
        assert [spec.model.sigma for spec in s.servers] == [2.5e6, 1e6, 1.5e6]

    def test_unknown_key(self):
        with pytest.raises(ScenarioInvalid) as exc:
            parse_scenario_text("wibble = 3\n")
        assert "wibble" in str(exc.value)

    @pytest.mark.parametrize(
        "text, key, reason",
        [
            ("duration = 10s\n", "duration", "unknown key"),
            ("toast_time = 100ms\n", "toast_time", "unknown key"),
            ("server1.toast_time = 1ms\n", "server1.toast_time", "unknown server field"),
            ("server1.wibble = 1\n", "server1.wibble", "unknown server field"),
            ("serverX.base = 1ms\n", "serverX.base", "bad server prefix"),
            ("servers = 0\n", "servers", "must be >= 1"),
            ("seed =\n", "seed", "empty value"),
            ("period = ms\n", "period", "bad value"),
        ],
    )
    def test_refused_line_names_its_key(self, text, key, reason):
        with pytest.raises(ScenarioInvalid) as exc:
            parse_scenario_text(text)
        assert exc.value.field_name == key
        assert reason in str(exc.value)

    def test_bad_value(self):
        with pytest.raises(ScenarioInvalid) as exc:
            parse_scenario_text("seed = banana\n")
        assert "seed" in str(exc.value)

    def test_missing_equals(self):
        with pytest.raises(ScenarioInvalid):
            parse_scenario_text("just words\n")

    def test_override_beyond_server_count(self):
        with pytest.raises(ScenarioInvalid) as exc:
            parse_scenario_text("servers = 2\nserver3.base = 1ms\n")
        assert "server3" in str(exc.value)

    def test_bad_model_value_names_its_own_key(self):
        for bad in ("-1", "-2e6", "nan", "inf"):
            with pytest.raises(ScenarioInvalid) as exc:
                parse_scenario_text(f"base = 30ms\nsigma = {bad}\n")
            assert exc.value.field_name == "sigma"

    def test_bad_range_value_names_its_own_key(self):
        with pytest.raises(ScenarioInvalid) as exc:
            parse_scenario_text("base = 30ms\nsched_max_future = 0\n")
        assert exc.value.field_name == "sched_max_future"

    def test_bad_override_names_its_prefixed_key(self):
        with pytest.raises(ScenarioInvalid) as exc:
            parse_scenario_text("servers = 2\nserver2.sched_max_past = -1s\n")
        assert exc.value.field_name == "server2.sched_max_past"

    @pytest.mark.parametrize(
        "text, key",
        [
            ("lanes = 0\n", "lanes"),
            ("servers = 2\nserver2.lanes = -1\n", "server2.lanes"),
            ("jitter = -1ms\n", "jitter"),
            ("servers = 2\nserver1.spike_p = 2\n", "server1.spike_p"),
        ],
    )
    def test_bad_server_value_names_its_key(self, text, key):
        with pytest.raises(ScenarioInvalid) as exc:
            parse_scenario_text(text)
        assert exc.value.field_name == key

    def test_validation_runs(self):
        with pytest.raises(ScenarioInvalid):
            parse_scenario_text("probe = sideways\n")
        with pytest.raises(ScenarioInvalid):
            # dispatch lead must clear the link delay bound
            parse_scenario_text("delay = 600ms\nlead = 500ms\n")

    def test_load_scenario_names_after_file(self, tmp_path):
        path = tmp_path / "quick-check.txt"
        path.write_text("samples = 2\n", encoding="utf-8")
        assert load_scenario(path).name == "quick-check"


@pytest.mark.parametrize(
    "field_name, value",
    [
        ("probe", "sideways"),
        ("period", 0),
        ("samples", 0),
        ("burst_size", 0),
        ("trials", 0),
        ("window", 0),
        ("algorithm", "median"),
        ("algorithms", ("average", "median")),
        ("algorithms", ()),
        ("delay", -1),
        ("delay_jitter", -1),
        ("lead", 1 * MILLIS),  # not above the default 1 ms link delay
        ("servers", ()),
    ],
)
def test_scenario_checks_each_field_on_construction(field_name, value):
    with pytest.raises(ScenarioInvalid) as exc:
        Scenario(**{field_name: value})
    assert exc.value.field_name == field_name
    with pytest.raises(ScenarioInvalid):
        replace(Scenario(), **{field_name: value})


def test_server_spec_checks_lanes_on_construction():
    with pytest.raises(ValueError, match="lanes must be >= 1"):
        ServerSpec(lanes=0)


def small_scenario(**kw):
    defaults = dict(
        name="t",
        seed=5,
        period=1 * SECONDS,
        samples=12,
        servers=(ServerSpec(model=ExecutionModel(base=20 * MILLIS)),),
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestRunScenario:
    def test_constant_world_closed_loop(self):
        result = run_scenario(small_scenario())
        etes = [s.ete for s in result.samples["s1"]]
        assert etes == [20 * MILLIS] * 12
        for algo in ("average", "ft-average", "kalman"):
            errs = result.errors("s1", algo)
            assert errs[0] == 20 * MILLIS  # nothing known yet
            assert errs[1:] == [0] * 11
        assert result.errors("s1", "baseline") == [20 * MILLIS] * 12

    def test_same_seed_same_bytes(self):
        a = run_scenario(small_scenario(seed=9))
        b = run_scenario(small_scenario(seed=9))
        assert a.csv_text() == b.csv_text()
        assert a.summary_text() == b.summary_text()

    def test_different_seed_different_stream(self):
        noisy = ServerSpec(
            model=ExecutionModel(base=20 * MILLIS, sigma=2 * MILLIS)
        )
        a = run_scenario(small_scenario(seed=1, servers=(noisy,)))
        b = run_scenario(small_scenario(seed=2, servers=(noisy,)))
        assert a.csv_text() != b.csv_text()

    def test_link_delay_does_not_touch_measurements(self):
        noisy = ServerSpec(
            model=ExecutionModel(base=20 * MILLIS, sigma=2 * MILLIS)
        )
        fast = run_scenario(small_scenario(servers=(noisy,), delay=0))
        slow = run_scenario(
            small_scenario(servers=(noisy,), delay=5 * MILLIS)
        )
        assert [s.ete for s in fast.samples["s1"]] == [
            s.ete for s in slow.samples["s1"]
        ]

    def test_two_servers_sampled_independently(self):
        specs = (
            ServerSpec(model=ExecutionModel(base=10 * MILLIS)),
            ServerSpec(model=ExecutionModel(base=40 * MILLIS)),
        )
        result = run_scenario(small_scenario(servers=specs))
        assert {s.ete for s in result.samples["s1"]} == {10 * MILLIS}
        assert {s.ete for s in result.samples["s2"]} == {40 * MILLIS}
        assert len(result.samples["s1"]) == len(result.samples["s2"]) == 12

    def test_burst_mode(self):
        result = run_scenario(
            small_scenario(probe="burst", burst_size=3, trials=5)
        )
        assert len(result.bursts["s1"]) == 5
        assert all(len(burst) == 3 for burst in result.bursts["s1"])
        # one measured target per trial
        assert len(result.samples["s1"]) == 5

    def test_csv_shape(self):
        result = run_scenario(small_scenario(samples=4))
        rows = list(csv.reader(io.StringIO(result.csv_text())))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 4 * len(result.scenario.algorithms)
        for row in rows[1:]:
            int(row[0])  # every numeric column holds integers
            _, _, ete, prediction, abs_error = (int(cell) for cell in row[3:])
            assert abs_error == abs(prediction - ete)

    def test_write_outputs(self, tmp_path):
        result = run_scenario(small_scenario(samples=3))
        result.write_outputs(tmp_path)
        assert (tmp_path / "samples.csv").read_text().startswith(
            ",".join(CSV_HEADER)
        )
        summary = (tmp_path / "summary.txt").read_text()
        assert summary.startswith("# scenario t seed 5")

    @pytest.mark.parametrize(
        "kw, message",
        [
            # beyond the default 15 s sched_max_future: the server refuses it
            ({"lead": 20 * SECONDS}, "s1: sample 0 failed: scheduled-time .* outside"),
            ({"op": "does-not-exist"}, "s1: sample 0 failed with unknown-operation"),
        ],
        ids=["rejected", "error-reply"],
    )
    def test_failed_target_call_fails_the_run(self, kw, message):
        with pytest.raises(CheckFailed, match=message):
            run_scenario(small_scenario(samples=3, **kw))

    def test_spike_indices_come_from_server_truth(self):
        spec = ServerSpec(
            model=ExecutionModel(
                base=20 * MILLIS, spike_p=0.3, spike_mult=10.0
            )
        )
        result = run_scenario(small_scenario(servers=(spec,), samples=40))
        spikes = result.spike_indices["s1"]
        assert spikes, "0.3 spike rate over 40 samples produced none?"
        samples = result.samples["s1"]
        for i in spikes:
            assert samples[i].ete == 200 * MILLIS
        for i in set(range(40)) - set(spikes):
            assert samples[i].ete == 20 * MILLIS


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# sha256 of csv_text() + summary_text() for each shipped scenario at its own
# seed. Any change to predictions, scheduling or formatting moves a digest.
GOLDEN_DIGESTS = {
    "burst.txt": "bb42ecfc15ff119f0ec7ea0fbf8862d035c669a81e7df14d8a93db6dd25b384d",
    "constant.txt": "8ac8626fae9f961101ddddeea8707c4c010128f57ee4c17f6583ca71230dfd66",
    "gaussian.txt": "8f5d9e31c0b1b0a4fb2a1083d1e6287f9dee08a8616b86dbe0c2dcf273300149",
    "spikes.txt": "49a8e48a504cae3aeb0b38f4213e52676a1b8c7307d4fbed25903570630defbd",
    "two-servers.txt": "a70fbc286c52722fa8d75a53c7f2bd3cde9c88df52b77dd0261f2a140887c37d",
}


def _leak_a_rejection(world):
    server = world.servers["s1"]
    server.rejected_ids.add(server.log[0].message_id)


def _reorder_the_log(world):
    world.servers["s1"].log.reverse()


def _cancel_an_executed_op(world):
    server = world.servers["s1"]
    server.ops[server.log[0].message_id].state = OpState.CANCELLED


def _count_a_decode_error(world):
    world.client.decode_errors = 1


@pytest.mark.parametrize(
    "doctor, message",
    [
        (_leak_a_rejection, "s1: rejected rpcs reached the log: \\['m1'\\]"),
        (_reorder_the_log, "s1: execution log is not ordered by completion"),
        (_cancel_an_executed_op, "s1: cancelled op m1 was executed"),
        (_count_a_decode_error, "client saw undecodable frames"),
    ],
    ids=["rejected-in-log", "log-order", "cancelled-executed", "decode-errors"],
)
def test_check_world_refuses_a_doctored_world(doctor, message):
    world = run_scenario(small_scenario(samples=3)).world
    check_world(world)
    doctor(world)
    with pytest.raises(CheckFailed, match=message):
        check_world(world)


def test_shipped_scenarios_match_golden_digests():
    shipped = sorted(p.name for p in SCENARIO_DIR.glob("*.txt"))
    assert shipped == sorted(GOLDEN_DIGESTS)
    for name, digest in GOLDEN_DIGESTS.items():
        result = run_scenario(load_scenario(SCENARIO_DIR / name))
        text = result.csv_text() + result.summary_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name


def _offline_predictions(result, rules):
    """The offline pass the runner once made: periodic samples replayed in
    order, and each burst pushed into a fresh predictor."""
    scenario = result.scenario
    out = {}
    for sid, calls in result.outcomes.items():
        if scenario.probe == "periodic":
            samples = [
                EteSample.from_times(call.scheduled_time, call.execution_time, i)
                for i, call in enumerate(calls)
            ]
            rows = evaluate_stream(samples, rules, scenario.window)
        else:
            rows = []
            for burst in result.bursts[sid]:
                state = PredictorState(scenario.window)
                for call in burst:
                    state.push(call.ete)
                rows.append({algo: state.predict(algo) for algo in rules})
        out[sid] = {algo: [row[algo] for row in rows] for algo in rules}
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_online_predictions_equal_the_offline_pass(name):
    # Each rule is scored on what the client's predictor held when the call
    # went out; on every shipped scenario that is exactly the prediction a
    # replay of the recorded samples gives, and the driving rule's entry is
    # the prediction the call was scheduled with.
    scenario = load_scenario(SCENARIO_DIR / name)
    result = run_scenario(scenario)
    rules = (scenario.algorithm, *scenario.algorithms)
    expected = _offline_predictions(result, rules)
    for sid, calls in result.outcomes.items():
        assert calls, sid
        for algo in scenario.algorithms:
            assert result.predictions[sid][algo] == expected[sid][algo], (sid, algo)
        driving = expected[sid][scenario.algorithm]
        assert [call.prediction for call in calls] == driving, sid


def test_driving_rule_need_not_be_scored():
    noisy = ServerSpec(model=ExecutionModel(base=20 * MILLIS, sigma=2 * MILLIS))
    for probe in ("periodic", "burst"):
        result = run_scenario(
            small_scenario(
                probe=probe,
                servers=(noisy,),
                algorithm="kalman",
                algorithms=("baseline", "ft-average"),
                trials=3,
            )
        )
        assert sorted(result.predictions["s1"]) == ["baseline", "ft-average"]
        expected = _offline_predictions(result, ("kalman", "ft-average"))["s1"]
        assert result.predictions["s1"]["ft-average"] == expected["ft-average"]
        calls = result.outcomes["s1"]
        assert [call.prediction for call in calls] == expected["kalman"]


def _coordinated_rounds() -> None:
    """Rounds shaped like the sim-coordinated benchmark, on two servers.

    Aligned set-value writes (one of an empty value), an accepted and a
    refused atomic commit, and a snapshot after each: rpcs with params
    (cancel-schedule rpcs among them), ok replies with params and error
    replies.
    """
    refusing = SchedulingRangeConfig(sched_max_future=1 * SECONDS)
    world = build_world(
        Scenario(
            name="coordinated",
            seed=3,
            servers=(
                ServerSpec(model=ExecutionModel(base=5 * MILLIS, sigma=0.5 * MILLIS)),
                ServerSpec(model=ExecutionModel(base=20 * MILLIS), range_config=refusing),
            ),
            algorithm="ft-average",
            delay_jitter=200 * MICROS,
        )
    )
    client, loop, sids = world.client, world.loop, world.server_ids
    committed = ""
    for value, ahead in (("v1", 500 * MILLIS), ("", 500 * MILLIS), ("v3", 2 * SECONDS)):
        write = Operation("set-value", {"key": "k", "value": value})
        writes = client.coordinated_operation(
            sids, write, loop.now() + 100 * MILLIS, align_completion=True
        )
        assert all(call.ok for call in writes.values())
        commit_at = loop.now() + ahead
        commit = client.atomic_commit(sids, commit_at)
        assert commit.committed == (ahead < refusing.sched_max_future), commit
        if commit.committed:
            committed = value
        loop.run_until(deadline=commit_at)
        reads = client.coordinated_snapshot(sids, "k", commit_at + 200 * MILLIS)
        assert {entry.value for entry in reads.values()} == {committed}


def test_shipped_scenarios_decode_without_the_json_scanner(monkeypatch):
    # Every frame the cores send in the shipped scenarios, the demos and
    # coordinated rounds is in a canonical layout, so decode() reads each one
    # without JSON and no frame reaches the per-type JSON decoders.
    decoded = []
    for type_value, decoder in protocol._DECODERS.items():

        def recording(obj, decoder=decoder):
            decoded.append(obj)
            return decoder(obj)

        monkeypatch.setitem(protocol._DECODERS, type_value, recording)
    for path in sorted(SCENARIO_DIR.glob("*.txt")):
        scenario = load_scenario(path)
        result = run_scenario(replace(scenario, samples=scenario.window, trials=2))
        assert all(server.log for server in result.world.servers.values())
    for demo in DEMOS.values():
        assert demo(seed=2)
    _coordinated_rounds()
    assert decoded == []
    # A frame with spaces is not canonical, and JSON decodes it.
    protocol.decode(b'{"type": "notification", "message-id": "m1", "accepted": true}\n')
    assert len(decoded) == 1


def test_finished_run_retains_no_timers():
    # The result keeps every server's ops reachable through `ops` and `log`;
    # nothing else, such as a fired event-loop entry, may hold a finished op.
    result = run_scenario(load_scenario(SCENARIO_DIR / "spikes.txt"))
    assert result.spike_indices
    gc.collect()
    for server in result.world.servers.values():
        assert server.log
        holders = sorted([id(server.ops), id(server.log)])
        for op in server.log:
            assert sorted(map(id, gc.get_referrers(op))) == holders


# sha256 of each experiment's csv_text() and of each demo's printed lines at
# small sizes. Any change to how the experiments read their statistics, or
# to what a coordinator reports, moves a digest.
EXPERIMENT_DIGESTS = {
    "platforms": "3603f1fe00d51e69419fca24ff2eef70eea0e4c329ea094ec6da99c80b08891d",
    "probing": "99c95f1feec7f14c12ec3a7174886a82be033817b4d726b97fdd73d733616885",
    "stress": "8c471de9b13b8284210fa93af7a6e6c3705b94e911033ec239631d3a14fa608d",
}
DEMO_DIGESTS = {
    "commit": "167647f51cf81fb95d883d7ad3a47b72c18a6899e780682e9759b35d08cd328f",
    "commit-abort": "40fda789e6d0c5f67da74d375d0ef708480d978e542c770f3bef9da11088a836",
    "coordinated": "4394e3fd0c6c73e7f991832c6be4bdd4450e9ef88d77f16a13cadc32fc2788b8",
    "snapshot": "8b3b5beb8df80f0246d29fcd1d11d96f511b550f61cce59fb9076d6c58aaa723",
}


def test_bench_tracer_installs_on_the_package():
    # bench/tracing.py wraps package functions by name and fails on any it
    # cannot find, so renaming one breaks `bench/run.py --trace 1`.
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "bench"), str(root / "src")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a fresh interpreter on the package's source."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_set_up_import_leaves_experiments_demos_logging_and_csv_unloaded():
    # A fresh interpreter: pytest itself has loaded logging in this one.
    code = (
        "import sys\n"
        "import chronorpc.harness, chronorpc.live\n"
        "lazy = ['chronorpc.harness.experiments', 'chronorpc.harness.demos',"
        " 'logging', 'csv']\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "for name in chronorpc.harness.__all__:\n"
        "    getattr(chronorpc.harness, name)\n"
    )
    assert _fresh_python(code) == "[]\n"


def test_cli_run_and_replay_leave_experiments_and_demos_unloaded(tmp_path):
    # `chronorpc run` and `chronorpc replay` never call them.
    scenario = SCENARIO_DIR / "constant.txt"
    samples = tmp_path / "samples.csv"
    samples.write_text(
        "sequence,scheduled_time_ns,execution_time_ns\n0,1000,31000\n",
        encoding="utf-8",
    )
    code = (
        "import contextlib, io, sys\n"
        "from chronorpc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['run', '--scenario', {str(scenario)!r}]) == 0\n"
        f"    assert main(['replay', '--csv', {str(samples)!r}]) == 0\n"
        "lazy = ['chronorpc.harness.experiments', 'chronorpc.harness.demos']\n"
        "print([m for m in lazy if m in sys.modules])\n"
    )
    assert _fresh_python(code) == "[]\n"


@pytest.mark.parametrize("workload", ["sim-scenarios", "sim-coordinated"])
def test_bench_workload_checks_pass_on_the_package(workload):
    # bench/workloads.py reads the package's results (for example
    # ScenarioResult.predictions[sid][algo] as a sample-ordered list) and
    # checks them against its own oracle; a change of shape there reads as
    # incorrect or as a failed run.
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0, done.stdout


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_experiments_and_demos_match_golden_digests():
    reports = {
        "platforms": experiment_platforms(seed=1, samples=60)[0],
        "probing": experiment_probing(seed=1, samples=40, trials=20)[0],
        "stress": experiment_stress(seed=1, samples=300)[0],
    }
    for name, digest in EXPERIMENT_DIGESTS.items():
        assert _sha256(reports[name].csv_text()) == digest, name
    assert sorted(DEMOS) == sorted(DEMO_DIGESTS)
    for name, digest in DEMO_DIGESTS.items():
        assert _sha256("\n".join(DEMOS[name](seed=2)) + "\n") == digest, name


class TestExperiments:
    def test_platforms(self):
        report, results = experiment_platforms(seed=3, samples=20)
        assert report.header[0] == "profile"
        profiles = {row[0] for row in report.rows}
        assert profiles == {"fast", "standard", "loaded"}
        assert all(row[2] == 20 for row in report.rows)
        assert set(results) == profiles

    def test_probing(self):
        report, results = experiment_probing(seed=3, samples=10, trials=4)
        modes = {row[0] for row in report.rows}
        assert modes == {"periodic", "burst"}
        assert len(report.rows) > 0

    def test_stress_regions(self):
        report, result = experiment_stress(seed=3, samples=120)
        regions = {row[1] for row in report.rows}
        assert regions == {"spike-window", "quiet", "overall"}
        for algo in ("baseline", "average", "ft-average", "kalman"):
            rows = [r for r in report.rows if r[0] == algo]
            assert len(rows) == 3

    def test_csv_round_trip(self, tmp_path):
        report, _ = experiment_platforms(seed=3, samples=5)
        path = report.write(tmp_path)
        assert path == tmp_path / "experiment_platforms.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == list(report.header)
        assert len(rows) == 1 + len(report.rows)


class TestSpikeWindowSplit:
    def test_hand_case(self):
        inside, outside = spike_window_split([3], total=10, window=2)
        assert inside == [3, 4, 5]
        assert outside == [0, 1, 2, 6, 7, 8, 9]

    def test_overlapping_windows_merge(self):
        inside, outside = spike_window_split([2, 4], total=8, window=2)
        assert inside == [2, 3, 4, 5, 6]
        assert outside == [0, 1, 7]

    def test_clamps_at_end(self):
        inside, outside = spike_window_split([9], total=10, window=5)
        assert inside == [9]
        assert 9 not in outside

    def test_empty(self):
        inside, outside = spike_window_split([], total=4, window=2)
        assert inside == []
        assert outside == [0, 1, 2, 3]


class TestDemos:
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_demo_passes(self, name):
        lines = DEMOS[name](seed=0)
        assert lines and all(isinstance(line, str) for line in lines)

    def test_demo_seeds_vary(self):
        assert DEMOS["coordinated"](seed=0) != DEMOS["coordinated"](seed=1)


class TestCli:
    @staticmethod
    def write_scenario(tmp_path, text="samples = 5\nbase = 20ms\n"):
        path = tmp_path / "scn.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_run(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(
            ["run", "--scenario", str(path), "--seed", "7", "--out", str(out)]
        ) == 0
        assert (out / "samples.csv").exists()
        assert (out / "summary.txt").exists()
        stdout = capsys.readouterr().out
        assert "seed 7" in stdout

    def test_run_seed_overrides_file(self, tmp_path):
        path = self.write_scenario(tmp_path, "seed = 3\nsamples = 5\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--scenario", str(path), "--seed", "3", "--out", str(out1)])
        main(["run", "--scenario", str(path), "--out", str(out2)])
        assert (out1 / "samples.csv").read_text() == (
            out2 / "samples.csv"
        ).read_text()

    def test_run_invalid_scenario(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, "wibble = 1\n")
        assert main(["run", "--scenario", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [("lanes = 0\n", "lanes"), ("jitter = -1ms\n", "jitter")],
        ids=["lanes", "jitter"],
    )
    def test_run_bad_server_value(self, tmp_path, capsys, text, key):
        path = self.write_scenario(tmp_path, "samples = 5\n" + text)
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("period = infs\n", "period"),
            ("lead = 1e400ms\n", "lead"),
            ("server1.base = 1e300s\n", "server1.base"),
            ("sigma = nan\n", "sigma"),
            ("spike_p = 1\nspike_mult = inf\n", "spike_mult"),
            ("spike_p = 1\nspike_mult = nan\n", "spike_mult"),
            ("load_recovery = 1s\nload_penalty = nan\n", "load_penalty"),
            ("load_penalty = inf\n", "load_penalty"),
        ],
    )
    def test_run_refuses_non_finite_numbers(self, tmp_path, capsys, text, key):
        path = self.write_scenario(tmp_path, "samples = 5\n" + text)
        assert main(["run", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {key}: bad value ")
        assert captured.out == ""

    def test_burst_with_every_probe_refused_fails_the_run(self, tmp_path, capsys):
        # probes start lead = 500ms ahead, beyond the 100ms the server accepts
        path = self.write_scenario(
            tmp_path,
            "probe = burst\nburst_size = 3\ntrials = 2\nperiod = 100ms\n"
            "lead = 500ms\nsched_max_future = 100ms\n",
        )
        assert main(["run", "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: s1: trial 0 burst produced no samples\n"
        assert captured.out == ""

    def test_run_missing_file(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "nope.txt")]) == 1

    def test_run_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "scn.txt"
        path.write_bytes("samples = 5\n".encode("utf-16"))  # starts ff fe
        assert main(["run", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--scenario", "{dir}"],
            ["replay", "--csv", "{dir}"],
            ["replay", "--csv", "{csv}", "--out", "{dir}"],
        ],
        ids=["run-scenario", "replay-csv", "replay-out"],
    )
    def test_directory_path_is_an_error(self, tmp_path, capsys, argv):
        src = tmp_path / "samples.csv"
        src.write_text(
            "sequence,scheduled_time_ns,execution_time_ns\n0,1000,31000\n",
            encoding="utf-8",
        )
        assert main([a.format(dir=tmp_path, csv=src) for a in argv]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--scenario", "{scenario}"],
            ["experiment", "III", "--samples", "5"],
            ["replay", "--csv", "{csv}"],
        ],
        ids=["run", "experiment", "replay"],
    )
    def test_empty_out_is_refused(self, tmp_path, capsys, monkeypatch, argv):
        scenario = self.write_scenario(tmp_path)
        src = tmp_path / "samples.csv"
        src.write_text(
            "sequence,scheduled_time_ns,execution_time_ns\n0,1000,31000\n",
            encoding="utf-8",
        )
        work = tmp_path / "cwd"
        work.mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(SystemExit) as exc:
            main([a.format(scenario=scenario, csv=src) for a in argv] + ["--out", ""])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--out: must not be empty" in captured.err
        assert captured.out == ""
        assert list(work.iterdir()) == []

    def test_replay(self, tmp_path, capsys):
        src = tmp_path / "samples.csv"
        src.write_text(
            "sequence,scheduled_time_ns,execution_time_ns\n"
            "0,1000,31000\n1,2000,32000\n2,3000,31500\n",
            encoding="utf-8",
        )
        dst = tmp_path / "replay.csv"
        assert main(
            ["replay", "--csv", str(src), "--algo", "average",
             "--window", "8", "--out", str(dst)]
        ) == 0
        rows = list(csv.reader(dst.read_text().splitlines()))
        assert rows[0][:3] == ["sequence", "scheduled_time_ns", "execution_time_ns"]
        assert len(rows) == 4

    def test_replay_wrong_columns(self, tmp_path, capsys):
        # a csv with neither accepted header must fail cleanly, no traceback
        src = tmp_path / "samples.csv"
        src.write_text("sample_index,ete_ns\n0,31000\n", encoding="utf-8")
        assert main(["replay", "--csv", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "scheduled_time_ns" in err

    def test_replay_reads_run_output(self, tmp_path, capsys):
        # replay of run --out's samples.csv gives the same bytes as replay of
        # the same stream in the sequence,scheduled_time_ns,execution_time_ns form
        path = Path(__file__).resolve().parent.parent / "scenarios" / "constant.txt"
        run_out = tmp_path / "rt"
        assert main(["run", "--scenario", str(path), "--out", str(run_out)]) == 0
        calls = run_scenario(load_scenario(path)).outcomes["s1"]
        by_hand = tmp_path / "by-hand.csv"
        by_hand.write_text(
            "sequence,scheduled_time_ns,execution_time_ns\n"
            + "".join(
                f"{i},{c.scheduled_time},{c.execution_time}\n"
                for i, c in enumerate(calls)
            ),
            encoding="utf-8",
        )
        capsys.readouterr()
        outputs = []
        for src in (run_out / "samples.csv", by_hand):
            dst = tmp_path / f"replay-{src.stem}.csv"
            assert main(["replay", "--csv", str(src), "--out", str(dst)]) == 0
            outputs.append(dst.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == len(calls) + 1

    def test_replay_refuses_run_output_of_two_servers(self, tmp_path, capsys):
        path = Path(__file__).resolve().parent.parent / "scenarios" / "two-servers.txt"
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        src = tmp_path / "samples.csv"
        assert main(["replay", "--csv", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: samples of 2 servers (s1, s2)")
        assert "Traceback" not in err

    def test_replay_sequence_not_increasing(self, tmp_path, capsys):
        src = tmp_path / "samples.csv"
        src.write_text(
            "sequence,scheduled_time_ns,execution_time_ns\n"
            "1,1000,31000\n0,2000,32000\n",
            encoding="utf-8",
        )
        assert main(["replay", "--csv", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}:")
        assert "Traceback" not in err

    def test_replay_short_row(self, tmp_path, capsys):
        src = tmp_path / "samples.csv"
        src.write_text(
            "sequence,scheduled_time_ns,execution_time_ns\n"
            "0,1000,31000\n1,2000\n",
            encoding="utf-8",
        )
        assert main(["replay", "--csv", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: line 3:")
        assert "Traceback" not in err

    def test_replay_window_below_one_rejected(self, tmp_path):
        src = tmp_path / "samples.csv"
        src.write_text(
            "sequence,scheduled_time_ns,execution_time_ns\n0,1000,31000\n",
            encoding="utf-8",
        )
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--csv", str(src), "--window", "0"])
        assert exc.value.code == 2

    def test_demo(self, capsys):
        assert main(["demo", "commit", "--seed", "1"]) == 0
        assert capsys.readouterr().out.strip()

    def test_demo_names_are_the_demos(self):
        assert list(DEMO_NAMES) == sorted(DEMOS)

    def test_unknown_demo_lists_the_demos(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(repr(name) in err for name in DEMOS)

    def test_failing_demo_exits_1(self, monkeypatch, capsys):
        def failing(seed):
            raise DemoFailure("staged failure")

        monkeypatch.setitem(DEMOS, "commit", failing)
        assert main(["demo", "commit"]) == 1
        assert capsys.readouterr().err == "error: staged failure\n"

    def test_experiment_roman_alias(self, tmp_path, capsys):
        assert main(
            ["experiment", "I", "--samples", "5", "--out", str(tmp_path)]
        ) == 0
        assert (tmp_path / "experiment_platforms.csv").exists()

    @pytest.mark.parametrize("name", ["I", "platforms", "III", "stress"])
    def test_trials_is_refused_where_nothing_reads_it(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", name, "--samples", "5", "--trials", "3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--trials" in captured.err
        assert captured.out == ""

    def test_trials_sets_the_probing_bursts(self, capsys):
        assert main(["experiment", "II", "--samples", "2", "--trials", "3"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        counts = {row[4] for row in rows[1:] if row[0] == "burst"}
        assert counts == {"3"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "IV"])
