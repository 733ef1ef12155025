import csv
import gc
import hashlib
import io
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from chronorpc.cli import main
from chronorpc.harness import (
    CSV_HEADER,
    DEMOS,
    Scenario,
    ScenarioInvalid,
    ServerSpec,
    experiment_platforms,
    experiment_probing,
    experiment_stress,
    load_scenario,
    parse_duration,
    parse_scenario_text,
    run_scenario,
    spike_window_split,
)
from chronorpc.protocol import MICROS, MILLIS, SECONDS
from chronorpc.server import ExecutionModel
from chronorpc.sim import Timer


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

    def test_duration_derives_sample_count(self):
        s = parse_scenario_text("period = 2s\nduration = 10s\n")
        assert s.samples == 5

    def test_explicit_samples_beats_duration(self):
        s = parse_scenario_text("period = 2s\nduration = 10s\nsamples = 3\n")
        assert s.samples == 3

    def test_unknown_key(self):
        with pytest.raises(ScenarioInvalid) as exc:
            parse_scenario_text("wibble = 3\n")
        assert "wibble" in str(exc.value)

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
        result = run_scenario(small_scenario(samples=3), out_dir=tmp_path)
        assert (tmp_path / "samples.csv").read_text().startswith(
            ",".join(CSV_HEADER)
        )
        summary = (tmp_path / "summary.txt").read_text()
        assert summary.startswith("# scenario t seed 5")

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


def test_shipped_scenarios_match_golden_digests():
    shipped = sorted(p.name for p in SCENARIO_DIR.glob("*.txt"))
    assert shipped == sorted(GOLDEN_DIGESTS)
    for name, digest in GOLDEN_DIGESTS.items():
        result = run_scenario(load_scenario(SCENARIO_DIR / name))
        text = result.csv_text() + result.summary_text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, name


def test_finished_run_retains_no_timers():
    # The result keeps every server's ops reachable; a fired or cancelled
    # timer must not stay alive through them.
    def timers() -> int:
        gc.collect()
        return sum(1 for o in gc.get_objects() if isinstance(o, Timer))

    before = timers()
    result = run_scenario(load_scenario(SCENARIO_DIR / "spikes.txt"))
    assert result.spike_indices
    assert timers() == before


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
        report, _ = experiment_platforms(seed=3, samples=5, out_dir=tmp_path)
        path = tmp_path / "experiment_platforms.csv"
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

    def test_run_missing_file(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "nope.txt")]) == 1

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
        # a run-output csv is not replay input; must fail cleanly, no traceback
        src = tmp_path / "samples.csv"
        src.write_text("sample_index,ete_ns\n0,31000\n", encoding="utf-8")
        assert main(["replay", "--csv", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "scheduled_time_ns" in err

    def test_demo(self, capsys):
        assert main(["demo", "commit", "--seed", "1"]) == 0
        assert capsys.readouterr().out.strip()

    def test_experiment_roman_alias(self, tmp_path, capsys):
        assert main(
            ["experiment", "I", "--samples", "5", "--out", str(tmp_path)]
        ) == 0
        assert (tmp_path / "experiment_platforms.csv").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "IV"])
