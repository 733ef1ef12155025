"""Command-line front end.

Subcommands:
  run         execute one scenario file and print its summary
  experiment  run one of the canned studies (I: platforms, II: probing
              modes, III: spike stress)
  replay      re-run the predictors offline over a recorded sample CSV
  demo        run a self-checking coordination walkthrough

Exit status is 0 only when every assertion of the requested scenario,
experiment or demo held.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

from .harness import (
    CSV_HEADER,
    CheckFailed,
    ScenarioInvalid,
    load_scenario,
    run_scenario,
)
from .prediction import (
    ALGORITHMS,
    DEFAULT_WINDOW,
    EteSample,
    PredictionError,
    evaluate_stream,
)

EXPERIMENTS = {
    "I": "platforms",
    "II": "probing",
    "III": "stress",
    "platforms": "platforms",
    "probing": "probing",
    "stress": "stress",
}

# sorted(harness.DEMOS), spelled out so that parsing the command line does
# not load the demos; a test holds the two equal.
DEMO_NAMES = ("commit", "commit-abort", "coordinated", "snapshot")

REPLAY_INPUT_FIELDS = ("sequence", "scheduled_time_ns", "execution_time_ns")
# The same three columns in the samples.csv that `run --out` writes
RUN_OUTPUT_FIELDS = ("sample_index", "t_s_ns", "t_e_ns")


def read_sample_csv(stream: Iterable[str]) -> list[EteSample]:
    """Load a recorded stream from CSV (header required).

    Two headers are read: sequence,scheduled_time_ns,execution_time_ns, and
    CSV_HEADER, the samples.csv that `run --out` writes. That file repeats
    each sample once per rule, so only the first rule's rows are kept, and
    it must hold the samples of one server.
    """
    reader = csv.DictReader(stream, restval="")
    header = reader.fieldnames or []
    missing = [f for f in REPLAY_INPUT_FIELDS if f not in header]
    run_output = bool(missing) and all(f in header for f in CSV_HEADER)
    if missing and not run_output:
        raise ValueError(f"sample csv missing columns: {', '.join(missing)}")
    fields = RUN_OUTPUT_FIELDS if run_output else REPLAY_INPUT_FIELDS
    sequence, scheduled, executed = fields
    samples = []
    servers: dict[str, None] = {}
    rule = None
    for row in reader:
        try:
            sample = EteSample.from_times(
                int(row[scheduled]), int(row[executed]), int(row[sequence])
            )
        except ValueError:
            raise ValueError(
                f"line {reader.line_num}: {', '.join(fields)} must be integers"
            ) from None
        if run_output:
            servers[row["server_id"]] = None
            if rule is None:
                rule = row["algorithm"]
            if row["algorithm"] != rule:
                continue
        samples.append(sample)
    if len(servers) > 1:
        raise ValueError(
            f"samples of {len(servers)} servers ({', '.join(servers)}); "
            "replay reads one server's stream"
        )
    return samples


def replay_rows(
    samples: Sequence[EteSample],
    algorithms: Sequence[str] = ALGORITHMS,
    window: int = DEFAULT_WINDOW,
) -> tuple[list[str], list[list[int]]]:
    """Replay a recorded stream through the chosen algorithms.

    Returns (header, rows); each row is sequence, scheduled/execution time,
    the measured offset, then per-algorithm prediction and absolute error.
    """
    predictions = evaluate_stream(samples, algorithms, window)
    header = list(REPLAY_INPUT_FIELDS) + ["ete_ns"]
    for name in algorithms:
        header += [f"{name}_prediction_ns", f"{name}_abs_error_ns"]
    rows = []
    for sample, preds in zip(samples, predictions):
        row = [
            sample.sequence_index,
            sample.scheduled_time,
            sample.execution_time,
            sample.ete,
        ]
        for name in algorithms:
            pred = preds[name]
            row += [pred.value, abs(pred.value - sample.ete)]
        rows.append(row)
    return header, rows


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _out_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronorpc",
        description="time-triggered rpc scheduling: scenarios, experiments, replay, demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("--scenario", required=True, help="path to a scenario file")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", type=_out_path, help="directory for samples.csv and summary.txt")

    p_exp = sub.add_parser("experiment", help="run a canned study")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS), help="which experiment")
    p_exp.add_argument("--seed", type=int, default=1)
    p_exp.add_argument("--out", type=_out_path, help="directory for the experiment csv")
    p_exp.add_argument("--samples", type=int, default=None, help="samples per periodic scenario")
    p_exp.add_argument("--trials", type=int, default=None, help="trials per burst scenario (II only)")

    p_replay = sub.add_parser("replay", help="run predictors offline over a sample csv")
    p_replay.add_argument(
        "--csv",
        required=True,
        help="csv with sequence,scheduled_time_ns,execution_time_ns, "
        "or one server's samples.csv from run --out",
    )
    p_replay.add_argument("--algo", default="all", choices=("all",) + ALGORITHMS)
    p_replay.add_argument("--window", type=_positive_int, default=DEFAULT_WINDOW)
    p_replay.add_argument("--out", type=_out_path, help="output csv path (default stdout)")

    p_demo = sub.add_parser("demo", help="run a coordination walkthrough")
    p_demo.add_argument("name", choices=DEMO_NAMES)
    p_demo.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except UnicodeDecodeError as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    result = run_scenario(scenario)
    if args.out is not None:
        result.write_outputs(args.out)
    sys.stdout.write(result.summary_text())
    if args.out is not None:
        print(f"# wrote samples.csv and summary.txt to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    from .harness import experiments

    name = EXPERIMENTS[args.name]
    kwargs = {} if args.samples is None else {"samples": args.samples}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    run = getattr(experiments, f"experiment_{name}")
    report, _ = run(args.seed, **kwargs)
    if args.out is not None:
        report.write(args.out)
    sys.stdout.write(report.csv_text())
    return 0


def _cmd_replay(args) -> int:
    algorithms = ALGORITHMS if args.algo == "all" else (args.algo,)
    try:
        with open(args.csv, newline="", encoding="utf-8") as handle:
            samples = read_sample_csv(handle)
        header, rows = replay_rows(samples, algorithms, args.window)
    except (ValueError, PredictionError) as exc:
        print(f"error: {args.csv}: {exc}", file=sys.stderr)
        return 1
    if args.out:
        out = open(args.out, "w", newline="", encoding="utf-8")
    else:
        out = sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_demo(args) -> int:
    from .harness.demos import DEMOS

    for line in DEMOS[args.name](args.seed):
        print(line)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if (
        args.command == "experiment"
        and args.trials is not None
        and EXPERIMENTS[args.name] != "probing"
    ):
        parser.error(f"--trials applies only to experiment II (probing), not {args.name}")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_demo(args)
    except (CheckFailed, ScenarioInvalid, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
