"""chronorpc benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository: the package is imported from its
`src/` directory, and the scenario files from `scenarios/`. Without them the
run stops with exit code 2 and prints no result.

--trace 0 prints the end-to-end metrics; --trace 1 wraps each layer's public
functions in spans (see tracing.py), prints the per-layer metrics and writes
the first block's spans to .bench_out/trace-<workload>.jsonl.
Informational lines start with '#'; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Known here, before chronorpc is imported: the import counts as set-up.
WORKLOAD_NAMES = ("sim-scenarios", "sim-coordinated", "live-pipelined", "live-paced")
SETUP_SAMPLES = 5  # set-ups per run: the run's own, the rest in fresh processes
OUT_DIR = ROOT / ".bench_out"
SLICE = 100  # live completion errors per slice: ten beyond the slice's p90


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole host from /proc/stat; (0, 0) if absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def median_of_percentile(groups: list[list[int]], q: int) -> float:
    """The median over groups of each group's q-th percentile (of 100)."""
    return statistics.median(percentile(v, q) for v in groups if v)


def slices(per_block: list[list[int]]) -> list[list[int]]:
    """Consecutive runs of SLICE values within each block; a short tail is
    dropped. Live figures are medians over slices, so that a burst of host
    noise moves few slices instead of the whole run."""
    return [
        values[i : i + SLICE]
        for values in per_block
        for i in range(0, len(values) - SLICE + 1, SLICE)
    ]


def percentile(values: list[int], q: int) -> float:
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def set_up(workload: str, seed: int, tracer=None):
    """Import chronorpc and build the workload; returns it with its set-up
    process CPU seconds and wall seconds, both counted from before the import.

    A tracer's wrappers go in before anything is built: simulated links
    capture bound `on_frame` methods when they are constructed."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if tracer is not None:
        import tracing

        tracing.install(tracer)
    import workloads

    instance = workloads.WORKLOADS[workload](ROOT, seed)
    return instance, time.process_time() - cpu0, time.perf_counter() - wall0


def setup_in_fresh_process(workload: str, seed: int) -> tuple[float, float]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    cpu, wall = json.loads(out.stdout.splitlines()[-1])
    return cpu, wall


def layer_metrics(tracer, blocks, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the folded spans and the blocks' own records."""
    t, c = tracer.totals, tracer.counts
    ops = sum(b.ops for b in blocks)

    def self_us(name):  # self time per call
        e = t.get(name)
        return e["self_ns"] / e["calls"] / 1e3 if e else 0.0

    def per(name, key, denominator):
        e = t.get(name)
        return e[key] / denominator / 1e3 if e and denominator else 0.0

    events = c.get("sim.call_at", 0)
    m = {
        "protocol.encode_us": (self_us("protocol.encode"), "us"),
        "protocol.decode_us": (self_us("protocol.decode"), "us"),
        "protocol.frames_per_op": (t["protocol.encode"]["calls"] / ops if "protocol.encode" in t else 0.0, "count"),
        "protocol.bytes_per_op": (c.get("protocol.bytes", 0) / ops, "bytes"),
        "prediction.push_us": (self_us("prediction.push"), "us"),
        "prediction.predict_us": (self_us("prediction.predict"), "us"),
        "prediction.evaluate_stream_us_per_sample": (
            per("prediction.evaluate_stream", "total_ns", c.get("prediction.samples", 0)), "us"),
        "sim.events_per_op": (events / ops, "count"),
        "sim.loop_self_us_per_event": (per("sim.run_until", "self_ns", events), "us"),
        "sim.link_send_us": (self_us("sim.link_send"), "us"),
        "server.on_frame_self_us": (self_us("server.on_frame"), "us"),
        "server.timer_callback_self_us": (self_us("server.timer_callback"), "us"),
        "server.cancels": (c.get("server.cancels", 0) / len(blocks), "count"),
        "server.ops_retained": (statistics.median(b.layer.get("server.ops_retained", 0) for b in blocks), "count"),
        "client.submit_self_us": (self_us("client.submit"), "us"),
        "client.on_frame_self_us": (self_us("client.on_frame"), "us"),
        "client.coordinator_self_us": (self_us("client.coordinator"), "us"),
        "client.pending_retained": (statistics.median(b.layer.get("client.pending_retained", 0) for b in blocks), "count"),
        "probing.plan_self_us": (self_us("probing.plan"), "us"),
        "harness.check_us_per_op": (per("harness.check_world", "total_ns", ops), "us"),
        "harness.csv_us_per_row": (per("harness.csv_text", "total_ns", c.get("harness.csv_rows", 0)), "us"),
    }
    for algo in ("baseline", "average", "ft-average", "kalman"):
        m[f"prediction.mean_abs_error_us.{algo}"] = (extra.get(algo, 0.0), "us")
    if "live.main_cpu_s" in blocks[0].layer:
        m.update(live_metrics(t, blocks))
    return m


def live_metrics(t, blocks) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the live module, for the live workloads only."""
    ops = sum(b.ops for b in blocks)
    main_cpu = sum(b.layer["live.main_cpu_s"] for b in blocks)
    cpu = sum(b.cpu_s for b in blocks)
    wait = t["live.wait_until"]["main_total_ns"] if "live.wait_until" in t else 0

    def late(key, q):
        per_block = [b.layer.get(key, []) for b in blocks]
        return median_of_percentile(slices(per_block), q) / 1e3 if any(per_block) else 0.0

    return {
        "live.wait_us_per_op": (wait / ops / 1e3, "us"),
        "live.cpu_us_per_op.main": (main_cpu / ops * 1e6, "us"),
        "live.cpu_us_per_op.background": ((cpu - main_cpu) / ops * 1e6, "us"),
        "live.threads": (statistics.median(b.layer["live.threads"] for b in blocks), "count"),
        "live.timer_lateness_p50_us": (late("live.timer_lateness_ns", 50), "us"),
        "live.timer_lateness_p90_us": (late("live.timer_lateness_ns", 90), "us"),
        "live.generator_lateness_p90_us": (late("live.generator_lateness_ns", 90), "us"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One CPU for the whole run, set-up processes included. The live threads
    # then hand off on one CPU, and every run is exposed to one vCPU's steal
    # instead of two; see README.md for what that did to live figures.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "chronorpc" / "__init__.py").is_file() or not (
        ROOT / "scenarios"
    ).is_dir():
        print(f"no chronorpc sources under {ROOT}", file=sys.stderr)
        return 2

    if args.setup_only:
        _, cpu, wall = set_up(args.workload, args.seed)
        print(json.dumps([cpu, wall]))
        return 0

    tracer, setups = None, []
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracing import Tracer

        tracer = Tracer()
    else:
        setups = [
            setup_in_fresh_process(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
    workload, cpu, wall = set_up(args.workload, args.seed, tracer)
    setups.append((cpu, wall))
    import workloads

    def timed():
        return workloads.Timed(tracer)

    blocks = []
    steal0, total0 = host_cpu_ticks()
    start = time.perf_counter()
    while True:
        blocks.append(workload.block(len(blocks), timed))
        if tracer is not None:
            tracer.fold()
        if time.perf_counter() - start >= args.seconds:
            break
    steal1, total1 = host_cpu_ticks()

    try:
        extra = workload.check()
    except AssertionError as exc:
        extra = {}
        workload.problems.append(str(exc))

    if workload.pooled_errors:
        errors = [[e for b in blocks for e in b.errors_ns]]
    else:
        errors = slices([b.errors_ns for b in blocks])
    sample_count = sum(len(e) for e in errors)
    end_to_end = {
        "ops_per_s": (statistics.median(b.ops / b.wall_s for b in blocks), "rpc/s"),
        "cpu_us_per_op": (statistics.median(b.cpu_s / b.ops * 1e6 for b in blocks), "us"),
        "completion_error_p50_us": (median_of_percentile(errors, 50) / 1e3, "us"),
        "completion_error_p90_us": (median_of_percentile(errors, 90) / 1e3, "us"),
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics = end_to_end if tracer is None else layer_metrics(tracer, blocks, extra)

    steal = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    print(f"# workload {args.workload} seed {args.seed}: {len(blocks)} blocks, "
          f"completion-error samples {sample_count}, host steal {steal:.1%} of cpu time")
    print(f"# per block: rpc/s {[round(b.ops / b.wall_s) for b in blocks]}, "
          f"cpu us/op {[round(b.cpu_s / b.ops * 1e6) for b in blocks]}")
    if not workload.pooled_errors:
        print(f"# per slice: p50 us {[round(percentile(e, 50) / 1e3) for e in errors]}, "
              f"p90 us {[round(percentile(e, 90) / 1e3) for e in errors]}")
    print(f"# setup cpu s {[round(s[0], 4) for s in setups]}, "
          f"wall s {[round(s[1], 4) for s in setups]}")
    for problem in workload.problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    if tracer is not None:  # compare with an untraced run for the tracing overhead
        print("# end-to-end under tracing: "
              + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in end_to_end.items()))
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}.jsonl", "w") as f:
            for span in tracer.kept:
                f.write(json.dumps(dict(zip(
                    ("id", "parent", "name", "thread", "start_ns", "end_ns", "self_ns"), span
                ))) + "\n")

    result = {
        "correct": not workload.problems,
        "attempted": sum(b.attempted for b in blocks),
        "failed": sum(b.failed for b in blocks),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
