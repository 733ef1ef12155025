"""Scenario definitions and the flat key-value scenario file format.

A scenario pins everything a deterministic run needs: the servers (each with
an execution model and scheduling range), the link delays, the measurement
plan (periodic cadence or on-demand bursts), the driving predictor, and the
root seed. Scenario files are plain text, one `key = value` per line, with
`#` comments; durations accept ns/us/ms/s suffixes (bare integers are
nanoseconds). Per-server overrides use a `serverN.` prefix (1-based), e.g.::

    # two servers, the second one slower
    name = mixed
    seed = 7
    servers = 2
    probe = periodic
    period = 1s
    samples = 200
    base = 30ms
    sigma = 3ms
    server2.base = 60ms

Unknown keys are rejected so typos cannot silently change a run. Every
value is checked where it lives: by ExecutionModel, SchedulingRangeConfig,
ServerSpec or Scenario when it is built.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..prediction import ALGORITHMS, DEFAULT_WINDOW, check_window
from ..protocol import MILLIS, SECONDS, MICROS, SchedulingRangeConfig
from ..server import ExecutionModel

__all__ = [
    "ScenarioInvalid",
    "ServerSpec",
    "Scenario",
    "parse_duration",
    "parse_scenario_text",
    "load_scenario",
]


class ScenarioInvalid(Exception):
    """A scenario field is missing, unknown, or out of range; names the field."""

    def __init__(self, field_name: str, reason: str):
        super().__init__(f"{field_name}: {reason}")
        self.field_name = field_name


@dataclass(frozen=True)
class ServerSpec:
    model: ExecutionModel = field(default_factory=ExecutionModel)
    range_config: SchedulingRangeConfig = field(default_factory=SchedulingRangeConfig)
    lanes: int = 1

    def __post_init__(self):
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")


@dataclass(frozen=True)
class Scenario:
    name: str = "scenario"
    seed: int = 0
    probe: str = "periodic"  # "periodic" | "burst"
    period: int = 1 * SECONDS
    samples: int = 100  # periodic mode: measured samples per server
    burst_size: int = 4
    trials: int = 50  # burst mode: burst + target repetitions
    window: int = DEFAULT_WINDOW
    algorithm: str = "average"  # drives the closed loop
    algorithms: tuple[str, ...] = ALGORITHMS
    op: str = "noop"
    lead: int = 500 * MILLIS  # dispatch/first-deadline headroom
    delay: int = 1 * MILLIS  # one-way link delay
    delay_jitter: int = 0
    servers: tuple[ServerSpec, ...] = (ServerSpec(),)

    def __post_init__(self):
        def bad(name: str, reason: str):
            raise ScenarioInvalid(name, reason)

        if self.probe not in ("periodic", "burst"):
            bad("probe", f"must be 'periodic' or 'burst', got {self.probe!r}")
        if self.period <= 0:
            bad("period", "must be positive")
        if self.samples < 1:
            bad("samples", "must be >= 1")
        if self.burst_size < 1:
            bad("burst_size", "must be >= 1")
        if self.trials < 1:
            bad("trials", "must be >= 1")
        try:
            check_window(self.window)
        except ValueError as exc:
            bad("window", str(exc))
        if self.algorithm not in ALGORITHMS:
            bad("algorithm", f"must be one of {ALGORITHMS}")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                bad("algorithms", f"unknown algorithm {name!r}")
        if not self.algorithms:
            bad("algorithms", "need at least one")
        if len(set(self.algorithms)) < len(self.algorithms):
            bad("algorithms", "each algorithm may be named once")
        if self.delay < 0:
            bad("delay", "must be non-negative")
        if not 0 <= self.delay_jitter <= sys.float_info.max:  # a link scales a float by it
            bad("delay_jitter", "must be non-negative and within float range")
        if self.lead <= self.delay + self.delay_jitter:
            bad("lead", "must exceed the link delay bound")
        if not self.servers:
            bad("servers", "need at least one server")

    def server_id(self, index: int) -> str:
        return f"s{index + 1}"


_DURATION_SUFFIXES = (("ns", 1), ("us", MICROS), ("ms", MILLIS), ("s", SECONDS))


def parse_duration(text: str) -> int:
    """Duration in nanoseconds: bare int, or a number with ns/us/ms/s suffix."""
    t = text.strip()
    for suffix, scale in _DURATION_SUFFIXES:
        if t.endswith(suffix):
            number = t[: -len(suffix)].strip()
            if not number:
                break
            value = float(number) * scale
            if not math.isfinite(value):
                raise ValueError(f"not a finite duration: {t!r}")
            return int(round(value))
    return int(t)


def _parse_float(text: str) -> float:
    return float(text.strip())


def _parse_int(text: str) -> int:
    return int(text.strip(), 0)


def _parse_sigma(text: str) -> float:
    """Nanoseconds as a plain number (exponent notation allowed) or a duration."""
    try:
        return float(text)
    except ValueError:
        return float(parse_duration(text))


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_algorithms(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# Scenario-level keys: field name -> converter.
_SCENARIO_KEYS = {
    "name": _parse_str,
    "seed": _parse_int,
    "probe": _parse_str,
    "period": parse_duration,
    "samples": _parse_int,
    "burst_size": _parse_int,
    "trials": _parse_int,
    "window": _parse_int,
    "algorithm": _parse_str,
    "algorithms": _parse_algorithms,
    "op": _parse_str,
    "lead": parse_duration,
    "delay": parse_duration,
    "delay_jitter": parse_duration,
}

# Per-server keys (usable bare for all servers or with a serverN. prefix):
# field name -> (converter, the object that holds and checks the field).
_SERVER_KEYS = {
    "base": (parse_duration, ExecutionModel),
    "sigma": (_parse_sigma, ExecutionModel),
    "jitter": (parse_duration, ExecutionModel),
    "spike_p": (_parse_float, ExecutionModel),
    "spike_mult": (_parse_float, ExecutionModel),
    "load_penalty": (_parse_float, ExecutionModel),
    "load_recovery": (parse_duration, ExecutionModel),
    "sched_max_future": (parse_duration, SchedulingRangeConfig),
    "sched_max_past": (parse_duration, SchedulingRangeConfig),
    "lanes": (_parse_int, ServerSpec),
}


def _parse_server_value(name: str, text: str) -> object:
    """Convert one per-server value and check it on its own.

    The value is checked by building its owner with only this field set, so
    a bad value raises ValueError while its key is known.
    """
    convert, owner = _SERVER_KEYS[name]
    value = convert(text)
    owner(**{name: value})
    return value


def _build_server(values: dict[str, object]) -> ServerSpec:
    by_owner = {ExecutionModel: {}, SchedulingRangeConfig: {}, ServerSpec: {}}
    for name, value in values.items():
        by_owner[_SERVER_KEYS[name][1]][name] = value
    return ServerSpec(
        model=ExecutionModel(**by_owner[ExecutionModel]),
        range_config=SchedulingRangeConfig(**by_owner[SchedulingRangeConfig]),
        **by_owner[ServerSpec],
    )


def parse_scenario_text(text: str) -> Scenario:
    scenario_values: dict[str, object] = {}
    base_server: dict[str, object] = {}
    overrides: dict[int, dict[str, object]] = {}
    server_count = 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioInvalid(f"line {lineno}", f"expected 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ScenarioInvalid(key, "empty value")

        try:
            if key == "servers":
                server_count = _parse_int(value)
                if server_count < 1:
                    raise ScenarioInvalid("servers", "must be >= 1")
            elif key in _SCENARIO_KEYS:
                scenario_values[key] = _SCENARIO_KEYS[key](value)
            elif key in _SERVER_KEYS:
                base_server[key] = _parse_server_value(key, value)
            elif key.startswith("server") and "." in key:
                prefix, _, sub = key.partition(".")
                try:
                    index = int(prefix[len("server") :])
                except ValueError:
                    raise ScenarioInvalid(key, "bad server prefix") from None
                if sub not in _SERVER_KEYS:
                    raise ScenarioInvalid(key, f"unknown server field {sub!r}")
                overrides.setdefault(index, {})[sub] = _parse_server_value(sub, value)
            else:
                raise ScenarioInvalid(key, "unknown key")
        except ScenarioInvalid:
            raise
        except ValueError as exc:
            raise ScenarioInvalid(key, f"bad value {value!r} ({exc})") from exc

    for index in overrides:
        if not 1 <= index <= server_count:
            raise ScenarioInvalid(
                f"server{index}", f"only {server_count} server(s) declared"
            )

    servers = []
    for i in range(1, server_count + 1):
        merged = dict(base_server)
        merged.update(overrides.get(i, {}))
        try:
            servers.append(_build_server(merged))
        except ValueError as exc:  # values that pass alone but not together
            raise ScenarioInvalid(f"server{i}", str(exc)) from exc

    return Scenario(servers=tuple(servers), **scenario_values)


def load_scenario(path: str | Path) -> Scenario:
    scenario = parse_scenario_text(Path(path).read_text(encoding="utf-8"))
    if scenario.name == "scenario":
        scenario = replace(scenario, name=Path(path).stem)
    return scenario
