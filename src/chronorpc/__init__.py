"""chronorpc: time-triggered remote operations with completion-time prediction.

A client schedules an operation for a wall-clock instant, the server runs
it at that instant and reports how long it actually took, and the client
uses that feedback to predict completion times well enough to hit a
deadline with the *end* of an operation rather than its start. On top of
that sit multi-server coordinators (simultaneous start, consistent
snapshot, all-or-nothing commit) and a deterministic virtual-time harness
for evaluating the prediction algorithms.
"""

from .protocol import (
    MAX_FRAME_BYTES,
    MICROS,
    MILLIS,
    SECONDS,
    MalformedFrame,
    Message,
    MissingField,
    Operation,
    ProtocolError,
    RpcMessage,
    RpcReply,
    ScheduleNotification,
    SchedulingRangeConfig,
    TransportClosed,
    UnknownType,
    Verdict,
    decode,
    encode,
    validate_schedule,
)
from .prediction import (
    ALGORITHMS,
    DEFAULT_WINDOW,
    EteSample,
    Prediction,
    PredictionError,
    PredictorState,
    evaluate_stream,
)
from .sim import EventLoop, Link, named_rng
from .server import ExecutionModel, Server
from .client import (
    CancelResult,
    Client,
    ClientError,
    CommitOutcome,
    ReplyTimeout,
    RpcFailure,
    ScheduleOutcome,
    ScheduleRejected,
)
from .probing import (
    BurstProbe,
    PeriodSelectionConfig,
    SelectionResult,
    choose_burst_period,
    choose_periodic_period,
    run_probe_plan,
    select_period_burst,
    select_period_periodic,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # protocol
    "MAX_FRAME_BYTES",
    "MICROS",
    "MILLIS",
    "SECONDS",
    "MalformedFrame",
    "Message",
    "MissingField",
    "Operation",
    "ProtocolError",
    "RpcMessage",
    "RpcReply",
    "ScheduleNotification",
    "SchedulingRangeConfig",
    "TransportClosed",
    "UnknownType",
    "Verdict",
    "decode",
    "encode",
    "validate_schedule",
    # prediction
    "ALGORITHMS",
    "DEFAULT_WINDOW",
    "EteSample",
    "Prediction",
    "PredictionError",
    "PredictorState",
    "evaluate_stream",
    # simulation
    "EventLoop",
    "Link",
    "named_rng",
    # server
    "ExecutionModel",
    "Server",
    # client
    "CancelResult",
    "Client",
    "ClientError",
    "CommitOutcome",
    "ReplyTimeout",
    "RpcFailure",
    "ScheduleOutcome",
    "ScheduleRejected",
    # probing
    "BurstProbe",
    "PeriodSelectionConfig",
    "SelectionResult",
    "choose_burst_period",
    "choose_periodic_period",
    "run_probe_plan",
    "select_period_burst",
    "select_period_periodic",
]
