"""The debug nub and its wire protocol (paper Sec. 4.2)."""

from . import protocol
from .channel import Channel, ChannelClosed, Listener, connect, pair
from .faults import FaultInjectingChannel, FaultSchedule, NubKilled
from .nub import Nub, NubMD, NubRunner, nub_md_for
from .session import (
    LocalTransport,
    NubError,
    NubSession,
    RetryPolicy,
    SessionError,
    Transport,
    TransportError,
)

__all__ = ["Channel", "ChannelClosed", "FaultInjectingChannel",
           "FaultSchedule", "Listener", "LocalTransport", "Nub",
           "NubError", "NubKilled", "NubMD", "NubRunner", "NubSession",
           "RetryPolicy",
           "SessionError", "Transport", "TransportError", "connect",
           "nub_md_for", "pair", "protocol"]
