"""Byte channels between the debugger and the nub.

The nub uses sockets because they are more uniform across systems than
process-control facilities (paper Sec. 4.2).  A simulated target in the
debugger's own process needs neither: ``Ldb.load_program`` hosts its
nub on the debugger's thread (:class:`~repro.nub.session.LocalTransport`).
The byte protocol stays for remote targets, the chaos harness's fault
schedules and the handshake tests, over three connection styles: a
socketpair to a nub on its own thread, TCP over the network, and a
listener the nub waits on so a faulty process can be picked up by a
debugger started later — or by a *new* debugger after the first one
crashed.  Every frame on a channel is sequenced and CRC-checked
(:func:`~repro.nub.protocol.encode`), from the first byte on.
"""

from __future__ import annotations

import socket
import time
from typing import Optional, Tuple

from .protocol import CrcError, FrameError, Message, decode, encode


class ChannelClosed(Exception):
    """The peer went away (e.g. a debugger crash)."""


class Channel:
    """A framed message channel over a socket."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buffer = b""

    def send(self, msg: Message) -> None:
        try:
            self.sock.sendall(encode(msg))
        except OSError as err:
            raise ChannelClosed(str(err))

    def recv(self, timeout: Optional[float] = None) -> Message:
        try:
            old = self.sock.gettimeout()
            self.sock.settimeout(timeout)
        except OSError as err:
            raise ChannelClosed(str(err))
        try:
            while True:
                try:
                    msg, self._buffer = decode(self._buffer)
                except CrcError as err:
                    # the bad frame is consumed; the stream stays framed
                    self._buffer = err.rest
                    raise
                except FrameError:
                    # a hostile length field poisons the whole stream:
                    # drop the connection
                    self.close()
                    raise
                if msg is not None:
                    return msg
                try:
                    chunk = self.sock.recv(4096)
                except socket.timeout:
                    raise TimeoutError("no message within %s seconds" % timeout)
                except OSError as err:
                    raise ChannelClosed(str(err))
                if not chunk:
                    raise ChannelClosed("peer closed the connection")
                self._buffer += chunk
        finally:
            try:
                self.sock.settimeout(old)
            except OSError:
                pass

    def drain(self) -> int:
        """Discard any buffered or immediately-readable input; returns
        the number of bytes dropped.  The nub uses this when a new stop
        is announced: in the lockstep request/reply conversation, input
        queued from before the stop is stale (e.g. duplicated frames)."""
        dropped = len(self._buffer)
        self._buffer = b""
        try:
            old = self.sock.gettimeout()
        except OSError:
            return dropped
        try:
            self.sock.settimeout(0.0)
            while True:
                chunk = self.sock.recv(4096)
                if not chunk:
                    break
                dropped += len(chunk)
        except (BlockingIOError, socket.timeout, OSError):
            pass
        finally:
            try:
                self.sock.settimeout(old)
            except OSError:
                pass
        return dropped

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def pair() -> Tuple[Channel, Channel]:
    """A connected channel pair (the forked-child connection style)."""
    a, b = socket.socketpair()
    return Channel(a), Channel(b)


class Listener:
    """A TCP listener the nub waits on for (re)connections."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, port))
        self.sock.listen(4)
        self.address = self.sock.getsockname()

    @property
    def port(self) -> int:
        return self.address[1]

    def accept(self, timeout: Optional[float] = None) -> Channel:
        self.sock.settimeout(timeout)
        try:
            conn, _peer = self.sock.accept()
        except socket.timeout:
            # callers see one timeout type, like Channel.recv
            raise TimeoutError("no connection within %s seconds" % timeout)
        return Channel(conn)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def connect(host: str, port: int, timeout: float = 10.0,
            attempts: int = 3, base_delay: float = 0.05,
            multiplier: float = 2.0) -> Channel:
    """Connect to a listening nub over the network.

    A nub that is mid-restart (or briefly out of accept slots) refuses
    or times out the first connection, so the dial is retried with
    exponential backoff up to ``attempts`` times, all bounded by the
    single overall ``timeout`` budget.  Every failure mode — refused,
    unreachable, or slow — surfaces as one consistent
    ``TimeoutError("no connection to HOST:PORT within S seconds ...")``
    so callers (and their tests) match a single message shape.
    """
    deadline = time.monotonic() + timeout
    last_err: Optional[Exception] = None
    for attempt in range(max(1, attempts)):
        if attempt:
            pause = base_delay * multiplier ** (attempt - 1)
            pause = min(pause, max(0.0, deadline - time.monotonic()))
            time.sleep(pause)
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            sock = socket.create_connection((host, port), timeout=remaining)
        except OSError as err:  # includes socket.timeout
            last_err = err
            continue
        sock.settimeout(None)
        return Channel(sock)
    raise TimeoutError(
        "no connection to %s:%d within %s seconds (%d attempts): %s"
        % (host, port, timeout, max(1, attempts), last_err))
