"""What every process of the 1-k-(m,n) tree does the same way: find its
peers, shake hands, pump a channel into a queue, create a pool.

Connection topology (arrows point from dialer to listener)::

    root ──► split[s]                 pictures down, credits back
    split[s] ──► dec[t]               sub-pictures down, ANID acks back
    dec[t] ──► dec[u<t]               reference blocks, both directions
    dec[t] ──► collector              tile frame crops, EOS, errors

Every process creates its listener first, then dials with bounded
retry-and-backoff, then labels inbound connections by their HELLO
message — so the supervisor can start the whole tree at once without an
ordered handshake.  All channels run heartbeats; a peer that dies is
detected as :class:`~repro.net.channel.ChannelClosed` (socket reset) or
:class:`~repro.net.channel.PeerDeadError` (hung: silent past
``dead_after``) instead of hanging the protocol.

The roles themselves are one module each (:mod:`~repro.cluster.runtime.root`,
:mod:`~repro.cluster.runtime.splitter`, :mod:`~repro.cluster.runtime.decoder`)
so that a worker imports the one it runs; this module is what they and
the supervisor share, and it imports nothing a root would not need.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from pathlib import Path
from typing import Tuple

from repro.cluster.runtime.config import WallConfig
from repro.cluster.runtime.messages import (
    MSG_HELLO,
    decode_hello_full,
    encode_hello,
)
from repro.mem import FramePool, PoolError
from repro.net.channel import (
    Address,
    Channel,
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    Listener,
    connect,
)
from repro.perf.trace import TraceWriter


class ProtocolError(RuntimeError):
    """The peer violated the 1-k-(m,n) protocol (ordering, routing)."""


# --------------------------------------------------------------------- #
# rendezvous: name -> address, rooted at the run directory
# --------------------------------------------------------------------- #


class Rendezvous:
    """Address book for the process tree.

    Unix transport: socket paths are derived from process names, so a
    dialer just retries until the listener has bound.  TCP transport:
    listeners bind an ephemeral port and publish ``{name}.addr``; dialers
    poll for the file.
    """

    def __init__(self, rundir: Path, transport: str, connect_timeout: float):
        self.rundir = Path(rundir)
        self.transport = transport
        self.connect_timeout = connect_timeout

    def listen(self, name: str) -> Listener:
        if self.transport == "unix":
            lst = Listener(("unix", str(self.rundir / f"{name}.sock")))
        else:
            lst = Listener(("tcp", "127.0.0.1", 0))
            host, port = lst.address[1], lst.address[2]
            tmp = self.rundir / f"{name}.addr.tmp"
            tmp.write_text(f"{host} {port}")
            tmp.rename(self.rundir / f"{name}.addr")  # atomic publish
        return lst

    def resolve(self, name: str) -> Address:
        if self.transport == "unix":
            return ("unix", str(self.rundir / f"{name}.sock"))
        path = self.rundir / f"{name}.addr"
        deadline = time.monotonic() + self.connect_timeout
        while not path.exists():
            if time.monotonic() >= deadline:
                raise ChannelTimeout(f"no address published for {name!r}")
            time.sleep(0.02)
        host, port = path.read_text().split()
        return ("tcp", host, int(port))

    def dial(self, peer: str, me: str, cfg: WallConfig) -> Channel:
        ch = connect(
            self.resolve(peer),
            timeout=self.connect_timeout,
            policy=cfg.connect_policy,
            name=f"{me}->{peer}",
            dead_after=cfg.dead_after,
        )
        ch.send(MSG_HELLO, encode_hello(me, _hello_features(cfg, ch)))
        # Symmetric handshake: the accepter replies with its own HELLO so
        # both ends learn the other's capabilities (shm handle support).
        reply = ch.recv(timeout=self.connect_timeout)
        if reply.type != MSG_HELLO:
            ch.close()
            raise ProtocolError(
                f"{me}: {peer} answered {reply.type}, not HELLO"
            )
        _name, ch.peer_features = decode_hello_full(reply.payload)
        ch.start_heartbeat(cfg.heartbeat_interval)
        return ch


def _hello_features(cfg: WallConfig, ch: Channel) -> dict:
    """Capabilities advertised in HELLO: shm handles need the pool flag on,
    a unix transport, and a provably same-host socket."""
    if cfg.pool_enabled and ch.is_local:
        return {"shm_pool": True}
    return {}


def accept_labeled(
    lst: Listener, me: str, cfg: WallConfig, timeout: float
) -> Tuple[str, Channel]:
    """Accept one connection, read its HELLO, and reply with our own."""
    ch = lst.accept(timeout=timeout, dead_after=cfg.dead_after)
    hello = ch.recv(timeout=timeout)
    if hello.type != MSG_HELLO:
        ch.close()
        raise ProtocolError(f"{me}: first message was {hello.type}, not HELLO")
    peer, ch.peer_features = decode_hello_full(hello.payload)
    ch.name = f"{me}<-{peer}"
    ch.send(MSG_HELLO, encode_hello(me, _hello_features(cfg, ch)))
    ch.start_heartbeat(cfg.heartbeat_interval)
    return peer, ch


def maybe_fail(cfg: WallConfig, name: str, picture: int) -> None:
    """Fault injection: die abruptly (SIGKILL) at the configured picture."""
    spec = cfg.parsed_fail_at()
    if spec is not None and spec == (name, picture):
        os.kill(os.getpid(), signal.SIGKILL)


def pump(ch: Channel, out_q: "queue.Queue", label: str) -> threading.Thread:
    """Reader thread: forward every inbound message (and the terminal
    condition) into a queue the role's main loop consumes."""

    def run() -> None:
        try:
            while True:
                out_q.put(("msg", label, ch.recv()))
        except ChannelClosed:
            out_q.put(("closed", label, None))
        except ChannelError as exc:
            out_q.put(("error", label, exc))

    t = threading.Thread(target=run, name=f"pump:{ch.name}", daemon=True)
    t.start()
    return t


def queue_get(q: "queue.Queue", timeout: float, what: str):
    try:
        return q.get(timeout=timeout)
    except queue.Empty:
        raise ChannelTimeout(f"timed out after {timeout:.1f}s waiting for {what}")


# --------------------------------------------------------------------- #
# shared-memory pool plumbing
# --------------------------------------------------------------------- #


def create_pool(cfg: WallConfig, name: str, classes, tracer: TraceWriter):
    """Best-effort owner-side pool creation.

    A missing token, an exhausted tmpfs, or any other segment failure
    degrades to ``None`` — the caller ships by value, output unchanged.
    Workers never unlink their pools; the supervisor purges every segment
    carrying the run's token after the tree is down (crash-safe even for
    SIGKILLed owners).
    """
    if not cfg.pool_enabled or not cfg.pool_token:
        return None
    try:
        pool = FramePool.create(
            f"{cfg.pool_token}-{name}",
            classes,
            shm_dir=Path(cfg.shm_dir) if cfg.shm_dir else None,
        )
    except (OSError, PoolError, ValueError) as exc:
        tracer.emit("pool_unavailable", proc=name, error=repr(exc))
        return None
    tracer.emit("pool_created", pool=pool.name, slabs=pool.n_slabs)
    return pool
