"""Cluster runtime configuration: the shape of one 1-k-(m,n) deployment.

A :class:`WallConfig` is everything a worker process needs to take its
place in the process tree — wall geometry, splitter count, transport
choice, and the timeout/flow-control knobs.  It is JSON-round-trippable
because the supervisor ships it to workers through the run directory.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

#: What the supervisor leaves in the run directory for every worker to read.
STREAM_FILE = "stream.m2v"
CONFIG_FILE = "cluster.json"


@dataclass
class WallConfig:
    """Static description of one cluster run.

    ``queue_depth`` is the paper's posted-receive-buffer count per
    splitter (two); the root holds that many send credits per splitter.
    ``ship_plans`` selects what splitters send decoders: compiled
    reconstruction plans (decoders never run VLC) or sub-picture
    bitstreams, which decoders re-parse — the losing side of a settled
    ablation, kept (like ``use_shm_pool`` and ``telemetry``) because the
    spine's ``--ablations`` pass it.
    ``fail_at`` is a fault-injection hook for teardown tests: a spec like
    ``"dec1@2"`` makes that worker kill itself (SIGKILL) when it is about
    to handle picture 2.
    ``telemetry`` gates span emission and periodic stats snapshots in the
    per-process trace streams; the coarse event stream (start/exit/
    stage_times/decode) survives either way.  Off is the baseline for the
    instrumentation-overhead numbers in ``BENCH_cluster.json``.
    """

    m: int = 2
    n: int = 2
    k: int = 1
    overlap: int = 0
    transport: str = "unix"  # "unix" | "tcp"
    queue_depth: int = 2
    ship_plans: bool = True
    connect_timeout: float = 15.0
    recv_timeout: float = 60.0
    heartbeat_interval: float = 0.25
    dead_after: float = 10.0
    # Dial retry/backoff (previously hard-wired inside the transport):
    # the interval of the first retry, the multiplier applied after each
    # failure, and the cap the interval saturates at.  Long-lived service
    # sessions raise the cap; tests shrink everything for fast failure.
    connect_retry_interval: float = 0.02
    connect_backoff: float = 1.6
    connect_max_interval: float = 0.5
    # Supervisor teardown/escalation budgets (previously hard-wired):
    # graceful drain wait, then SIGTERM grace, then SIGKILL on the failure
    # path (capped at ``teardown_kill_s`` total).
    shutdown_drain_s: float = 10.0
    terminate_grace_s: float = 2.0
    teardown_kill_s: float = 3.0
    fail_at: Optional[str] = None
    telemetry: bool = True
    # Shared-memory frame pool (repro.mem): when on, unix-socket peers
    # negotiate handle-bearing payloads at HELLO time and the high-volume
    # messages (plans, boundary blocks, tile crops) travel as ~30-byte
    # handles into pool slabs instead of copies.  TCP peers and exhausted
    # pools fall back to by-value automatically, so this flag never
    # affects output — only copies.  ``pool_token`` is minted by the
    # supervisor per run (workers inherit it through cluster.json) and
    # scopes both the segment names and the crash-safe purge.
    use_shm_pool: bool = True
    shm_dir: Optional[str] = None
    pool_token: str = ""
    # Pin each worker process to one core (round-robin over the
    # affinity mask) so the scheduler cannot stack decoders on one core.
    pin_cores: bool = False
    # Runtime tile-partition policy (repro.parallel.partition):
    # "static" keeps the paper's fixed grid; "content" re-places
    # partition lines from per-macroblock coded size (splitter-side load
    # proxy); "feedback" re-equalizes from decoder-reported per-picture
    # busy time.  Either adaptive policy repartitions only at closed-GOP
    # boundaries via versioned LAYOUT_UPDATE messages — output stays
    # bit-identical to the static layout.  ``partition_ewma`` is the
    # smoothing factor of the policy's load estimate.
    partition_policy: str = "static"
    partition_ewma: float = 0.5
    # Broadcast tee (repro.net.bcast): when set, the root also publishes
    # the coded stream on a one-to-many broadcast channel whose control
    # socket binds this unix path — wall receivers subscribe there and
    # decode their tiles independently of the unicast splitter path.
    # Encoded once regardless of subscriber count.
    bcast_addr: Optional[str] = None
    bcast_fps: float = 30.0

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("wall needs at least one tile")
        if self.k < 1:
            raise ValueError("need at least one second-level splitter")
        if self.transport not in ("unix", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.queue_depth < 1:
            raise ValueError("need at least one receive buffer per splitter")
        if min(self.shutdown_drain_s, self.terminate_grace_s, self.teardown_kill_s) <= 0:
            raise ValueError("teardown budgets must be positive")
        if self.partition_policy not in ("static", "content", "feedback"):
            raise ValueError(
                f"unknown partition policy {self.partition_policy!r}"
            )
        if not 0.0 < self.partition_ewma <= 1.0:
            raise ValueError("partition_ewma must be in (0, 1]")

    @property
    def connect_policy(self):
        """The transport's :class:`~repro.net.channel.ConnectPolicy`."""
        from repro.net.channel import ConnectPolicy

        return ConnectPolicy(
            retry_interval=self.connect_retry_interval,
            backoff=self.connect_backoff,
            max_interval=self.connect_max_interval,
        )

    @property
    def pool_enabled(self) -> bool:
        """Whether this run may negotiate shared-memory handles at all.

        A unix-socket transport proves every peer shares the host (and
        hence the shm namespace); TCP peers may be remote, so they always
        ship by value.
        """
        return self.use_shm_pool and self.transport == "unix"

    # ------------------------------------------------------------------ #

    @property
    def n_tiles(self) -> int:
        return self.m * self.n

    @property
    def process_names(self) -> list:
        """Every worker process, in spawn order."""
        return (
            ["root"]
            + [f"split{s}" for s in range(self.k)]
            + [f"dec{t}" for t in range(self.n_tiles)]
        )

    def parsed_fail_at(self) -> Optional[Tuple[str, int]]:
        """``("dec1", 2)`` for ``fail_at="dec1@2"``; None when unset."""
        if not self.fail_at:
            return None
        m = re.fullmatch(r"(root|split\d+|dec\d+)@(\d+)", self.fail_at)
        if not m:
            raise ValueError(f"bad fail_at spec {self.fail_at!r}")
        return m.group(1), int(m.group(2))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WallConfig":
        return cls(**data)
