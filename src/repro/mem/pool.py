"""Arena-style shared-memory slab pool with generation-tagged handles.

One :class:`FramePool` is a single shared-memory segment divided into
fixed-size **slabs** grouped in size classes (small slabs for MEI boundary
blocks, large ones for compiled plans and tile-frame crops).  The process
that *creates* the pool is its **owner** and sole allocator; any process
that *opens* it is a **consumer** that maps slabs read-only-by-convention
and releases leases when done.

Protocol, per payload:

1. the owner calls :meth:`FramePool.alloc` — a free slab of the smallest
   fitting class is claimed, its generation bumped, its refcount set to
   the lease count — and writes the payload into ``lease.buf``;
2. a 24-ish byte :class:`Handle` (pool name, slab index, generation,
   payload size) travels over the socket instead of the payload;
3. the consumer maps the pool (cached by :class:`PoolRegistry`), reads
   straight out of shared memory via :meth:`FramePool.view`, and calls
   :meth:`FramePool.release` — a refcount decrement written directly into
   the segment, so no release backchannel messages exist;
4. the owner reuses any slab whose refcount has returned to zero.

Generation tags catch use-after-release bugs: a handle whose generation no
longer matches the slab header raises :class:`StaleHandle` instead of
silently reading recycled bytes.  Double releases raise
:class:`DoubleRelease`.  When every slab of every fitting class is still
leased, :meth:`alloc` raises :class:`PoolExhausted` and the caller falls
back to the by-value wire encoding — the pool degrades, never deadlocks.

Segments are plain files in ``/dev/shm`` (tmpfs; falls back to the
temp dir elsewhere), created with ``mkstemp``-style exclusivity and
mapped with :mod:`mmap`.  ``multiprocessing.shared_memory`` is *not* used:
on Python < 3.13 its resource tracker registers every attach and unlinks
segments it thinks leaked, which fights the crash-safe ownership rules
here (the supervisor, not a tracker, reaps pools of SIGKILLed workers via
:func:`purge_pools`).  Every file name starts with ``repro-pool-`` so
leak checks can find strays with a single glob.

Crash safety: the owner unlinks its segment in ``destroy()``; if it dies
abruptly, the supervisor purges every segment carrying the run's pool
token.  A consumer crash leaks at most a refcount (slabs stay leased);
the owner's run ends with the supervisor purge either way, so no segment
outlives the run.
"""

from __future__ import annotations

import mmap
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.perf.telemetry import registry

#: Every pool file name starts with this; leak checks glob for it.
POOL_PREFIX = "repro-pool-"

_MAGIC = 0x4C4F5052  # "RPOL"
_VERSION = 1

# File header: magic u32 | version u32 | n_slabs u32 | reserved u32
_FILE_HEAD = "<IIII"
_FILE_HEAD_SIZE = struct.calcsize(_FILE_HEAD)

# Per-slab record: offset u64 | size u64 | generation u32 | refcount i32 |
# used u64.  Offset/size are written once at create time; generation/used
# are owner-written at alloc time (only while refcount == 0, so no
# consumer is concurrently touching the slab); refcount is set by the
# owner at alloc and decremented in place by consumers at release.
_SLAB_REC = "<QQIiQ"
_SLAB_REC_SIZE = struct.calcsize(_SLAB_REC)

# Handle wire format: slab u32 | generation u32 | nbytes u64 | name-len u16
# followed by the UTF-8 pool name.
_HANDLE_HEAD = "<IIQH"
_HANDLE_HEAD_SIZE = struct.calcsize(_HANDLE_HEAD)


class PoolError(RuntimeError):
    """Base class for frame-pool failures."""


class PoolExhausted(PoolError):
    """No free slab large enough; caller should fall back to by-value."""


class StaleHandle(PoolError):
    """The handle's generation no longer matches the slab (use-after-free)."""


class DoubleRelease(PoolError):
    """A lease was released more times than it was granted."""


def default_shm_dir() -> Path:
    """``/dev/shm`` when the host has it (Linux tmpfs), else the temp dir.

    Overridable with the ``REPRO_SHM_DIR`` environment variable — tests
    point it at a scratch directory so leak checks cannot race other runs.
    """
    env = os.environ.get("REPRO_SHM_DIR")
    if env:
        return Path(env)
    shm = Path("/dev/shm")
    return shm if shm.is_dir() else Path(tempfile.gettempdir())


def purge_pools(token: str, shm_dir: Optional[Path] = None) -> List[str]:
    """Unlink every pool segment whose name carries ``token``.

    The supervisor's crash-safe teardown: pools are named
    ``repro-pool-<token>-<proc>``, so after the process tree is dead one
    glob reaps everything a SIGKILLed worker left behind.  Returns the
    file names removed (empty on a clean run).
    """
    d = Path(shm_dir) if shm_dir is not None else default_shm_dir()
    removed: List[str] = []
    for path in d.glob(f"{POOL_PREFIX}{token}-*"):
        try:
            path.unlink()
            removed.append(path.name)
        except OSError:
            pass
    return removed


@dataclass(frozen=True)
class Handle:
    """A generation-tagged reference to one leased slab's payload."""

    pool: str  # full file name, including the repro-pool- prefix
    slab: int
    generation: int
    nbytes: int

    def pack(self) -> bytes:
        name = self.pool.encode()
        return (
            struct.pack(
                _HANDLE_HEAD, self.slab, self.generation, self.nbytes, len(name)
            )
            + name
        )

    @staticmethod
    def unpack(buf, offset: int = 0) -> Tuple["Handle", int]:
        slab, gen, nbytes, nlen = struct.unpack_from(_HANDLE_HEAD, buf, offset)
        off = offset + _HANDLE_HEAD_SIZE
        name = bytes(buf[off : off + nlen]).decode()
        return Handle(pool=name, slab=slab, generation=gen, nbytes=nbytes), off + nlen


@dataclass
class Lease:
    """An owner-side claim on one slab: write ``buf``, ship ``handle``."""

    handle: Handle
    buf: memoryview  # writable view of exactly handle.nbytes


@dataclass
class PoolStats:
    """Owner/consumer-side accounting (also mirrored into the metrics
    registry as ``pool.*`` counters for the trace stream)."""

    leases: int = 0
    releases: int = 0
    lease_bytes: int = 0
    exhausted: int = 0
    hwm_slabs: int = 0  # most slabs simultaneously leased (owner side)

    def to_dict(self) -> Dict[str, int]:
        return {
            "leases": self.leases,
            "releases": self.releases,
            "lease_bytes": self.lease_bytes,
            "exhausted": self.exhausted,
            "hwm_slabs": self.hwm_slabs,
        }


class FramePool:
    """One shared-memory segment of slabs; see the module docstring."""

    def __init__(self, path: Path, mm: mmap.mmap, owner: bool):
        self.path = path
        self.name = path.name
        self._mm = mm
        self._owner = owner
        self._closed = False
        self.stats = PoolStats()
        (magic, version, self.n_slabs, _r) = struct.unpack_from(_FILE_HEAD, mm, 0)
        if magic != _MAGIC:
            raise PoolError(f"{self.name}: not a frame pool (magic {magic:#x})")
        if version != _VERSION:
            raise PoolError(f"{self.name}: pool version {version}, expected {_VERSION}")
        # Immutable geometry, read once (owner wrote it before publishing).
        self._offsets: List[int] = []
        self._sizes: List[int] = []
        for s in range(self.n_slabs):
            off, size, _g, _rc, _u = struct.unpack_from(
                _SLAB_REC, mm, self._rec_off(s)
            )
            self._offsets.append(off)
            self._sizes.append(size)
        # Slabs lie class by class, ascending: the slab numbers of each size
        # class, and per class the owner's rotating scan cursor, so slab
        # reuse spreads writes out.
        self._classes: Dict[int, range] = {}
        for s, size in enumerate(self._sizes):
            first = self._classes[size].start if size in self._classes else s
            self._classes[size] = range(first, s + 1)
        self._cursor = {size: slabs.start for size, slabs in self._classes.items()}

    # ------------------------------------------------------------------ #
    # creation / attach
    # ------------------------------------------------------------------ #

    @staticmethod
    def _rec_off(slab: int) -> int:
        return _FILE_HEAD_SIZE + slab * _SLAB_REC_SIZE

    @classmethod
    def create(
        cls,
        name: str,
        classes: Sequence[Tuple[int, int]],
        shm_dir: Optional[Path] = None,
    ) -> "FramePool":
        """Create and own a pool named ``repro-pool-<name>``.

        ``classes`` is ``[(slab_bytes, count), ...]``; slabs are laid out
        class by class.  Allocation picks the smallest class that fits, so
        order the classes small-to-large for best packing (they are sorted
        here regardless).
        """
        classes = sorted((int(b), int(c)) for b, c in classes)
        if not classes or any(b <= 0 or c <= 0 for b, c in classes):
            raise ValueError("need at least one (slab_bytes>0, count>0) class")
        n_slabs = sum(c for _b, c in classes)
        meta = _FILE_HEAD_SIZE + n_slabs * _SLAB_REC_SIZE
        total = meta + sum(b * c for b, c in classes)

        d = Path(shm_dir) if shm_dir is not None else default_shm_dir()
        d.mkdir(parents=True, exist_ok=True)
        path = d / f"{POOL_PREFIX}{name}"
        fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
        try:
            # Reserve the blocks up front: a tmpfs with too little room
            # must fail here with ENOSPC (cleanly degradable to by-value),
            # not SIGBUS the first writer of an unbacked page.
            os.ftruncate(fd, total)
            if hasattr(os, "posix_fallocate"):
                try:
                    os.posix_fallocate(fd, 0, total)
                except OSError:
                    path.unlink(missing_ok=True)
                    raise
            mm = mmap.mmap(fd, total)
        finally:
            os.close(fd)
        struct.pack_into(_FILE_HEAD, mm, 0, _MAGIC, _VERSION, n_slabs, 0)
        off = meta
        slab = 0
        for size, count in classes:
            for _ in range(count):
                struct.pack_into(_SLAB_REC, mm, cls._rec_off(slab), off, size, 0, 0, 0)
                off += size
                slab += 1
        return cls(path, mm, owner=True)

    @classmethod
    def open(cls, name_or_path, shm_dir: Optional[Path] = None) -> "FramePool":
        """Attach to an existing pool as a consumer (never unlinks)."""
        p = Path(name_or_path)
        if p.name == str(name_or_path):  # bare name, not a path
            d = Path(shm_dir) if shm_dir is not None else default_shm_dir()
            p = d / p.name
        fd = os.open(p, os.O_RDWR)
        try:
            mm = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        return cls(p, mm, owner=False)

    # ------------------------------------------------------------------ #
    # owner side: alloc
    # ------------------------------------------------------------------ #

    def alloc(self, nbytes: int, leases: int = 1) -> Lease:
        """Claim a free slab that fits ``nbytes`` for ``leases`` consumers.

        Raises :class:`PoolExhausted` when every fitting slab is still
        leased — the caller's cue to ship by value instead.
        """
        if not self._owner:
            raise PoolError(f"{self.name}: only the pool owner can allocate")
        if self._closed:
            raise PoolError(f"{self.name}: pool is closed")
        if nbytes <= 0 or leases < 1:
            raise ValueError("alloc needs nbytes > 0 and leases >= 1")
        mm = self._mm
        n = self.n_slabs
        for s in self._candidates(nbytes):
            _off, _size, gen, refcount, _used = struct.unpack_from(
                _SLAB_REC, mm, self._rec_off(s)
            )
            if refcount != 0:
                continue
            gen = (gen + 1) & 0xFFFFFFFF
            struct.pack_into(
                _SLAB_REC, mm, self._rec_off(s),
                self._offsets[s], self._sizes[s], gen, leases, nbytes,
            )
            self._cursor[self._sizes[s]] = s + 1
            self.stats.leases += 1
            self.stats.lease_bytes += nbytes
            in_use = self.slabs_in_use()
            if in_use > self.stats.hwm_slabs:
                self.stats.hwm_slabs = in_use
            reg = registry()
            reg.counter("pool.leases").inc()
            reg.counter("pool.lease_bytes").inc(nbytes)
            reg.gauge("pool.hwm_slabs").set(self.stats.hwm_slabs)
            handle = Handle(
                pool=self.name, slab=s, generation=gen, nbytes=nbytes
            )
            view = memoryview(mm)[self._offsets[s] : self._offsets[s] + nbytes]
            return Lease(handle=handle, buf=view)
        self.stats.exhausted += 1
        registry().counter("pool.exhausted").inc()
        raise PoolExhausted(
            f"{self.name}: no free slab >= {nbytes} bytes ({n} slabs, all leased)"
        )

    def _candidates(self, nbytes: int) -> Iterator[int]:
        """Slabs that fit ``nbytes``, in the order to try them: the smallest
        class that fits first, a larger one only once that is all leased,
        each class from its cursor round.  (A small payload that took
        whichever slab came next would exhaust the big class for the
        payloads that fit nowhere else: boundary blocks ate frame slabs.)"""
        for size, slabs in self._classes.items():
            if size >= nbytes:
                start = self._cursor[size] - slabs.start
                for probe in range(len(slabs)):
                    yield slabs[(start + probe) % len(slabs)]

    def cancel(self, lease: Lease) -> None:
        """Owner-side unwind of an unsent lease (send failed / fell back)."""
        h = lease.handle
        self._check_generation(h)
        struct.pack_into("<i", self._mm, self._rec_off(h.slab) + 20, 0)
        self.stats.releases += 1

    # ------------------------------------------------------------------ #
    # consumer side: view / release
    # ------------------------------------------------------------------ #

    def _check_generation(self, h: Handle) -> Tuple[int, int]:
        if h.slab < 0 or h.slab >= self.n_slabs:
            raise PoolError(f"{self.name}: slab {h.slab} out of range")
        _off, _size, gen, refcount, used = struct.unpack_from(
            _SLAB_REC, self._mm, self._rec_off(h.slab)
        )
        if gen != h.generation:
            raise StaleHandle(
                f"{self.name}: slab {h.slab} is at generation {gen}, "
                f"handle says {h.generation}"
            )
        return refcount, used

    def view(self, h: Handle) -> memoryview:
        """Zero-copy view of a leased payload (generation-checked)."""
        refcount, used = self._check_generation(h)
        if refcount <= 0:
            raise StaleHandle(f"{self.name}: slab {h.slab} has no active lease")
        if h.nbytes > used:
            raise PoolError(
                f"{self.name}: handle wants {h.nbytes} bytes, slab holds {used}"
            )
        off = self._offsets[h.slab]
        return memoryview(self._mm)[off : off + h.nbytes]

    def release(self, h: Handle) -> None:
        """Return one lease; the slab frees when the count reaches zero."""
        refcount, _used = self._check_generation(h)
        if refcount <= 0:
            raise DoubleRelease(
                f"{self.name}: slab {h.slab} released more times than leased"
            )
        struct.pack_into("<i", self._mm, self._rec_off(h.slab) + 20, refcount - 1)
        self.stats.releases += 1
        registry().counter("pool.releases").inc()

    # ------------------------------------------------------------------ #
    # lifecycle / introspection
    # ------------------------------------------------------------------ #

    def slabs_in_use(self) -> int:
        """How many slabs currently hold an unreleased lease."""
        n = 0
        for s in range(self.n_slabs):
            refcount = struct.unpack_from("<i", self._mm, self._rec_off(s) + 20)[0]
            if refcount > 0:
                n += 1
        return n

    def close(self) -> None:
        """Unmap.  Consumers stop here; owners go on to :meth:`destroy`."""
        if self._closed:
            return
        self._closed = True
        try:
            self._mm.close()
        except BufferError:
            # Outstanding memoryviews pin the mapping.  Leave it mapped —
            # the file can still be unlinked and the map dies with the
            # process; failing teardown over a lingering view would turn a
            # consumer bug into a supervisor crash.
            pass

    def destroy(self) -> None:
        """Owner teardown: unmap and unlink the segment."""
        self.close()
        if self._owner:
            try:
                self.path.unlink()
            except OSError:
                pass

    def __enter__(self) -> "FramePool":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy() if self._owner else self.close()


class PoolRegistry:
    """Consumer-side cache of attached pools, keyed by segment name.

    A decoder receives handles minted by several peers; the registry opens
    each peer's pool on first sight and reuses the mapping after that.
    ``view``/``release`` dispatch on the handle's pool name.
    """

    def __init__(self, shm_dir: Optional[Path] = None):
        self.shm_dir = Path(shm_dir) if shm_dir is not None else default_shm_dir()
        self._pools: Dict[str, FramePool] = {}

    def _pool(self, name: str) -> FramePool:
        pool = self._pools.get(name)
        if pool is None:
            if not name.startswith(POOL_PREFIX):
                raise PoolError(f"refusing to open non-pool segment {name!r}")
            pool = FramePool.open(self.shm_dir / name)
            self._pools[name] = pool
        return pool

    def view(self, h: Handle) -> memoryview:
        return self._pool(h.pool).view(h)

    def release(self, h: Handle) -> None:
        self._pool(h.pool).release(h)

    def close(self) -> None:
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    def __enter__(self) -> "PoolRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
