"""Timing/bandwidth metrics collected by the timed system, plus the
labeled metric-family layer of the live observability plane.

:class:`RuntimeBreakdown` reproduces Figure 7's five buckets exactly as the
paper defines them (§5.4):

- **work** — the time to decode and display a picture;
- **serve** — the time to prepare data for remote decoders;
- **receive** — the time waiting for sub-pictures from splitters;
- **wait_remote** — the time waiting for remote blocks;
- **ack** — the time to send acks to splitters.

The family layer (:class:`CounterFamily` / :class:`GaugeFamily` /
:class:`HistogramFamily`, minted from :func:`families`) adds Prometheus-
style **labels** on top of the flat name→metric registry in
:mod:`repro.perf.telemetry`: one family name, many label-keyed children
(``pacer_drops_total{rung="skip-b"}``).  :func:`encode_prometheus` renders
a JSON snapshot — families plus the flat registry plus per-channel wire
stats — into the Prometheus text exposition format, which is what the
``VERB_STATS`` service verb and the optional ``/metrics`` HTTP listener
serve.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class RuntimeBreakdown:
    work: float = 0.0
    serve: float = 0.0
    receive: float = 0.0
    wait_remote: float = 0.0
    ack: float = 0.0

    BUCKETS = ("work", "serve", "receive", "wait_remote", "ack")

    @property
    def total(self) -> float:
        return self.work + self.serve + self.receive + self.wait_remote + self.ack

    def fractions(self) -> Dict[str, float]:
        t = self.total
        if t <= 0:
            return {b: 0.0 for b in self.BUCKETS}
        return {b: getattr(self, b) / t for b in self.BUCKETS}

    def per_frame_ms(self, n_frames: int) -> Dict[str, float]:
        return {b: 1e3 * getattr(self, b) / max(1, n_frames) for b in self.BUCKETS}

    def add(self, bucket: str, dt: float) -> None:
        if bucket not in self.BUCKETS:
            raise KeyError(bucket)
        setattr(self, bucket, getattr(self, bucket) + dt)


@dataclass
class StageTimes:
    """Wall-clock split of the two-phase decode (entropy vs. pixels).

    - **parse** — VLC/entropy decoding (inherently serial);
    - **plan** — assembling the flat reconstruction plan;
    - **execute** — the batched dequant/IDCT/MC/scatter phase;
    - **wire** — encoding/decoding messages at the process boundary (plan
      and frame codecs; zero for in-process decoders).
    """

    parse: float = 0.0
    plan: float = 0.0
    execute: float = 0.0
    wire: float = 0.0
    pictures: int = 0

    STAGES = ("parse", "plan", "execute", "wire")

    @property
    def total(self) -> float:
        return self.parse + self.plan + self.execute + self.wire

    @property
    def reconstruct(self) -> float:
        """Everything that is not entropy decoding."""
        return self.plan + self.execute

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        if name not in self.STAGES:
            raise KeyError(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            setattr(self, name, getattr(self, name) + time.perf_counter() - t0)

    def per_picture_ms(self) -> Dict[str, float]:
        n = max(1, self.pictures)
        return {s: 1e3 * getattr(self, s) / n for s in self.STAGES}

    def merge(self, other: "StageTimes") -> None:
        for s in self.STAGES:
            setattr(self, s, getattr(self, s) + getattr(other, s))
        self.pictures += other.pictures

    def as_dict(self) -> Dict[str, float]:
        """JSON-safe snapshot, used by the cross-process trace stream."""
        out: Dict[str, float] = {s: getattr(self, s) for s in self.STAGES}
        out["pictures"] = self.pictures
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "StageTimes":
        st = cls(**{s: float(data.get(s, 0.0)) for s in cls.STAGES})
        st.pictures = int(data.get("pictures", 0))
        return st


@dataclass
class NodeBandwidth:
    """Send/receive byte counts for one node (or one channel) over a run."""

    sent: int = 0
    received: int = 0

    def mbps(self, duration: float) -> Tuple[float, float]:
        """(send, receive) rates in MB/s; zero for a degenerate duration."""
        if duration <= 0:
            return (0.0, 0.0)
        return (self.sent / duration / 1e6, self.received / duration / 1e6)


def average_breakdown(parts: List[RuntimeBreakdown]) -> RuntimeBreakdown:
    out = RuntimeBreakdown()
    if not parts:
        return out
    for b in RuntimeBreakdown.BUCKETS:
        out.add(b, sum(getattr(p, b) for p in parts) / len(parts))
    return out


# --------------------------------------------------------------------- #
# labeled metric families (the obs-plane exposition layer)
# --------------------------------------------------------------------- #

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(
    labelnames: Tuple[str, ...], labels: Dict[str, str]
) -> LabelKey:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared "
            f"labelnames {sorted(labelnames)}"
        )
    return tuple((k, str(labels[k])) for k in labelnames)


class MetricFamily:
    """One named family of label-keyed children (Prometheus data model).

    A family with no labelnames has exactly one child, reached with
    ``labels()``.  Children are created on first use and live for the
    family's lifetime; callers must keep label cardinality bounded
    (rung names, daemon names — never session ids).
    """

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[LabelKey, object] = {}

    def _new_child(self):  # pragma: no cover - subclasses override
        raise NotImplementedError

    def labels(self, **labels: str):
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    def samples(self) -> List[Tuple[Dict[str, str], object]]:
        with self._lock:
            return [
                (dict(key), child) for key, child in self._children.items()
            ]

    def snapshot(self) -> Dict:
        """JSON-safe dump: kind, labelnames, one sample per child."""
        out = {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "samples": [],
        }
        for labels, child in self.samples():
            out["samples"].append(
                {"labels": labels, **self._sample_value(child)}
            )
        return out

    def _sample_value(self, child) -> Dict:
        return {"value": child.value}


class CounterFamily(MetricFamily):
    kind = "counter"

    def _new_child(self):
        from repro.perf.telemetry import Counter

        return Counter()

    def inc(self, n: float = 1, **labels: str) -> None:
        self.labels(**labels).inc(n)


class GaugeFamily(MetricFamily):
    kind = "gauge"

    def _new_child(self):
        from repro.perf.telemetry import Gauge

        return Gauge()

    def set(self, v: float, **labels: str) -> None:
        self.labels(**labels).set(v)


class HistogramFamily(MetricFamily):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        bounds: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, help, labelnames)
        if bounds is None:
            from repro.perf.telemetry import DEFAULT_BOUNDS

            bounds = DEFAULT_BOUNDS
        self.bounds = tuple(float(b) for b in bounds)

    def _new_child(self):
        from repro.perf.telemetry import Histogram

        return Histogram(self.bounds)

    def observe(self, v: float, **labels: str) -> None:
        self.labels(**labels).observe(v)

    def _sample_value(self, child) -> Dict:
        return {
            "hist": {
                "count": child.count,
                "sum": round(child.sum, 9),
                "buckets": [
                    [("+Inf" if le == float("inf") else le), c]
                    for le, c in child.buckets()
                ],
            }
        }


class FamilyRegistry:
    """Create-or-get store of metric families, snapshotted as one dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def _get(self, cls, name: str, **kwargs) -> MetricFamily:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = cls(name, **kwargs)
            elif not isinstance(fam, cls):
                raise ValueError(
                    f"family {name!r} already registered as {fam.kind}"
                )
            return fam

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> CounterFamily:
        return self._get(CounterFamily, name, help=help, labelnames=labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> GaugeFamily:
        return self._get(GaugeFamily, name, help=help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        bounds: Optional[Sequence[float]] = None,
    ) -> HistogramFamily:
        return self._get(
            HistogramFamily, name, help=help, labelnames=labelnames,
            bounds=bounds,
        )

    def snapshot(self) -> Dict[str, Dict]:
        with self._lock:
            fams = list(self._families.values())
        return {fam.name: fam.snapshot() for fam in fams}

    def reset(self) -> None:
        with self._lock:
            self._families.clear()


_FAMILIES = FamilyRegistry()


def families() -> FamilyRegistry:
    """The process-global family registry (one per worker process)."""
    return _FAMILIES


def _fresh_families_in_child() -> None:
    """After ``fork()`` the child gets an empty registry with a new lock
    (replaced, never acquired: the parent's may have been held at the fork)."""
    global _FAMILIES
    _FAMILIES = FamilyRegistry()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_families_in_child)


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #


def _prom_name(name: str) -> str:
    out = []
    for i, c in enumerate(name):
        if c.isalnum() or c == "_" or (c == ":" and i):
            out.append(c)
        else:
            out.append("_")
    s = "".join(out)
    if s and s[0].isdigit():
        s = "_" + s
    return s


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="' + str(v).replace("\\", r"\\")
        .replace('"', r"\"").replace("\n", r"\n") + '"'
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _prom_num(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    f = float(v)
    return repr(int(f)) if f == int(f) else repr(f)


def encode_prometheus(snapshot: Dict, prefix: str = "repro") -> str:
    """Render an obs-plane JSON snapshot as Prometheus text exposition.

    ``snapshot`` is the document :func:`repro.obs.obs_snapshot` builds:
    ``families`` (this module's labeled families), ``metrics`` (the flat
    :mod:`repro.perf.telemetry` registry) and ``channels`` (per-channel
    wire stats, closed-channel rollup included).  Flat dotted names are
    sanitized (``pool.leases`` → ``repro_pool_leases``); channels render
    as one gauge per stat with a ``channel`` label.
    """
    L: List[str] = []

    for name, fam in sorted(snapshot.get("families", {}).items()):
        pname = _prom_name(name)
        if fam.get("help"):
            L.append(f"# HELP {pname} {fam['help']}")
        L.append(f"# TYPE {pname} {fam.get('kind', 'untyped')}")
        for sample in fam.get("samples", []):
            labels = sample.get("labels", {})
            if "hist" in sample:
                h = sample["hist"]
                for le, c in h.get("buckets", []):
                    le_s = le if le == "+Inf" else _prom_num(float(le))
                    L.append(
                        f"{pname}_bucket"
                        + _prom_labels({**labels, "le": le_s})
                        + f" {int(c)}"
                    )
                L.append(
                    f"{pname}_sum{_prom_labels(labels)} "
                    f"{_prom_num(h.get('sum', 0.0))}"
                )
                L.append(
                    f"{pname}_count{_prom_labels(labels)} "
                    f"{int(h.get('count', 0))}"
                )
            else:
                L.append(
                    f"{pname}{_prom_labels(labels)} "
                    f"{_prom_num(sample.get('value', 0.0))}"
                )

    metrics = snapshot.get("metrics", {})
    for name, v in sorted(metrics.get("counters", {}).items()):
        pname = f"{prefix}_{_prom_name(name)}"
        L.append(f"# TYPE {pname} counter")
        L.append(f"{pname} {_prom_num(v)}")
    for name, v in sorted(metrics.get("gauges", {}).items()):
        pname = f"{prefix}_{_prom_name(name)}"
        L.append(f"# TYPE {pname} gauge")
        L.append(f"{pname} {_prom_num(v)}")
    for name, h in sorted(metrics.get("histograms", {}).items()):
        pname = f"{prefix}_{_prom_name(name)}_seconds"
        L.append(f"# TYPE {pname} summary")
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            if key in h:
                L.append(
                    f"{pname}{_prom_labels({'quantile': q})} "
                    f"{_prom_num(h[key])}"
                )
        L.append(f"{pname}_sum {_prom_num(h.get('sum', 0.0))}")
        L.append(f"{pname}_count {int(h.get('count', 0))}")

    chan_stats = snapshot.get("channels", {})
    if chan_stats:
        stat_names = sorted({k for st in chan_stats.values() for k in st})
        for stat in stat_names:
            pname = f"{prefix}_channel_{_prom_name(stat)}"
            L.append(f"# TYPE {pname} gauge")
            for chan, st in sorted(chan_stats.items()):
                if stat in st:
                    L.append(
                        f"{pname}{_prom_labels({'channel': chan})} "
                        f"{_prom_num(st[stat])}"
                    )

    return "\n".join(L) + ("\n" if L else "")
