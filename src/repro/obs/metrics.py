"""A small process-wide metrics registry (counters, gauges, histograms).

Metrics are named, optionally labeled series — ``pages`` with labels
``structure=dual, phase=sweep`` is one series of the ``pages`` counter.
The registry renders to a flat JSON document whose counter section is
fully deterministic for a fixed workload; the CI perf-smoke job diffs it
against a checked-in baseline (``repro.bench.smoke``).

The design follows the Prometheus client model (metric → labeled
children) but stays dependency-free and synchronous: this is a
single-process research system, the registry is a measurement tool, not
a telemetry pipeline.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Mapping

_DEFAULT_BUCKETS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
    2500.0, 5000.0, 10000.0,
)


def _series_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,…}`` with sorted keys."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Metric:
    """Shared behaviour: a named family of labeled child series."""

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> None:
        if not name:
            raise ValueError("metric name must not be empty")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], "_Metric"] = {}

    def labels(self, **labelvalues: str):
        """The child series for one label-value assignment."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        if key not in self._children:
            child = type(self)(self.name, self.help)
            child._labelvalues = dict(  # type: ignore[attr-defined]
                zip(self.labelnames, key)
            )
            self._children[key] = child
        return self._children[key]

    def _labelmap(self) -> dict[str, str]:
        return getattr(self, "_labelvalues", {})

    def series(self) -> Iterator[tuple[str, "_Metric"]]:
        """All concrete series of this family as ``(flat key, series)``."""
        if self.labelnames:
            for child in self._children.values():
                yield _series_key(self.name, child._labelmap()), child
        else:
            yield self.name, self


class Counter(_Metric):
    """A monotonically increasing count."""

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if self.labelnames:
            raise ValueError(f"{self.name}: labeled counter needs .labels(...)")
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge(_Metric):
    """A value that can go up and down (space pages, hit ratio, …)."""

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def set(self, value: float) -> None:
        if self.labelnames:
            raise ValueError(f"{self.name}: labeled gauge needs .labels(...)")
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)


class Histogram(_Metric):
    """Bucketed observations (wall times, per-query page counts)."""

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = _DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +inf tail
        self.count = 0
        self.total = 0.0
        # None (not ±inf) before any observation: every serialization —
        # summary(), snapshots, prom export — must stay strict-JSON safe.
        self.min: float | None = None
        self.max: float | None = None
        #: Last exemplar per bucket index: ``{i: (labels, value)}``.
        #: Exemplars link an aggregate bucket back to one concrete
        #: request (a trace id); they are process-local observability
        #: breadcrumbs and deliberately do not merge across snapshots.
        self.exemplars: dict[int, tuple[dict, float]] = {}

    def labels(self, **labelvalues: str):
        child = super().labels(**labelvalues)
        child.buckets = self.buckets
        if len(child.bucket_counts) != len(self.buckets) + 1:
            child.bucket_counts = [0] * (len(self.buckets) + 1)
        return child

    def observe(self, value: float, exemplar: Mapping[str, str] | str | None = None) -> None:
        """Record one observation; ``exemplar`` optionally attaches a
        trace reference to the bucket the value lands in (a bare string
        is shorthand for ``{"trace_id": value}``)."""
        if self.labelnames:
            raise ValueError(f"{self.name}: labeled histogram needs .labels(...)")
        value = float(value)
        bucket = bisect_right(self.buckets, value)
        self.bucket_counts[bucket] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if exemplar is not None:
            if isinstance(exemplar, str):
                exemplar = {"trace_id": exemplar}
            self.exemplars[bucket] = (dict(exemplar), value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": {
                (f"le={b:g}" if i < len(self.buckets) else "le=+inf"): c
                for i, (b, c) in enumerate(
                    zip(self.buckets + (float("inf"),), self.bucket_counts)
                )
            },
        }

    def state(self) -> dict:
        """Mergeable raw state (used by :class:`RegistrySnapshot`)."""
        return {
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge_state(self, state: Mapping) -> None:
        """Accumulate another histogram's :meth:`state` into this one."""
        if tuple(state["buckets"]) != self.buckets:
            raise ValueError(
                f"{self.name}: cannot merge histogram with buckets "
                f"{tuple(state['buckets'])} into {self.buckets}"
            )
        for i, c in enumerate(state["bucket_counts"]):
            self.bucket_counts[i] += c
        self.count += state["count"]
        self.total += state["total"]
        for attr, pick in (("min", min), ("max", max)):
            theirs = state[attr]
            if theirs is not None:
                ours = getattr(self, attr)
                setattr(
                    self, attr, theirs if ours is None else pick(ours, theirs)
                )


class MetricsRegistry:
    """A namespace of metrics; one global default via :func:`get_registry`."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        #: Bumped by :meth:`reset`: a caller holding metric handles
        #: rebinds them when it changes.
        self.generation = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = _DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help, tuple(labelnames), buckets)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise ValueError(f"metric {name!r} already registered as "
                             f"{type(metric).__name__}")
        elif metric.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered with labelnames "
                f"{metric.labelnames}, got {tuple(labelnames)}"
            )
        elif metric.buckets != tuple(sorted(buckets)):
            raise ValueError(
                f"metric {name!r} already registered with buckets "
                f"{metric.buckets}, got {tuple(sorted(buckets))}"
            )
        return metric

    def _register(self, cls, name: str, help: str, labelnames) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, tuple(labelnames))
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(f"metric {name!r} already registered as "
                             f"{type(metric).__name__}")
        elif metric.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered with labelnames "
                f"{metric.labelnames}, got {tuple(labelnames)}"
            )
        return metric

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def collect(self) -> dict:
        """Flat snapshot: ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}`` with canonical sorted series keys."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for metric in self._metrics.values():
            for key, series in metric.series():
                if isinstance(series, Counter):
                    counters[key] = series.value
                elif isinstance(series, Histogram):
                    histograms[key] = series.summary()
                elif isinstance(series, Gauge):
                    gauges[key] = series.value
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def export_json(self, indent: int = 2) -> str:
        """The :meth:`collect` snapshot as a strict JSON document
        (``allow_nan=False``: any NaN/inf leak is a bug, not output)."""
        return json.dumps(
            self.collect(), indent=indent, sort_keys=False, allow_nan=False
        )

    def export_prom(self) -> str:
        """Prometheus text exposition format (the sidecar's ``/metrics``).

        Metric names are sanitized to the Prometheus charset, histogram
        buckets are emitted cumulatively with the standard ``_bucket``/
        ``_sum``/``_count`` suffixes, and label values are escaped per
        the exposition-format spec.
        """
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            pname = _prom_name(name)
            kind = {
                Counter: "counter", Gauge: "gauge", Histogram: "histogram"
            }[type(metric)]
            if metric.help:
                lines.append(f"# HELP {pname} {metric.help}")
            lines.append(f"# TYPE {pname} {kind}")
            for _key, series in metric.series():
                labels = series._labelmap()
                if isinstance(series, Histogram):
                    cumulative = 0
                    for i, (b, c) in enumerate(zip(
                        series.buckets + (float("inf"),),
                        series.bucket_counts,
                    )):
                        cumulative += c
                        le = "+Inf" if b == float("inf") else f"{b:g}"
                        line = (
                            f"{pname}_bucket"
                            f"{_prom_labels({**labels, 'le': le})} "
                            f"{cumulative}"
                        )
                        exemplar = series.exemplars.get(i)
                        if exemplar is not None:
                            ex_labels, ex_value = exemplar
                            line += (
                                f" # {_prom_labels(ex_labels)} {ex_value:g}"
                            )
                        lines.append(line)
                    lines.append(
                        f"{pname}_sum{_prom_labels(labels)} {series.total:g}"
                    )
                    lines.append(
                        f"{pname}_count{_prom_labels(labels)} {series.count}"
                    )
                else:
                    lines.append(
                        f"{pname}{_prom_labels(labels)} {series.value:g}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def snapshot(self) -> "RegistrySnapshot":
        """A picklable, mergeable snapshot of every family's raw state."""
        return RegistrySnapshot.from_registry(self)

    def absorb(self, snap: "RegistrySnapshot") -> None:
        """Accumulate a snapshot into this registry.

        Families are registered (strictly — a type/labelnames/buckets
        mismatch with an existing family raises), counter and gauge
        series *add* their values, histograms merge bucket-by-bucket.
        Gauges summing is deliberate: shard/worker gauges describe
        disjoint resources, so the fleet value is the sum.
        """
        for name, fam in snap.families.items():
            labelnames = tuple(fam["labelnames"])
            kind = fam["kind"]
            if kind == "histogram":
                metric = self.histogram(
                    name, fam["help"], labelnames, tuple(fam["buckets"])
                )
            elif kind == "counter":
                metric = self.counter(name, fam["help"], labelnames)
            else:
                metric = self.gauge(name, fam["help"], labelnames)
            for values, state in fam["series"]:
                series = (
                    metric.labels(**dict(zip(labelnames, values)))
                    if labelnames
                    else metric
                )
                if kind == "histogram":
                    series.merge_state(state)
                else:
                    series.value += state

    def reset(self) -> None:
        """Drop every metric (test isolation)."""
        self._metrics.clear()
        self.generation += 1


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a metric name to the Prometheus charset."""
    name = _PROM_BAD.sub("_", name)
    return "_" + name if name[:1].isdigit() else name


def _prom_escape(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _prom_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_PROM_BAD.sub("_", k)}="{_prom_escape(str(v))}"'
        for k, v in labels.items()
    )
    return "{" + inner + "}"


@dataclass
class RegistrySnapshot:
    """Raw, mergeable state of a registry — the fleet-aggregation unit.

    Shards record into private registries; a snapshot of each travels
    back (snapshots are plain data, so they also pickle across process
    boundaries), gets relabeled via :meth:`with_labels` (``shard=i``),
    and merges into the global registry through
    :meth:`MetricsRegistry.absorb` — which is how ``repro smoke
    --shards N`` and ``/metrics`` see sharded traffic.

    ``families`` maps metric name to ``{"kind", "help", "labelnames",
    "buckets" (histograms), "series": [(labelvalues, state), ...]}``
    where ``state`` is a float for counters/gauges and a
    :meth:`Histogram.state` dict for histograms.
    """

    families: dict[str, dict] = field(default_factory=dict)

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "RegistrySnapshot":
        families: dict[str, dict] = {}
        for name, metric in registry._metrics.items():
            kind = {
                Counter: "counter", Gauge: "gauge", Histogram: "histogram"
            }[type(metric)]
            series = []
            for _key, child in metric.series():
                values = tuple(child._labelmap().values())
                state = (
                    child.state()
                    if isinstance(child, Histogram)
                    else child.value
                )
                series.append((values, state))
            fam: dict = {
                "kind": kind,
                "help": metric.help,
                "labelnames": tuple(metric.labelnames),
                "series": series,
            }
            if isinstance(metric, Histogram):
                fam["buckets"] = tuple(metric.buckets)
            families[name] = fam
        return cls(families)

    def merge(self, other: "RegistrySnapshot") -> "RegistrySnapshot":
        """Accumulate ``other`` into this snapshot (returns ``self``).

        Same strictness as :meth:`MetricsRegistry.absorb`: merging two
        families with mismatched kind, labelnames, or buckets raises.
        """
        for name, theirs in other.families.items():
            ours = self.families.get(name)
            if ours is None:
                self.families[name] = {
                    **theirs, "series": list(theirs["series"])
                }
                continue
            for attr in ("kind", "labelnames"):
                if ours[attr] != theirs[attr]:
                    raise ValueError(
                        f"metric {name!r}: cannot merge {attr} "
                        f"{theirs[attr]} into {ours[attr]}"
                    )
            if ours.get("buckets") != theirs.get("buckets"):
                raise ValueError(
                    f"metric {name!r}: cannot merge buckets "
                    f"{theirs.get('buckets')} into {ours.get('buckets')}"
                )
            index = {values: i for i, (values, _) in enumerate(ours["series"])}
            for values, state in theirs["series"]:
                i = index.get(values)
                if i is None:
                    ours["series"].append((values, state))
                elif ours["kind"] == "histogram":
                    merged = _merge_hist_states(ours["series"][i][1], state)
                    ours["series"][i] = (values, merged)
                else:
                    ours["series"][i] = (values, ours["series"][i][1] + state)
        return self

    def with_labels(self, prefix: str = "", **labels: str) -> "RegistrySnapshot":
        """A relabeled copy: every family name gains ``prefix`` and every
        series gains the given constant labels (``shard="0"``, …).

        Prefixing keeps relabeled families (``shard_exec_batches``) from
        colliding with the same-named unlabeled globals under the strict
        registration rules.
        """
        extra_names = tuple(sorted(labels))
        extra_values = tuple(str(labels[k]) for k in extra_names)
        families: dict[str, dict] = {}
        for name, fam in self.families.items():
            clash = set(extra_names) & set(fam["labelnames"])
            if clash:
                raise ValueError(
                    f"metric {name!r} already has labels {sorted(clash)}"
                )
            families[prefix + name] = {
                **fam,
                "labelnames": tuple(fam["labelnames"]) + extra_names,
                "series": [
                    (tuple(values) + extra_values, state)
                    for values, state in fam["series"]
                ],
            }
        return RegistrySnapshot(families)

    def to_dict(self) -> dict:
        """JSON-ready form (tuples become lists)."""
        return {
            "families": {
                name: {
                    **fam,
                    "labelnames": list(fam["labelnames"]),
                    **(
                        {"buckets": list(fam["buckets"])}
                        if "buckets" in fam
                        else {}
                    ),
                    "series": [
                        [list(values), state]
                        for values, state in fam["series"]
                    ],
                }
                for name, fam in self.families.items()
            }
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "RegistrySnapshot":
        families: dict[str, dict] = {}
        for name, fam in doc["families"].items():
            out = {
                **fam,
                "labelnames": tuple(fam["labelnames"]),
                "series": [
                    (tuple(values), state) for values, state in fam["series"]
                ],
            }
            if "buckets" in fam:
                out["buckets"] = tuple(fam["buckets"])
            families[name] = out
        return cls(families)


def _merge_hist_states(a: Mapping, b: Mapping) -> dict:
    """Merge two :meth:`Histogram.state` dicts (same buckets required)."""
    if tuple(a["buckets"]) != tuple(b["buckets"]):
        raise ValueError(
            f"cannot merge histogram states with buckets "
            f"{tuple(b['buckets'])} into {tuple(a['buckets'])}"
        )
    mins = [m for m in (a["min"], b["min"]) if m is not None]
    maxs = [m for m in (a["max"], b["max"]) if m is not None]
    return {
        "buckets": list(a["buckets"]),
        "bucket_counts": [
            x + y for x, y in zip(a["bucket_counts"], b["bucket_counts"])
        ],
        "count": a["count"] + b["count"],
        "total": a["total"] + b["total"],
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
    }


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry
