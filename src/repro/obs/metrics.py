"""A small in-process metrics registry: counters, gauges, histograms.

The registry is the run-introspection substrate the engine publishes into:
step counts, coalesced grid ticks, end-time-heap pops, journal drains,
queue depth, backfill reservations, per-phase wall-time histograms. It is
deliberately dependency-free (no prometheus client) and snapshot-oriented —
:meth:`MetricsRegistry.snapshot` returns one nested dict, exportable as
JSON or CSV — because the consumers in this repo are the CLI's
``--metrics-out`` and the tests, not a scrape endpoint.
The naming follows the prometheus conventions (``*_total`` counters,
unit-suffixed gauges/histograms) so wiring a real exporter later is a
rename-free change.

Hot-path cost discipline mirrors the tracer: components never consult the
registry per step — they keep plain integer attributes and the engine
publishes them once at finalisation. Only explicitly live instruments (the
queue-depth gauge, the per-phase histograms) are updated inside the loop,
and only when observability is enabled.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_left
from pathlib import Path
from typing import Any, TypeVar

from ..exceptions import ConfigurationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """Last-set value (plus the maximum ever set, for peak tracking)."""

    __slots__ = ("name", "help", "value", "max_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.max_value = -math.inf

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value


#: Default histogram bucket upper bounds — geometric, wide enough for both
#: microsecond phase timings and second-scale waits.
_DEFAULT_BOUNDS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0,
)


class Histogram:
    """Cumulative-bucket histogram with count/sum/min/max.

    ``observe`` costs one bisect over a short static bound tuple — cheap
    enough for the per-phase wall histograms the engine feeds per step when
    observability is on.
    """

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(
        self, name: str, help: str = "", *, bounds: tuple[float, ...] | None = None
    ) -> None:
        self.name = name
        self.help = help
        self.bounds = tuple(bounds) if bounds is not None else _DEFAULT_BOUNDS
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} bounds must increase strictly"
            )
        # One overflow bucket past the last bound (the "+Inf" bucket).
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket in enumerate(self.bucket_counts):
            cumulative += bucket
            if cumulative >= rank:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max  # pragma: no cover - rank <= count always hits above

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


_MetricT = TypeVar("_MetricT", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Named instruments with get-or-create semantics and dict snapshots."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(
        self, kind: type[_MetricT], name: str, help: str, **kwargs: Any
    ) -> _MetricT:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, help, **kwargs)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric  # type: ignore[return-value]

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", *, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, bounds=bounds)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All instruments as one nested, JSON-friendly dict.

        Non-finite sentinels (an untouched gauge's ``-inf`` peak) are
        mapped to ``None`` so the snapshot survives strict JSON dumping.
        """

        def finite(value: float) -> float | None:
            return value if math.isfinite(value) else None

        counters: dict[str, float] = {}
        gauges: dict[str, dict[str, float | None]] = {}
        histograms: dict[str, dict[str, float | None]] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = {
                    "value": finite(metric.value),
                    "max": finite(metric.max_value),
                }
            else:
                histograms[name] = {
                    key: finite(value) for key, value in metric.summary().items()
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.snapshot(), indent=2, allow_nan=False) + "\n"
        )

    def to_csv(self, path: str | Path) -> None:
        """Flat ``kind,name,field,value`` rows — trivially greppable/joinable."""
        snapshot = self.snapshot()
        with open(Path(path), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("kind", "name", "field", "value"))
            for name, value in snapshot["counters"].items():
                writer.writerow(("counter", name, "value", value))
            for kind in ("gauges", "histograms"):
                for name, fields in snapshot[kind].items():
                    for field, value in fields.items():
                        writer.writerow((kind[:-1], name, field, value))
