"""Result containers of the figure runners.

A figure carries both wall-clock series and machine-independent work
counters: the paper's claims are about relative cost (Jigsaw vs. naive,
index vs. scan), so the series go to the text report only, and the
deterministic counters and data points are all a bench document holds
and all the gates diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.util.tables import format_table


@dataclass
class Series:
    """One plotted line: (x, y) pairs with a name."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    @property
    def xs(self) -> List[float]:
        return [p[0] for p in self.points]

    @property
    def ys(self) -> List[float]:
        return [p[1] for p in self.points]


@dataclass
class FigureResult:
    """Everything a figure reproduction produced, printable as text."""

    figure: str
    caption: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Machine-readable work counters (samples drawn, reuse fraction, ...)
    #: aggregated over the figure's runs; consumed by BENCH_run_all.json.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Deterministic per-figure data points — per x-value estimates and
    #: reuse decisions that are pure functions of the fixed seed bank
    #: (never wall clock).  The golden-figure regression suite compares
    #: these exactly against committed files under ``benchmarks/golden/``.
    data: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def series_named(self, name: str) -> Series:
        for candidate in self.series:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no series named {name!r} in {self.figure}")

    def to_text(self) -> str:
        xs = sorted({x for s in self.series for x in s.xs})
        headers = [self.x_label] + [s.name for s in self.series]
        lookup = {
            s.name: dict(s.points) for s in self.series
        }
        rows = []
        for x in xs:
            row: List[object] = [x]
            for s in self.series:
                value = lookup[s.name].get(x)
                row.append("-" if value is None else value)
            rows.append(row)
        title = f"{self.figure}: {self.caption}  (y = {self.y_label})"
        body = format_table(headers, rows, title=title)
        if self.notes:
            body += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return body
