"""The measuring stick shared by the perfbench workloads.

Clock, host-speed probe, span log, order statistics, memory high-water
marks, scratch directories and the round runner.  Nothing here comes
from ``repro`` (except the backend descriptor quoted in the provenance
block): a later PR that edits ``repro.bench`` or
``repro.serve.loadgen`` cannot move the numbers this file produces.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(PERFBENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
RAW_DIR = os.path.join(PERFBENCH_DIR, "raw")

DEFAULT_SEED = 20110611

#: The one clock every perfbench timing reads.
clock = time.perf_counter

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Timed rounds per run, at least (``--seconds`` may ask for more).
MIN_ROUNDS = 2


# ---------------------------------------------------------------------------
# Host speed
#
# The reference box is two vCPUs of a shared host whose speed drifts: the
# same commit runs 20-30 % slower for minutes at a time, whole runs long,
# so no statistic inside a run can take it out.  Every timing an
# end-to-end metric is made of is therefore divided by how much slower
# than usual a fixed kernel ran beside it.  The kernel uses nothing of
# ``repro``, so a change to the program cannot move it.

#: What ``host_probe`` takes on the reference box while the host is quiet.
PROBE_REFERENCE_S = 0.00235

#: Between the units of a round the host is probed this often.
PROBE_GAP_S = 0.1

_PROBE_LOOPS = 100
_PROBE_BLOCK = np.random.default_rng(0).normal(size=(64, 10))


def host_probe() -> float:
    """Seconds a fixed kernel of the workloads' own kind of work takes
    right now: a Python loop around arithmetic, a reduction, a sort and
    a comparison on small arrays."""
    block = _PROBE_BLOCK
    started = clock()
    for _ in range(_PROBE_LOOPS):
        image = block * 1.5 + 2.0
        image.sum(axis=1)
        np.argsort(image[0])
        np.allclose(image[1], image[2])
    return clock() - started


class HostGauge:
    """Collects probes; ``take`` gives the host's slowness since the
    last ``take``: their median over ``PROBE_REFERENCE_S``."""

    def __init__(self) -> None:
        host_probe()  # numpy's lazy set-up is not the host's doing
        self._probes: List[float] = []
        self._last = 0.0

    def sample(self, count: int = 1) -> None:
        self._probes.extend(host_probe() for _ in range(count))
        self._last = clock()

    def sample_if_due(self) -> None:
        """Called between timed units: probes every ``PROBE_GAP_S``."""
        if clock() - self._last >= PROBE_GAP_S:
            self.sample()

    def take(self) -> float:
        if not self._probes:
            self.sample()
        probes, self._probes = self._probes, []
        return median(probes) / PROBE_REFERENCE_S


# ---------------------------------------------------------------------------
# Spans


class SpanLog:
    """In-memory spans: ``(name, start, end, op, parent)``.

    ``op`` is the identifier every span of one point / cycle / request
    shares; ``parent`` names the span that caused this one (``None`` for
    the operation's root).  Spans are only ever appended; they are
    written out when the benchmark ends.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, Optional[str]]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        op: int,
        parent: Optional[str] = None,
    ) -> None:
        self.spans.append((name, start, end, op, parent))

    def totals(self) -> Dict[str, float]:
        """Summed duration per span name."""
        sums: Dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            sums[name] = sums.get(name, 0.0) + (end - start)
        return sums

    def as_rows(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "op": op, "parent": p}
            for n, s, e, op, p in self.spans
        ]


# ---------------------------------------------------------------------------
# Order statistics (own maths, so a change to repro.util.stats cannot
# move them)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the contract's own spread rule."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


# ---------------------------------------------------------------------------
# Memory


def own_peak_rss_mb() -> float:
    """This process's resident-set high-water mark, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another process's ``VmHWM`` (Linux ``/proc``), MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


# ---------------------------------------------------------------------------
# Scratch space (inside the checkout: the contract forbids writing
# anywhere else)


def make_scratch_dir(label: str) -> str:
    """A fresh directory under ``perfbench/raw/``; the workload that
    made it removes it in ``teardown`` (``remove_scratch_dir``)."""
    path = os.path.join(
        RAW_DIR, f"tmp-{label}-{os.getpid()}-{time.monotonic_ns()}"
    )
    os.makedirs(path)
    return path


def remove_scratch_dir(path: Optional[str]) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Outcome accounting


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def ran(self, count: int = 1) -> None:
        self.attempted += int(count)

    def check(self, ok: bool, note: str) -> None:
        """One oracle comparison: counts as attempted, and as failed
        when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.fail(note)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += int(count)
        if len(self.notes) < 20:
            self.notes.append(note)


@contextlib.contextmanager
def degrade_watch() -> Iterator[List[str]]:
    """Collects the ``RuntimeWarning``s raised while a run measures.

    The library degrades (columnar -> scalar, fastrng -> numpy streams,
    backend kernel -> reference) by warning once and carrying on slower;
    a run during which that happened measured a different program and is
    invalid, not averaged in.  The yielded list is filled on exit.
    """
    messages: List[str] = []
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            yield messages
        finally:
            messages.extend(
                str(entry.message)
                for entry in log
                if issubclass(entry.category, RuntimeWarning)
            )


# ---------------------------------------------------------------------------
# Rounds


@dataclass
class Round:
    """One timed round of a workload.

    ``seconds`` is the time spent inside calls into the program (input
    generation between calls is not counted); ``latencies`` holds one
    entry per timed unit (a block of points, a churn cycle, a request);
    both are wall clock.  ``host`` is how slow the host was meanwhile
    (``HostGauge.take``; 1.0 = as usual).  ``layers`` is filled by traced
    rounds only: seconds, counts and ratios per layer metric name.
    """

    ops: int
    seconds: float
    latencies: List[float]
    host: float = 1.0
    probes: int = 0
    misses: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.seconds


def run_rounds(
    one_round: Callable[[int], Round],
    seconds: float,
    min_rounds: int = MIN_ROUNDS,
) -> List[Round]:
    """Call ``one_round(k)`` until ``seconds`` of wall clock have been
    spent measuring (and at least ``min_rounds`` times).  Round sizes
    are constants; only their number depends on the machine."""
    rounds: List[Round] = []
    started = clock()
    while len(rounds) < min_rounds or clock() - started < seconds:
        rounds.append(one_round(len(rounds)))
    return rounds


def unit_medians(rounds: Sequence[Round]) -> List[float]:
    """Per unit of the round script, the median over rounds of the time
    that unit took at the host's usual speed (rounds that run the same
    script have as many units)."""
    return [
        median(column)
        for column in zip(*([t / r.host for t in r.latencies] for r in rounds))
    ]


def end_to_end(rounds: Sequence[Round], repeating: bool) -> Dict[str, float]:
    """The round-derived end-to-end metrics, at the host's usual speed
    (every time is divided by its round's ``host``).

    Where every round runs the same script of units (``repeating``), unit
    ``i`` of every round is one measurement repeated, so each unit's
    latency is its median over rounds, the percentiles are taken over
    those, and a round's time is their sum: a host stall has to hit the
    same unit in half of the rounds to show.  Otherwise (``serve_mixed``:
    requests arrive at random) each value is the median over rounds of
    the round's own figure.
    """
    probes = sum(r.probes for r in rounds)
    miss_fraction = sum(r.misses for r in rounds) / probes
    if repeating:
        units = unit_medians(rounds)
        return {
            "ops_per_s": median([r.ops for r in rounds]) / sum(units),
            "p50_ms": 1e3 * percentile(units, 50),
            "p95_ms": 1e3 * percentile(units, 95),
            "miss_fraction": miss_fraction,
        }

    def latency(q: float) -> float:
        return 1e3 * median(
            [percentile(r.latencies, q) / r.host for r in rounds]
        )

    return {
        "ops_per_s": median([r.ops_per_s * r.host for r in rounds]),
        "p50_ms": latency(50),
        "p95_ms": latency(95),
        "miss_fraction": miss_fraction,
    }


def median_layers(rounds: Sequence[Round]) -> Dict[str, float]:
    """Per-layer metrics of a traced run: the median over its traced
    rounds (which all report the same names)."""
    return {
        name: median([r.layers[name] for r in rounds])
        for name in rounds[0].layers
    }


class Workload:
    """What ``run.py`` drives.  A workload builds its inputs from the
    seed in ``setup`` (callable again after ``teardown``), runs fixed-size
    rounds, and checks its own outputs into the shared ``tally``."""

    name = ""
    #: Every round runs the same script of units (see ``end_to_end``).
    repeating = True
    #: Degrade warnings seen outside this process (the daemon's stderr).
    degraded: Sequence[str] = ()
    #: Spans of the latest traced round.
    last_log: Optional[SpanLog] = None

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def timed_round(self, k: int) -> Round:
        raise NotImplementedError

    def traced_round(self, k: int) -> Round:
        raise NotImplementedError

    def verify(self) -> None:
        """Oracles over the latest untraced round(s)."""
        raise NotImplementedError

    def verify_trace(self) -> None:
        """Oracles of a traced run (after at least one round of each kind)."""
        self.verify()

    def trace_extras(
        self, timed: Sequence[Round], traced: Sequence[Round]
    ) -> Dict[str, float]:
        """Layer metrics measured once per traced run, not per round."""
        return {}

    def lifecycle_layers(self) -> Dict[str, float]:
        """Layer metrics only known after ``teardown``."""
        return {}

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()


# ---------------------------------------------------------------------------
# Provenance


def git_describe() -> str:
    """``git describe`` of the repo, or ``"unknown"`` outside one (the
    driver's checkout is not a git repository)."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int, sizes: dict, degraded: Sequence[str]) -> dict:
    import numpy

    from repro.core.backend import active_backend

    return {
        "git": git_describe(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "backend": active_backend().describe(),
        "seed": int(seed),
        "sizes": sizes,
        "setup_repeats": SETUP_REPEATS,
        "probe_reference_s": PROBE_REFERENCE_S,
        "degraded": list(degraded),
        "claim": None,
    }
