"""Shard supervision: deadlines, typed failures, retries, degradation.

:mod:`repro.core.parallel` made sweeps shardable; this module makes the
fan-out survivable.  A bare ``pool.map`` turns one dead worker (OOM kill,
segfault in a native library, stray SIGKILL) into an opaque
``BrokenProcessPool`` that discards *every* shard's work, lets a hung
worker stall a sweep forever, and gives an interrupted multi-hour run
nothing to resume from.  The supervisor replaces it with per-shard
attempts carrying deadlines and a typed failure taxonomy:

* **Crash** (:class:`~repro.errors.ShardCrashError`) — the worker died
  before shipping its result.  Retried on a rebuilt pool.
* **Timeout** (:class:`~repro.errors.ShardTimeoutError`) — an attempt
  outlived ``policy.timeout``.  The stuck pool is abandoned (workers
  terminated), innocent in-flight shards are resubmitted on a fresh pool
  without consuming one of their attempts, and the expired shard retries.
* **Exhaustion** (:class:`~repro.errors.ShardRetryExhaustedError`) — a
  shard failed every attempt the policy allows.  With ``degrade`` on (the
  default) the shard is recomputed **in-process, serially** as the last
  resort, so a sweep *always* completes; with it off, the typed error
  propagates.

Retries back off exponentially (``backoff_base * backoff_factor**(n-1)``,
capped at ``backoff_cap``) and re-run the shard's **exact slice against a
fresh store** — shards are pure functions of ``(context, index)`` under
the shared seed bank, so a retried or degraded shard returns bit-identical
records and the canonical replay-merge stays bit-identical to the serial
sweep no matter what failed, how often, or where it finally ran.  That is
the headline invariant, pinned by the chaos suite
(``tests/integration/test_fault_tolerance.py``).

Deterministic application exceptions raised *by* a shard are not retried:
by the same purity argument a re-run would fail identically, so they
propagate immediately, exactly as they did under the bare ``pool.map``.

All deadline and backoff arithmetic reads the injectable clock
(:func:`repro.util.timing.perf_counter`) and an injectable ``sleep``, and
result collection consults the active fault plan
(:mod:`repro.testing.faults`), so every path above is exercised by unit
tests with fake time and scripted faults — no real signals, no real
clocks.  On the happy path the supervisor never reads the clock at all,
keeping fake-clock timing tests undisturbed.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    ExecutionError,
    ShardCrashError,
    ShardError,
    ShardRetryExhaustedError,
    ShardTimeoutError,
)
from repro.testing import faults as _faults
from repro.util import timing


@dataclass(frozen=True)
class SupervisionPolicy:
    """Retry/timeout/degrade knobs for one supervised fan-out.

    ``max_attempts`` counts the first run: 3 means one run plus two
    retries.  ``timeout`` is the per-attempt deadline in seconds (``None``
    disables deadlines).  ``degrade`` keeps sweeps total: an exhausted
    shard is recomputed in-process instead of failing the sweep.
    ``poll_interval`` is the supervisor's wait granularity while shards
    are in flight.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    degrade: bool = True
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be at least 1")
        if self.backoff_cap < 0:
            raise ValueError("backoff_cap must be non-negative")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")

    def backoff(self, attempt: int) -> float:
        """Delay before the retry that follows failed attempt ``attempt``."""
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


#: The policy a supervisor — so ``parallel.run_shards`` — applies when
#: callers pass none: retry infrastructure failures twice with short
#: backoff, no deadline (a deadline only makes sense relative to a
#: workload), degrade rather than fail.  On the happy path this is
#: behaviorally identical to (and costs nothing over) a bare fan-out.
DEFAULT_POLICY = SupervisionPolicy()


@dataclass
class ShardReport:
    """Supervision history of one shard: attempts, failures, outcome."""

    index: int
    attempts: int = 0
    failures: List[ShardError] = field(default_factory=list)
    degraded: bool = False


@dataclass
class SupervisionReport:
    """What supervision did for one fan-out (all shards)."""

    policy: SupervisionPolicy
    shards: Dict[int, ShardReport] = field(default_factory=dict)
    backoff_delays: List[float] = field(default_factory=list)
    pools_rebuilt: int = 0

    @property
    def retries(self) -> int:
        return sum(max(0, s.attempts - 1) for s in self.shards.values())

    @property
    def failures(self) -> int:
        return sum(len(s.failures) for s in self.shards.values())

    @property
    def degraded_shards(self) -> Tuple[int, ...]:
        return tuple(
            sorted(i for i, s in self.shards.items() if s.degraded)
        )


@dataclass
class _Flight:
    """One in-flight shard attempt.

    ``future`` is ``None`` once an injected hang swallowed the worker's
    result: the attempt then has no completion path and only its deadline
    can end it — exactly the observable behavior of a truly hung worker.
    """

    index: int
    attempt: int
    deadline: Optional[float]
    future: Optional[Any]


class WorkerPool:
    """Protocol for the pools the supervisor drives (duck-typed).

    ``submit(index)`` returns a ``concurrent.futures.Future`` for one
    shard attempt; ``abandon()`` kills the pool without waiting (used when
    workers are stuck or broken); ``close()`` shuts it down cleanly.
    """

    def submit(self, index: int):  # pragma: no cover - protocol only
        raise NotImplementedError

    def abandon(self) -> None:  # pragma: no cover - protocol only
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - protocol only
        raise NotImplementedError


class ShardSupervisor:
    """Runs shard attempts under a :class:`SupervisionPolicy`.

    ``runner``/``context`` follow the ``parallel.run_shards`` contract:
    shard ``i``'s result is ``runner(context, i)``, a pure function of its
    arguments.
    ``pool_factory`` builds a :class:`WorkerPool` for parallel execution
    (and rebuilds it after crashes/timeouts); ``None`` executes shards
    in-process, sequentially, in ``indices`` order — the same code path
    retried/degraded shards take.  ``on_shard_complete(index, value)``
    fires as each shard's result is accepted (checkpoint writers hook in
    here).  ``clock``/``sleep`` default to the injectable
    :func:`repro.util.timing.perf_counter` and :func:`time.sleep`.
    """

    def __init__(
        self,
        runner: Callable[[Any, int], Any],
        context: Any,
        indices: Sequence[int],
        policy: Optional[SupervisionPolicy] = None,
        *,
        pool_factory: Optional[Callable[[], WorkerPool]] = None,
        clock: Optional[Callable[[], float]] = None,
        sleep: Optional[Callable[[float], None]] = None,
        on_shard_complete: Optional[Callable[[int, Any], None]] = None,
    ):
        self._runner = runner
        self._context = context
        self._indices = [int(i) for i in indices]
        if len(set(self._indices)) != len(self._indices):
            raise ValueError("shard indices must be unique")
        self._policy = policy or DEFAULT_POLICY
        self._pool_factory = pool_factory
        self._clock = clock if clock is not None else timing.perf_counter
        self._sleep = sleep if sleep is not None else time.sleep
        self._on_complete = on_shard_complete
        self.report = SupervisionReport(
            policy=self._policy,
            shards={i: ShardReport(i) for i in self._indices},
        )
        self._results: Dict[int, Any] = {}
        #: (ready_at, index, attempt) — retries waiting out their backoff.
        self._retry_heap: List[Tuple[float, int, int]] = []
        self._exhausted: List[int] = []

    # -- shared machinery ---------------------------------------------------

    def run(self) -> Dict[int, Any]:
        """Execute every shard; returns ``{index: result}`` (all present)."""
        if not self._indices:
            return {}
        if self._pool_factory is None:
            self._run_inline()
        else:
            self._run_pooled()
        self._run_degraded()
        return dict(self._results)

    def _execute(self, index: int, attempt: int) -> Any:
        """One in-process attempt, through the fault seam."""
        value = self._runner(self._context, index)
        plan = _faults.active_plan()
        if plan is not None:
            plan.intercept(index, attempt)
        return value

    def _accept(self, index: int, value: Any, degraded: bool = False) -> None:
        self._results[index] = value
        if degraded:
            self.report.shards[index].degraded = True
        if self._on_complete is not None:
            self._on_complete(index, value)

    def _record_backoff(self, attempt: int) -> float:
        delay = self._policy.backoff(attempt)
        self.report.backoff_delays.append(delay)
        return delay

    def _exhaust(self, index: int) -> None:
        shard = self.report.shards[index]
        if not self._policy.degrade:
            last = shard.failures[-1] if shard.failures else None
            raise ShardRetryExhaustedError(
                f"shard {index} failed all {shard.attempts} attempt(s); "
                f"last failure: {last}",
                shard_index=index,
                attempts=shard.attempts,
                failures=shard.failures,
            )
        self._exhausted.append(index)

    def _run_degraded(self) -> None:
        """Last resort: recompute exhausted shards in-process, serially.

        Runs outside the pool and outside the fault plan — determinism
        makes the result identical to a first-attempt success, merely
        slower — so a sweep with ``degrade`` on always completes.
        """
        for index in sorted(self._exhausted):
            self._accept(
                index, self._runner(self._context, index), degraded=True
            )

    # -- in-process execution ----------------------------------------------

    def _run_inline(self) -> None:
        for index in self._indices:
            shard = self.report.shards[index]
            attempt = 1
            while True:
                shard.attempts = attempt
                try:
                    value = self._execute(index, attempt)
                except _faults.InjectedCrash as error:
                    failure: ShardError = ShardCrashError(
                        f"shard {index} worker died before shipping its "
                        f"result ({error})",
                        shard_index=index,
                        attempt=attempt,
                    )
                except _faults.InjectedHang:
                    # In-process execution enforces no real deadline; an
                    # injected hang classifies directly as a timeout.
                    failure = ShardTimeoutError(
                        f"shard {index} attempt {attempt} exceeded its "
                        f"deadline",
                        shard_index=index,
                        attempt=attempt,
                        timeout=self._policy.timeout,
                    )
                else:
                    self._accept(index, value)
                    break
                shard.failures.append(failure)
                if attempt >= self._policy.max_attempts:
                    self._exhaust(index)
                    break
                delay = self._record_backoff(attempt)
                if delay > 0:
                    self._sleep(delay)
                attempt += 1

    # -- pooled execution ---------------------------------------------------

    def _run_pooled(self) -> None:
        assert self._pool_factory is not None
        pool = self._pool_factory()
        try:
            pool = self._pooled_loop(pool)
        except BaseException:
            # Abandon rather than close: a clean shutdown would wait on
            # workers that may be stuck, and on KeyboardInterrupt the user
            # wants out *now* (completed shards are already checkpointed
            # by the on-complete hook).
            pool.abandon()
            raise
        pool.close()

    def _pooled_loop(self, pool: WorkerPool) -> WorkerPool:
        pending = deque((index, 1) for index in self._indices)
        flights: List[_Flight] = []
        while pending or flights or self._retry_heap:
            self._promote_retries(pending)
            while pending:
                index, attempt = pending.popleft()
                self.report.shards[index].attempts = attempt
                flights.append(self._launch(pool, index, attempt))
            if not flights:
                self._wait_for_retry()
                continue
            done = self._await_any(flights)
            pool_broken = False
            survivors: List[_Flight] = []
            for flight in flights:
                if flight.future is not None and flight.future in done:
                    outcome = self._collect(flight)
                    if outcome == "broken":
                        pool_broken = True
                    elif outcome == "hung":
                        survivors.append(flight)
                else:
                    survivors.append(flight)
            flights = survivors
            if pool_broken:
                pool = self._rebuild(pool, flights)
            flights, pool = self._sweep_deadlines(flights, pool)
        return pool

    def _launch(self, pool: WorkerPool, index: int, attempt: int) -> _Flight:
        deadline = None
        if self._policy.timeout is not None:
            deadline = self._clock() + self._policy.timeout
        return _Flight(index, attempt, deadline, pool.submit(index))

    def _await_any(self, flights: List[_Flight]) -> set:
        real = [f.future for f in flights if f.future is not None]
        if not real:
            # Only hung attempts remain: virtual time is the sole way
            # forward, so sleep one poll tick and re-check deadlines.
            self._sleep(self._policy.poll_interval)
            return set()
        done, _ = wait(
            real,
            timeout=self._policy.poll_interval,
            return_when=FIRST_COMPLETED,
        )
        return done

    def _collect(self, flight: _Flight) -> Optional[str]:
        """Resolve one completed future; returns "broken"/"hung"/None."""
        index, attempt = flight.index, flight.attempt
        try:
            value = flight.future.result()
        except BrokenProcessPool as error:
            self._fail(
                index,
                attempt,
                ShardCrashError(
                    f"shard {index} worker died before shipping its result "
                    f"(process pool broken: {error})",
                    shard_index=index,
                    attempt=attempt,
                ),
            )
            return "broken"
        except _faults.InjectedCrash as error:
            self._fail(
                index,
                attempt,
                ShardCrashError(
                    f"shard {index} worker died before shipping its result "
                    f"({error})",
                    shard_index=index,
                    attempt=attempt,
                ),
            )
            return None
        except _faults.InjectedHang:
            return self._park_hung(flight)
        # Deterministic application exceptions propagate unretried (a
        # re-run would fail identically); KeyboardInterrupt propagates to
        # the caller's interrupt handling.
        plan = _faults.active_plan()
        if plan is not None:
            try:
                plan.intercept(index, attempt)
            except _faults.InjectedCrash as error:
                self._fail(
                    index,
                    attempt,
                    ShardCrashError(
                        f"shard {index} worker died before shipping its "
                        f"result ({error})",
                        shard_index=index,
                        attempt=attempt,
                    ),
                )
                return None
            except _faults.InjectedHang:
                return self._park_hung(flight)
        self._accept(index, value)
        return None

    def _park_hung(self, flight: _Flight) -> str:
        if flight.deadline is None:
            raise ExecutionError(
                f"hang injected into shard {flight.index} but the "
                f"supervision policy has no timeout — the attempt could "
                f"never end; give the policy a deadline"
            )
        flight.future = None
        return "hung"

    def _fail(self, index: int, attempt: int, error: ShardError) -> None:
        shard = self.report.shards[index]
        shard.failures.append(error)
        if attempt >= self._policy.max_attempts:
            self._exhaust(index)
            return
        delay = self._record_backoff(attempt)
        ready = self._clock() + delay if delay > 0 else 0.0
        heappush(self._retry_heap, (ready, index, attempt + 1))

    def _promote_retries(self, pending: deque) -> None:
        if not self._retry_heap:
            return
        now = self._clock()
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, index, attempt = heappop(self._retry_heap)
            pending.append((index, attempt))

    def _wait_for_retry(self) -> None:
        ready = self._retry_heap[0][0]
        now = self._clock()
        if ready > now:
            self._sleep(min(self._policy.poll_interval, ready - now))

    def _rebuild(self, pool: WorkerPool, flights: List[_Flight]) -> WorkerPool:
        """Replace a broken pool; resubmit surviving in-flight attempts.

        Survivors keep their attempt number — the breakage was not their
        fault — but get fresh deadlines, since their work restarts.
        """
        assert self._pool_factory is not None
        pool.abandon()
        pool = self._pool_factory()
        self.report.pools_rebuilt += 1
        for flight in flights:
            if flight.future is not None:
                flight.future = pool.submit(flight.index)
                if self._policy.timeout is not None:
                    flight.deadline = self._clock() + self._policy.timeout
        return pool

    def _sweep_deadlines(
        self, flights: List[_Flight], pool: WorkerPool
    ) -> Tuple[List[_Flight], WorkerPool]:
        if self._policy.timeout is None or not flights:
            return flights, pool
        if not any(f.deadline is not None for f in flights):
            return flights, pool
        now = self._clock()
        expired = [
            f for f in flights if f.deadline is not None and now >= f.deadline
        ]
        if not expired:
            return flights, pool
        survivors = [f for f in flights if f not in expired]
        for flight in expired:
            self._fail(
                flight.index,
                flight.attempt,
                ShardTimeoutError(
                    f"shard {flight.index} attempt {flight.attempt} "
                    f"exceeded its {self._policy.timeout:g}s deadline",
                    shard_index=flight.index,
                    attempt=flight.attempt,
                    timeout=self._policy.timeout,
                ),
            )
        if any(f.future is not None for f in expired):
            # A real worker is stuck: the pool cannot take it back, so
            # abandon the whole pool (terminating its workers) and restart
            # the innocent in-flight attempts on a fresh one.
            pool = self._rebuild(pool, survivors)
        return survivors, pool
