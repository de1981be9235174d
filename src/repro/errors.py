"""Exception hierarchy for the Jigsaw reproduction.

All library-raised exceptions derive from :class:`JigsawError` so callers can
catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class JigsawError(Exception):
    """Base class for every error raised by this library."""


class MappingError(JigsawError):
    """A mapping function could not be constructed or applied."""


class FingerprintError(JigsawError):
    """A fingerprint is malformed or incompatible with an operation."""


class IndexError_(JigsawError):
    """A fingerprint index was used inconsistently.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class EstimatorError(JigsawError):
    """Output metrics could not be computed or remapped."""


class MarkovError(JigsawError):
    """A Markov process or jump evaluation was configured incorrectly."""


class OptimizationError(JigsawError):
    """An OPTIMIZE query has no feasible answer or is ill-formed."""


class SchemaError(JigsawError):
    """A probdb schema or relation was used inconsistently."""


class QueryError(JigsawError):
    """A probdb logical query plan is invalid."""


class ParseError(JigsawError):
    """The Jigsaw query language text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class BindingError(JigsawError):
    """A parsed query references unknown models, parameters, or columns."""


class InteractiveError(JigsawError):
    """The interactive session was driven with inconsistent requests."""


class ExecutionError(JigsawError):
    """A sweep's execution infrastructure (not its math) failed.

    The branch for shard supervision: worker crashes, deadline expiries,
    and retry exhaustion.  Because shards are deterministic under the
    shared seed bank, none of these failures can change a sweep's results
    — supervision recomputes the affected shard and the replay-merge stays
    bit-identical to serial — so these errors describe *how* a sweep ran,
    never *what* it computed.
    """


class ShardError(ExecutionError):
    """Base class for per-shard supervision failures.

    Carries the shard's index in the sweep's canonical shard layout and
    the 1-based attempt number that failed.
    """

    def __init__(self, message: str, shard_index: int = -1, attempt: int = 0):
        self.shard_index = int(shard_index)
        self.attempt = int(attempt)
        super().__init__(message)


class ShardCrashError(ShardError):
    """A shard's worker died before shipping its result.

    Raised for a broken process pool (OOM kill, segfault in a native
    library, stray signal) or an injected crash fault.  Retryable: the
    shard is a pure function of its slice, so a re-run is bit-identical.
    """


class ShardTimeoutError(ShardError):
    """A shard attempt exceeded its supervision deadline.

    ``timeout`` records the policy deadline in seconds (``None`` when the
    hang was injected into an in-process run, which enforces no real
    deadline).
    """

    def __init__(
        self,
        message: str,
        shard_index: int = -1,
        attempt: int = 0,
        timeout=None,
    ):
        self.timeout = timeout
        super().__init__(message, shard_index=shard_index, attempt=attempt)


class ShardRetryExhaustedError(ShardError):
    """A shard failed every attempt its supervision policy allowed.

    Only raised when the policy disables graceful degradation; with
    degradation on (the default), an exhausted shard is recomputed
    in-process instead and the sweep still completes.  ``attempts`` is the
    number of attempts made; ``failures`` the classified per-attempt
    errors, in order.
    """

    def __init__(
        self,
        message: str,
        shard_index: int = -1,
        attempts: int = 0,
        failures=(),
    ):
        self.attempts = int(attempts)
        self.failures = tuple(failures)
        super().__init__(message, shard_index=shard_index, attempt=attempts)


class BackendError(JigsawError):
    """A compute backend was selected or driven inconsistently.

    Raised for unknown backend names and for backends whose optional
    dependency is not importable on this host.  Selection never falls
    back silently: a caller who asked for a backend by name either gets
    that backend or gets this error — the only *automatic* fallback is the
    self-verification degrade, which is per-instance, warned about, and
    visible in ``fast_path_status()`` / ``repro store info``.
    """


class LifecycleError(JigsawError):
    """A store lifecycle operation (eviction, invalidation, compaction)
    was configured inconsistently — e.g. an :class:`~repro.core.basis.
    EvictionPolicy` with an unknown ``keep`` ranking or negative bounds."""


class PersistError(JigsawError):
    """A basis-store snapshot could not be written or read."""


class SnapshotCorruptionError(PersistError):
    """A snapshot file is truncated, bit-damaged, or structurally broken.

    Raised before any partial state reaches a store: a load either returns
    a complete, checksum-verified store or raises this.
    """


class SnapshotCompatibilityError(PersistError):
    """A snapshot is intact but was built under an incompatible
    configuration (mapping family, index strategy, tolerances, estimator,
    or seed bank).

    Reusing such a store would be silently wrong — fingerprints are only
    comparable under one seed bank and one tolerance regime — so the load
    refuses instead.
    """


class ApiError(JigsawError):
    """A :mod:`repro.api` session request is malformed or unroutable.

    In-process :class:`~repro.api.Session` method calls raise this for
    typed misuse (unknown store name, unknown basis id, empty
    fingerprint); the generic ``handle``/``handle_batch`` dispatchers —
    which back the serving daemon — convert it into an
    ``ErrorResponse`` instead, so one bad request in a stream never
    takes down the stream.
    """


class ServeError(JigsawError):
    """The basis-store serving daemon could not start, bind, or route."""


class ProtocolError(ServeError):
    """A wire frame violates the length-prefixed JSON protocol.

    Raised for oversized frames, truncated length prefixes mid-frame,
    or payloads that are not valid UTF-8 JSON objects.  A connection
    that produced one is dropped; the daemon itself keeps serving.
    """
