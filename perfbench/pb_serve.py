"""Workload ``serve_mixed``: a snapshot served by a real daemon process.

A fresh ``python -m repro serve`` subprocess (mmap snapshot) per set-up
is driven from this one process over two connections by a single
``select`` loop: a closed-loop window (each connection sends its next
request when the previous answer arrives: callers that wait) gives
``ops_per_s``; an open-loop window (seeded Poisson arrivals at a fixed
rate, whatever the daemon does: independent users) gives the latency
percentiles, each request timed from the instant it was *due*.

The request mix is generated here from the seed; frames are encoded
before a window starts, and answers are only split off the socket
during it — decoding and checking happen after the clock stops.
"""

from __future__ import annotations

import collections
import json
import os
import select
import signal
import socket
import subprocess
import sys
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.api.messages import (
    EstimateRequest,
    MatchRequest,
    RefineRequest,
    StatsRequest,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.api.session import Session
from repro.core import persist
from repro.core.basis import BasisStore
from repro.core.fingerprint import Fingerprint
from repro.serve.protocol import encode_frame

from pb_common import (
    SRC_DIR,
    HostGauge,
    Round,
    SpanLog,
    Tally,
    Workload,
    clock,
    median,
    percentile,
    make_scratch_dir,
    process_peak_rss_mb,
    remove_scratch_dir,
)

#: Frozen sizes.  ``pool`` requests per connection are generated and
#: framed at set-up and cycled through; a round is one closed-loop window
#: of ``closed_s`` seconds and one open-loop window of ``open_requests``
#: arrivals.  Windows are short and many: a host stall spoils the window
#: it falls in, and the median over windows leaves that one out.
SIZES = {
    "full": dict(
        bases=256, fingerprint=10, samples=200, refine_bases=64,
        pool=4000, warmup=300, connections=2, burst=8,
        closed_s=0.3, open_requests=400, rate=1000, ladder=(500, 1000, 2000),
        codec_sample=2000, oracle_every=8,
    ),
    "smoke": dict(
        bases=32, fingerprint=10, samples=40, refine_bases=8,
        pool=400, warmup=50, connections=2, burst=8,
        closed_s=0.25, open_requests=300, rate=1000, ladder=(500, 1000, 2000),
        codec_sample=200, oracle_every=4,
    ),
}

#: An open-loop window whose generator ran later than this (p95 of
#: send time minus due time) did not offer the load it claims.
MAX_LAG_MS = 1.0

#: ``serve.knee_rps``: the highest ladder rate whose p95 stays under
#: this limit without a growing backlog.
KNEE_P95_MS = 5.0

_READY_TIMEOUT_S = 60.0
_DRAIN_TIMEOUT_S = 20.0


# ---------------------------------------------------------------------------
# The daemon process


def split_cpus() -> Optional[Tuple[set, set]]:
    """(load generator's CPUs, daemon's CPUs): the first allowed CPU for
    this process, the rest for the daemon; ``None`` on a one-CPU box.

    Left to itself the scheduler sometimes packs the two processes —
    which wake each other for every answer — onto one CPU and sometimes
    spreads them, for minutes at a time: the same build then serves 7k
    or 11k requests/s.  Giving each side its own CPUs fixes the layout.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    return {allowed[0]}, set(allowed[1:])


class Daemon:
    """One ``python -m repro serve`` subprocess, from spawn to exit."""

    def __init__(self, snapshot: str, workdir: str, cpus: Optional[set]):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self._stderr = open(os.path.join(workdir, "daemon.stderr"), "w+")
        started = clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", snapshot,
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            text=True,
            # Before exec, so every thread the daemon starts inherits it.
            preexec_fn=(
                (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
            ),
        )
        try:
            self.host, self.port = self._await_ready()
        except BaseException:
            self.kill()
            raise
        self.boot_s = clock() - started
        self.peak_rss_mb = 0.0
        self.drain_s = 0.0
        self.stderr_text = ""

    def _await_ready(self) -> Tuple[str, int]:
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], _READY_TIMEOUT_S
        )
        line = self.proc.stdout.readline() if ready else ""
        fields = dict(
            part.split("=", 1) for part in line.split()[1:] if "=" in part
        )
        if not line.startswith("SERVE_READY") or "port" not in fields:
            raise RuntimeError(f"daemon did not come up (said {line!r})")
        return fields["host"], int(fields["port"])

    def stop(self) -> int:
        """SIGTERM, wait for the drain, return the exit code."""
        self.peak_rss_mb = process_peak_rss_mb(self.proc.pid)
        started = clock()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=_DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1
        self.drain_s = clock() - started
        self._close()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if not self._stderr.closed:
            self._stderr.seek(0)
            self.stderr_text = self._stderr.read()
            self._stderr.close()


# ---------------------------------------------------------------------------
# The load generator (one thread, one select loop)


class Conn:
    """One pipelining connection cycling through pre-framed requests."""

    def __init__(self, host: str, port: int, frames: List[bytes]):
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.frames = frames
        self.cursor = 0
        self.pending: Deque[Tuple[int, float]] = collections.deque()
        self.buffer = bytearray()
        #: (request index, stamp, receive time, response payload)
        self.done: List[Tuple[int, float, float, bytes]] = []

    def send(self, stamp: float) -> None:
        index = self.cursor
        self.sock.sendall(self.frames[index % len(self.frames)])
        self.cursor += 1
        self.pending.append((index, stamp))

    def receive(self, now: float) -> int:
        """Split whatever arrived into frames; returns how many."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("daemon closed the connection")
        buffer = self.buffer
        buffer += data
        count = 0
        while len(buffer) >= 4:
            length = int.from_bytes(buffer[:4], "big")
            if len(buffer) < 4 + length:
                break
            payload = bytes(buffer[4 : 4 + length])
            del buffer[: 4 + length]
            index, stamp = self.pending.popleft()
            self.done.append((index, stamp, now, payload))
            count += 1
        return count

    def close(self) -> None:
        self.sock.close()


def _drain(conns: List[Conn], timeout: float = 5.0) -> None:
    """Collect answers still in flight; what stays pending after
    ``timeout`` is reported unanswered by the caller."""
    deadline = clock() + timeout
    while any(c.pending for c in conns) and clock() < deadline:
        waiting = [c.sock for c in conns if c.pending]
        ready, _, _ = select.select(waiting, [], [], 0.05)
        now = clock()
        for conn in conns:
            if conn.sock in ready:
                conn.receive(now)


def closed_loop(
    conns: List[Conn],
    seconds: float,
    burst: int,
    log: Optional[SpanLog] = None,
) -> Tuple[int, float]:
    """A caller that waits: ``burst`` requests go out on every
    connection at once, and the next bursts go out when every answer is
    in.  Returns (answers received in the window, its length).  With
    ``log``, each round trip leaves a client-side span.

    Keeping one request (or a free-running pipeline) in flight per
    connection instead leaves the size of the daemon's micro-batches to
    chance — half-second windows of the same build ranged 2.4k-4.4k
    requests/s (one in flight) and 6.5k-11k (eight) — so the loop fixes
    the step: every round trip offers the dispatcher the same batch.
    """
    socks = [c.sock for c in conns]
    by_sock = {c.sock: c for c in conns}
    completed = trips = 0
    started = now = clock()
    deadline = started + seconds
    while now < deadline:
        sent = now
        for conn in conns:
            first = conn.cursor
            conn.sock.sendall(
                b"".join(
                    conn.frames[i % len(conn.frames)]
                    for i in range(first, first + burst)
                )
            )
            conn.cursor += burst
            conn.pending.extend((i, sent) for i in range(first, first + burst))
        while now < deadline and any(c.pending for c in conns):
            ready, _, _ = select.select(socks, [], [], 0.05)
            now = clock()
            if now < deadline:
                for sock in ready:
                    completed += by_sock[sock].receive(now)
        if log is not None and now < deadline:
            log.add("serve.round_trip", sent, now, trips)
        trips += 1
    elapsed = clock() - started
    _drain(conns)
    return completed, elapsed


def open_loop(
    conns: List[Conn], due: np.ndarray
) -> Tuple[List[float], List[float]]:
    """Send request ``i`` at ``start + due[i]`` whatever has been
    answered; returns (latency from the due instant per answered
    request in due order, how late each send started)."""
    socks = [c.sock for c in conns]
    by_sock = {c.sock: c for c in conns}
    marks = [len(c.done) for c in conns]
    lags: List[float] = []
    start = clock() + 0.002
    total = len(due)
    sent = 0
    while sent < total:
        target = start + due[sent]
        now = clock()
        if now >= target:
            lags.append(now - target)
            conns[sent % len(conns)].send(target)
            sent += 1
            continue
        wait = target - now
        # select() sleeps with timer slack; spin through the last stretch.
        ready, _, _ = select.select(
            socks, [], [], wait - 0.0002 if wait > 0.0003 else 0.0
        )
        if ready:
            now = clock()
            for sock in ready:
                by_sock[sock].receive(now)
    _drain(conns)
    answered = sorted(
        (stamp, received - stamp)
        for conn, mark in zip(conns, marks)
        for _, stamp, received, _ in conn.done[mark:]
    )
    return [latency for _, latency in answered], lags


def poisson_schedule(rng, rate: float, count: int) -> np.ndarray:
    """The first ``count`` arrival instants of a seeded Poisson process."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


# ---------------------------------------------------------------------------
# The workload


class ServeWorkload(Workload):
    name = "serve_mixed"
    #: Requests arrive at random instants: no two rounds share a unit.
    repeating = False

    def __init__(self, seed: int, scale: str, tally: Tally):
        self.tally = tally
        self.sizes = dict(SIZES[scale])
        self.seed = seed
        self.daemon: Optional[Daemon] = None
        self.conns: List[Conn] = []
        self.tmp: Optional[str] = None
        self.own_cpus: Optional[set] = None
        self.boot_s: List[float] = []
        self.drain_s: List[float] = []
        self.daemon_rss_mb = 0.0
        self.invalid_windows = 0
        self.degraded: List[str] = []
        self.gauge = HostGauge()

    # -- fixtures -----------------------------------------------------------

    def _build_store(self, rng) -> BasisStore:
        sizes = self.sizes
        store = BasisStore()
        rows = rng.uniform(-4.0, 4.0, size=(sizes["bases"], sizes["fingerprint"]))
        for index, row in enumerate(rows):
            samples = rng.normal(
                loc=float(row[0]), scale=1.0 + 0.01 * index,
                size=sizes["samples"],
            )
            store.add(Fingerprint(tuple(row.tolist())), samples)
        return store

    def _requests(self, rng, store, count, refine_targets) -> list:
        """The seeded mix: per 20 probes exactly 14 hit (affine images
        of probe-only bases) and 15 ask for an estimate; every 50th
        request refines one of this connection's own bases, every 64th
        asks for stats.  Probed and refined bases are disjoint, so every
        answer but the stats counters is independent of how the two
        connections interleave."""
        sizes = self.sizes
        probe_bases = store.bases[: sizes["bases"] - sizes["refine_bases"]]
        requests: list = []
        hits: List[bool] = []
        estimates: List[bool] = []
        refined = 0
        for index in range(count):
            if index % 64 == 63:
                requests.append(StatsRequest(request_id=index))
                continue
            if refine_targets and index % 50 == 49:
                target = refine_targets[refined % len(refine_targets)]
                refined += 1
                requests.append(
                    RefineRequest(
                        basis_id=target,
                        samples=tuple(rng.normal(size=8).tolist()),
                        request_id=index,
                    )
                )
                continue
            if not hits:
                hits = list(rng.permutation([True] * 14 + [False] * 6))
                estimates = list(rng.permutation([True] * 15 + [False] * 5))
            if hits.pop():
                base = probe_bases[int(rng.integers(0, len(probe_bases)))]
                alpha = float(rng.uniform(0.5, 4.0))
                beta = float(rng.uniform(-3.0, 3.0))
                values = tuple(
                    alpha * v + beta for v in base.fingerprint.values
                )
            else:
                values = tuple(
                    rng.uniform(-50.0, 50.0, sizes["fingerprint"]).tolist()
                )
            kind = EstimateRequest if estimates.pop() else MatchRequest
            requests.append(kind(fingerprint=values, request_id=index))
        return requests

    def setup(self) -> None:
        sizes = self.sizes
        tmp = self.tmp = make_scratch_dir("serve")
        try:
            rng = np.random.default_rng([self.seed, 4])
            store = self._build_store(rng)
            self.snapshot = os.path.join(tmp, "snapshot")
            persist.save_store(store, self.snapshot)
            split = split_cpus()
            if split is not None:
                self.own_cpus = os.sched_getaffinity(0)
                os.sched_setaffinity(0, split[0])
            self.daemon = Daemon(self.snapshot, tmp, split and split[1])
            self.boot_s.append(self.daemon.boot_s)
            refine_ids = [
                b.basis_id for b in store.bases[-sizes["refine_bases"] :]
            ]
            share = len(refine_ids) // sizes["connections"]
            self.pools = []
            self.first_pass: List[Dict[int, bytes]] = []
            warm_conns = []
            for c in range(sizes["connections"]):
                pool = self._requests(
                    rng, store, sizes["pool"],
                    refine_ids[c * share : (c + 1) * share],
                )
                self.pools.append(pool)
                self.first_pass.append({})
                frames = [encode_frame(encode_request(r)) for r in pool]
                self.conns.append(
                    Conn(self.daemon.host, self.daemon.port, frames)
                )
                warm = self._requests(rng, store, sizes["warmup"], [])
                warm_conns.append(
                    Conn(
                        self.daemon.host, self.daemon.port,
                        [encode_frame(encode_request(r)) for r in warm],
                    )
                )
            # Warm-up on connections of its own: probes only, so the
            # daemon's answers to the measured stream do not depend on it.
            try:
                for conn in warm_conns:
                    for _ in range(sizes["warmup"]):
                        conn.send(clock())
                        while not conn.receive(clock()):
                            pass
            finally:
                for conn in warm_conns:
                    conn.close()
        except BaseException:
            self.teardown()
            raise

    def teardown(self) -> None:
        """Stop the daemon and remove the snapshot — on every path."""
        try:
            for conn in self.conns:
                conn.close()
            self.conns = []
            if self.daemon is not None:
                daemon, self.daemon = self.daemon, None
                if daemon.proc.poll() is None:
                    code = daemon.stop()
                    self.drain_s.append(daemon.drain_s)
                    self.daemon_rss_mb = daemon.peak_rss_mb
                    self.tally.check(
                        code == 0,
                        f"serve_mixed: SIGTERM drain exited with {code}",
                    )
                else:
                    daemon.kill()
                    self.tally.fail(
                        "serve_mixed: daemon died with code "
                        f"{daemon.proc.returncode}"
                    )
                if "RuntimeWarning" in daemon.stderr_text:
                    self.degraded = daemon.stderr_text.strip().splitlines()
        finally:
            if self.own_cpus is not None:
                os.sched_setaffinity(0, self.own_cpus)
                self.own_cpus = None
            remove_scratch_dir(self.tmp)
            self.tmp = None

    # -- rounds -------------------------------------------------------------

    def _account(self) -> Tuple[int, int]:
        """Decode what the connections collected since the last call:
        returns (probes, misses); errors and unanswered requests fail."""
        probes = misses = 0
        for conn, kept in zip(self.conns, self.first_pass):
            for index, _, _, payload in conn.done:
                body = json.loads(payload)
                kind = body.get("kind")
                self.tally.ran()
                if kind == "error":
                    self.tally.fail(
                        f"serve_mixed: request {index} answered "
                        f"{body.get('code')}: {body.get('message')}"
                    )
                elif kind in ("match", "estimate"):
                    probes += 1
                    misses += 0 if body["matched"] else 1
                if index < len(conn.frames):
                    kept[index] = payload
            conn.done = []
            if conn.pending:
                self.tally.ran(len(conn.pending))
                self.tally.fail(
                    f"serve_mixed: {len(conn.pending)} requests unanswered",
                    len(conn.pending),
                )
                conn.pending.clear()
        return probes, misses

    def _open_window(self, k: int, rate: float) -> Tuple[List[float], List[float]]:
        """One open-loop window; re-run once if the generator lagged."""
        for attempt in range(2):
            rng = np.random.default_rng([self.seed, 5, k, int(rate), attempt])
            due = poisson_schedule(rng, rate, self.sizes["open_requests"])
            latencies, lags = open_loop(self.conns, due)
            if 1e3 * percentile(lags, 95) <= MAX_LAG_MS:
                break
            self.invalid_windows += 1
        return latencies, lags

    def timed_round(self, k: int) -> Round:
        gauge = self.gauge
        gauge.sample(2)
        completed, elapsed = closed_loop(
            self.conns, self.sizes["closed_s"], self.sizes["burst"]
        )
        gauge.sample(2)
        latencies, lags = self._open_window(k, self.sizes["rate"])
        gauge.sample(2)
        probes, misses = self._account()
        return Round(
            ops=completed,
            seconds=elapsed,
            latencies=latencies,
            host=gauge.take(),
            probes=probes,
            misses=misses,
            extra={
                "lag_p95_ms": 1e3 * percentile(lags, 95),
                "windows_rerun_for_lag": self.invalid_windows,
            },
        )

    def traced_round(self, k: int) -> Round:
        log = SpanLog()
        self.last_log = log
        completed, elapsed = closed_loop(
            self.conns, self.sizes["closed_s"], self.sizes["burst"], log
        )
        layers: Dict[str, float] = {}
        knee = 0.0
        latencies: List[float] = []
        for rate in self.sizes["ladder"]:
            rung, lags = self._open_window(k, rate)
            p95 = 1e3 * percentile(rung, 95)
            layers[f"serve.ladder_p95_ms.r{rate}"] = p95
            third = max(len(rung) // 3, 1)
            growing = (
                median(rung[-third:]) > 2.0 * median(rung[:third])
                and 1e3 * median(rung[-third:]) > KNEE_P95_MS
            )
            if p95 <= KNEE_P95_MS and not growing:
                knee = float(rate)
            if rate == self.sizes["rate"]:
                latencies = rung
                layers["serve.p99_ms"] = 1e3 * percentile(rung, 99)
                layers["serve.generator_lag_p95_ms"] = (
                    1e3 * percentile(lags, 95)
                )
        layers["serve.knee_rps"] = knee
        probes, misses = self._account()
        return Round(
            ops=completed,
            seconds=elapsed,
            latencies=latencies,
            probes=probes,
            misses=misses,
            layers=layers,
        )

    # -- oracles ------------------------------------------------------------

    def verify(self) -> None:
        """Wire answers equal in-process ``Session.handle`` bitwise, on
        a replica session opened from the same snapshot.  Every refine
        is replayed (they change the basis they touch); probes are
        sampled; stats are compared by kind only (their counters depend
        on how the connections interleaved)."""
        every = self.sizes["oracle_every"]
        replica = Session.open(self.snapshot)
        for pool, kept in zip(self.pools, self.first_pass):
            for index in sorted(kept):
                request = pool[index]
                refine = isinstance(request, RefineRequest)
                if not refine and index % every:
                    continue
                check_wire_answer(
                    replica, request, json.loads(kept[index]), self.tally
                )

    # -- traced-run extras ---------------------------------------------------

    def trace_extras(self, timed, traced) -> Dict[str, float]:
        """Codec, framing and session cost per request, measured in
        process on the measured request stream; and what is left of the
        open-loop median once they are taken out."""
        sample = self.pools[0][: self.sizes["codec_sample"]]
        count = len(sample)
        laps: Dict[str, float] = {}

        def lap(name, produce):
            started = clock()
            out = produce()
            laps[name] = clock() - started
            return out

        one = Session.open(self.snapshot)
        batched = Session.open(self.snapshot)
        bodies = lap("enc_req", lambda: [encode_request(r) for r in sample])
        frames = lap("frame_req", lambda: [encode_frame(b) for b in bodies])
        parsed = lap("parse_req", lambda: [json.loads(f[4:]) for f in frames])
        requests = lap("dec_req", lambda: [decode_request(p) for p in parsed])
        answers = lap("handle", lambda: [one.handle(r) for r in requests])
        grouped = lap(
            "handle_batch",
            lambda: [
                a
                for start in range(0, count, 64)
                for a in batched.handle_batch(requests[start : start + 64])
            ],
        )
        out = lap("enc_resp", lambda: [encode_response(a) for a in answers])
        wire = lap("frame_resp", lambda: [encode_frame(b) for b in out])
        back = lap("parse_resp", lambda: [json.loads(f[4:]) for f in wire])
        lap("dec_resp", lambda: [decode_response(p) for p in back])
        for position, (single, group) in enumerate(zip(answers, grouped)):
            if isinstance(sample[position], StatsRequest):
                continue
            self.tally.check(
                encode_response(single) == encode_response(group),
                f"serve_mixed: handle_batch differs from handle at "
                f"request {position}",
            )

        def per_message(*names):
            return 1e6 * sum(laps[n] for n in names) / count

        extras = {
            "messages.encode_us": per_message("enc_req", "enc_resp"),
            "messages.decode_us": per_message("dec_req", "dec_resp"),
            "protocol.frame_us": per_message(
                "frame_req", "parse_req", "frame_resp", "parse_resp"
            ),
            "session.handle_us": per_message("handle"),
            "session.handle_batch_us": per_message("handle_batch"),
        }
        p50_us = 1e6 * median([percentile(r.latencies, 50) for r in traced])
        extras["serve.wire_residual_us"] = p50_us - (
            extras["session.handle_batch_us"]
            + extras["messages.encode_us"]
            + extras["messages.decode_us"]
            + extras["protocol.frame_us"]
        )
        return extras

    def lifecycle_layers(self) -> Dict[str, float]:
        return {
            "serve.boot_s": median(self.boot_s),
            "serve.drain_s": median(self.drain_s),
        }

    def peak_rss_mb(self) -> float:
        """The daemon's high-water mark, read just before it was told
        to stop."""
        return self.daemon_rss_mb


def check_wire_answer(replica: Session, request, body: dict, tally: Tally) -> None:
    """One wire response body against the replica's in-process answer."""
    expected = encode_response(replica.handle(request))
    if isinstance(request, StatsRequest):
        ok = body.get("kind") == expected["kind"]
    else:
        ok = body == expected
    tally.check(
        ok,
        f"serve_mixed: wire answer to request {request.request_id} "
        f"({request.kind}) differs from Session.handle",
    )
