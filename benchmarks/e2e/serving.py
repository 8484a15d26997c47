"""Process and thread hygiene for the served workloads.

:class:`ServerChild` owns the ``_server.py`` process: it is started in a
fresh interpreter, spoken to over stdio with a timeout on every read,
and *always* reaped — ``close()`` is idempotent and callers hold it in a
``with`` block, so a client-thread exception can never orphan the child.
:func:`run_segment` drives the closed-loop client threads of one timed
segment and hands back every latency, answer and failure; nothing a
client thread raises is swallowed.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.errors import ReproError, ServerConnectionError
from repro.serve import Client

_HERE = Path(__file__).resolve().parent
SRC = Path(repro.__file__).resolve().parents[1]  # the child imports the same tree
_READY_TIMEOUT_S = 60.0
#: ``QueryServer.close()`` takes 5 s today (blocked ``accept``).
_COMMAND_TIMEOUT_S = 30.0


class ServerChild:
    """The benchmark-owned server process (see ``_server.py``)."""

    def __init__(
        self,
        workdir: Path,
        tuples,
        k_bound: int,
        *,
        service: str = "memory",
        compaction_threshold: int = 64,
        traced: bool = False,
    ):
        workdir.mkdir(parents=True, exist_ok=True)
        self.directory = workdir / "durable"
        np.save(
            workdir / "tuples.npy",
            np.rec.fromarrays(
                [tuples.tids, tuples.s1, tuples.s2], names="tid,s1,s2"
            ),
        )
        spec = {
            "src": str(SRC),
            "tuples": str(workdir / "tuples.npy"),
            "k_bound": k_bound,
            "service": service,
            "directory": str(self.directory),
            "compaction_threshold": compaction_threshold,
            "traced": traced,
        }
        (workdir / "spec.json").write_text(json.dumps(spec))
        self._buffer = b""
        self._proc = subprocess.Popen(
            [sys.executable, str(_HERE / "_server.py"), str(workdir / "spec.json")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        try:
            self.port = self._read(_READY_TIMEOUT_S)["port"]
        except BaseException:
            self.close()
            raise

    def _read(self, timeout_s: float) -> dict:
        """One JSON line from the child, or a typed failure on timeout/EOF."""
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + timeout_s
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise RuntimeError(f"server child silent for {timeout_s}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"server child exited (code {self._proc.poll()})"
                )
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self._proc.stdin.write(name.encode() + b"\n")
        return self._read(_COMMAND_TIMEOUT_S)

    def shutdown(self) -> dict:
        """Timed ``QueryServer.close()`` in the child; then reap it."""
        try:
            return self.command("close")
        finally:
            self.close()

    def kill(self) -> None:
        """``SIGKILL``: the crash the durable workloads recover from."""
        self._proc.send_signal(signal.SIGKILL)
        self.close()

    def close(self) -> None:
        """Reap the child whatever state it is in (idempotent)."""
        proc = self._proc
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()  # EOF on stdin asks the child to exit
            except OSError:
                pass
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(port: int) -> Client:
    """A connected client with ``k_bound`` cached (off the timed path)."""
    client = Client("127.0.0.1", port, request_timeout_s=10.0)
    client.k_bound
    return client


@dataclass
class ClientLog:
    """What one client thread did in one segment."""

    read_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    #: ``(request index, answer)`` of every completed read.
    answers: list[tuple[int, list]] = field(default_factory=list)
    #: Indices of the writes the server acknowledged.
    acked: list[int] = field(default_factory=list)
    #: ``(request index, repr(exception))`` of every failed operation.
    failures: list[tuple[int, str]] = field(default_factory=list)


def _client_loop(
    client: Client, requests, k: int, log: ClientLog, tracer, rid_base: int
) -> None:
    """Closed loop: the next request goes out only after the last answer."""
    clock = time.perf_counter
    for i, (op, payload) in enumerate(requests):
        if op == "query":
            call, args = client.query, (payload, k)
        else:
            call = client.insert if op == "insert" else client.delete
            args = (payload,)
        try:
            started = clock()
            if tracer is None:
                answer = call(*args)
            else:
                answer = tracer.call(f"client.{op}", rid_base + i, call, *args)
            elapsed = clock() - started
        except ServerConnectionError:
            raise  # the transport is gone: run_segment fails the rest
        except ReproError as exc:
            # Refused, shed, timed out: a failure the caller saw.  The
            # loop goes on, as a real closed-loop caller would.
            log.failures.append((i, repr(exc)))
            continue
        if op == "query":
            log.read_s.append(elapsed)
            log.answers.append((i, answer))
        else:
            log.write_s.append(elapsed)
            log.acked.append(i)


def run_segment(
    clients: list[Client], plans: list[list], k: int, tracer=None, rid_base: int = 0
) -> tuple[list[ClientLog], float]:
    """Run one plan per client concurrently; returns logs and wall time.

    An exception that is not a typed :class:`ReproError` ends that
    client's segment; it is recorded against the request it hit and
    every request the client did not get to, so it lands in
    ``failed_share`` instead of vanishing with the thread.
    """
    logs = [ClientLog() for _ in clients]

    def worker(slot: int) -> None:
        log = logs[slot]
        try:
            first_rid = rid_base + sum(len(p) for p in plans[:slot])
            _client_loop(clients[slot], plans[slot], k, log, tracer, first_rid)
        except Exception as exc:  # boundary: thread must report, not die
            done = len(log.answers) + len(log.acked) + len(log.failures)
            log.failures.extend(
                (i, f"client thread died: {exc!r}")
                for i in range(done, len(plans[slot]))
            )

    threads = [
        threading.Thread(target=worker, args=(slot,), name=f"e2e-client-{slot}")
        for slot in range(len(clients))
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return logs, time.perf_counter() - started
