"""The benchmark-owned server child: one QueryServer, driven over stdio.

Started by ``serving.ServerChild`` as ``python _server.py <spec.json>``
in a fresh interpreter.  It receives only generated inputs — a tuple
file, ``K``, the service kind — and nothing they were derived from.
Protocol, one JSON object per line:

* stdout ``{"event": "ready", "port": ...}`` once the server accepts;
* stdin ``report`` -> the child's CPU time, peak RSS, the server's
  lifetime counters and rolling window, and (traced mode only) the
  queue-depth / batch-size series of the ``MetricsRecorder`` it attached;
* stdin ``close`` -> ``QueryServer.close()`` timed here, on the idle
  server, plus the threads still alive after it; then the child exits;
* EOF on stdin -> exit at once, so a dead harness never leaves an orphan.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from pathlib import Path


def _build_service(spec: dict):
    import numpy as np

    from repro.core.index import RankedJoinIndex
    from repro.core.tuples import RankTupleSet
    from repro.storage.durable import DurableRankedJoinIndex

    columns = np.load(spec["tuples"])
    tuples = RankTupleSet(columns["tid"], columns["s1"], columns["s2"])
    if spec["service"] == "memory":
        return RankedJoinIndex.build(tuples, spec["k_bound"])
    return DurableRankedJoinIndex.create(
        spec["directory"],
        tuples,
        spec["k_bound"],
        compaction_threshold=spec["compaction_threshold"],
        fsync=True,
    )


def _say(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from repro.obs import NULL_RECORDER, MetricsRecorder
    from repro.serve import QueryServer

    service = _build_service(spec)
    metrics = MetricsRecorder() if spec["traced"] else None
    server = QueryServer(
        service, port=0, recorder=metrics or NULL_RECORDER
    ).start()
    _say({"event": "ready", "port": server.address[1]})

    for line in sys.stdin:
        command = line.strip()
        if command == "report":
            report = {
                "event": "report",
                "cpu_s": time.process_time(),
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "server": server.stats(),
                "window": server.window.snapshot(),
            }
            if metrics is not None:
                report["queue_depth_mean"] = metrics.series(
                    "serve.queue_depth"
                ).mean
                report["batch_mean"] = metrics.series("serve.batch_size").mean
            _say(report)
        elif command == "close":
            started = time.perf_counter()
            server.close()
            shutdown_s = time.perf_counter() - started
            leaked = [
                t.name
                for t in threading.enumerate()
                if t is not threading.main_thread() and t.is_alive()
            ]
            if hasattr(service, "close"):
                service.close()
            _say(
                {
                    "event": "closed",
                    "shutdown_s": shutdown_s,
                    "threads_leaked": leaked,
                }
            )
            return 0
    return 0  # stdin closed: the harness is gone


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
