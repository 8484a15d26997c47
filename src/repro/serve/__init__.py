"""Network query serving behind one redesigned client-facing API.

The package has three layers:

* :mod:`repro.serve.service` — :class:`IndexService`, the canonical
  query contract every front-door (local or remote) satisfies;
* :mod:`repro.serve.protocol` — the length-prefixed wire protocol
  (binary ``query``, JSON other ops, validation, typed errors);
* :mod:`repro.serve.server` / :mod:`repro.serve.client` —
  :class:`QueryServer` (admission control, deadlines, a request run
  start to finish by the reader that read it, ``serve.*`` metrics) and
  the remote :class:`Client`.

Start a server over any service and query it remotely::

    index = RankedJoinIndex.build(tuples, k=50)
    with QueryServer(index, port=0) as server:
        host, port = server.address
        with Client(host, port) as client:
            client.query((2.0, 1.0), k=10, deadline=0.05)

``python -m repro.cli serve`` wires the same pieces to a disk index;
``python -m repro.bench --serve`` load-tests them.
"""

from .client import Client
from .protocol import MAX_FRAME_BYTES, OPS, WRITE_OPS, Request
from .server import QueryServer
from .service import IndexService, MutableIndexService

__all__ = [
    "Client",
    "IndexService",
    "MAX_FRAME_BYTES",
    "MutableIndexService",
    "OPS",
    "QueryServer",
    "Request",
    "WRITE_OPS",
]
