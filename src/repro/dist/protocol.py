"""Wire protocol of the distributed sweep executor.

JSON over HTTP/1.1 keep-alive connections, answered by the experiment
service's handler (:mod:`repro.service.app`, table ``DIST_ROUTES``), so
errors are ``{"detail": …}`` bodies after the service's 411/413/422 body
checks.  Every ``POST`` body names ``worker`` and ``fingerprint``, and a
fingerprint other than the coordinator's is refused on every route (403,
naming both), so a stale-code worker never touches a shard.

Routes (worker → coordinator, with the coordinator's replies):

=========================  ================================================
``POST /dist/hello``       replied with ``welcome`` (plan size, lease
                           timeout); a worker's first request.
``POST /dist/claim``       request a shard; replied with ``lease`` (index,
                           spec, spec_key, lease id, deadline), ``wait``
                           (everything is leased; retry_after seconds) or
                           ``drained`` (all shards done — the worker exits).
``POST /dist/heartbeat``   extend ``lease``; replied ``ok`` while it is
                           live, ``expired`` once it lapsed (the shard may
                           have been re-issued).
``POST /dist/complete``    deliver ``record`` for shard ``index``; replied
                           ``ok`` with ``accepted: false`` for duplicates.
``GET /dist/status``       progress snapshot; no fingerprint (monitoring).
=========================  ================================================

Everything here is stdlib-only on purpose — the executor must run anywhere
the store runs.
"""

from __future__ import annotations

import http  # the package only: http.client loads with the first CoordinatorClient
import json
import os
import socket
from typing import Dict, Optional, Tuple, Union

Address = Union[str, Tuple[str, int]]


class ProtocolError(RuntimeError):
    """An error answer, an unexpected reply, or a dropped connection."""


class WorkerRejectedError(RuntimeError):
    """The coordinator refused this worker (fingerprint mismatch, by name)."""


def parse_address(address: Address) -> Tuple[str, int]:
    """``"HOST:PORT"`` (or an already-split tuple) → ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"coordinator address must look like HOST:PORT, got {address!r}"
        )
    return host, int(port)


def default_worker_id() -> str:
    """``hostname-pid`` — unique enough to tell workers apart in status."""
    return f"{socket.gethostname()}-{os.getpid()}"


class CoordinatorClient:
    """One worker-side keep-alive connection to a coordinator (opened by
    the first request, reopened after an error answer closed it).

    A 403 raises :class:`WorkerRejectedError`, any other error status
    :class:`ProtocolError`.  Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        address: Address,
        worker: str = "",
        fingerprint: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        import http.client  # ~20 ms (ssl): workers pay it, ``import repro.api`` does not

        self.host, self.port = parse_address(address)
        self.worker = worker or default_worker_id()
        if fingerprint is None:
            from repro.store.keys import code_fingerprint

            fingerprint = code_fingerprint()
        self.fingerprint = fingerprint
        self._conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _request(
        self, method: str, route: str, body: Optional[bytes] = None
    ) -> Dict[str, object]:
        try:
            self._conn.request(method, f"/dist/{route}", body)
            response = self._conn.getresponse()
            reply = json.loads(response.read())
        except (http.client.HTTPException, ValueError) as exc:
            self._conn.close()  # the next request starts on a fresh connection
            raise ProtocolError(
                f"coordinator at {self.host}:{self.port} gave no usable answer to "
                f"{route!r}: {exc!r}"
            ) from None
        if response.status == 403:
            raise WorkerRejectedError(reply["detail"])
        if response.status >= 400:
            raise ProtocolError(reply["detail"])
        return reply

    def _post(self, route: str, **fields: object) -> Dict[str, object]:
        """A worker request: ``fields`` plus who is asking, with what code."""
        body = {"worker": self.worker, "fingerprint": self.fingerprint, **fields}
        return self._request("POST", route, json.dumps(body).encode())

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CoordinatorClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # RPCs
    # ------------------------------------------------------------------
    def hello(self) -> Dict[str, object]:
        """The first request; raises :class:`WorkerRejectedError` on stale code."""
        reply = self._post("hello")
        if reply.get("type") != "welcome":
            raise ProtocolError(f"expected welcome, got {reply!r}")
        return reply

    def claim(self) -> Dict[str, object]:
        """Ask for a shard: a ``lease``, ``wait`` or ``drained`` reply."""
        reply = self._post("claim")
        if reply.get("type") not in ("lease", "wait", "drained"):
            raise ProtocolError(f"unexpected claim reply {reply!r}")
        return reply

    def heartbeat(self, lease: str) -> bool:
        """Extend a lease; ``False`` once it expired (shard may be re-issued)."""
        return self._post("heartbeat", lease=lease).get("type") == "ok"

    def complete(self, lease: str, index: int, record: Dict[str, object]) -> bool:
        """Deliver a finished record; ``False`` marks a duplicate completion."""
        reply = self._post("complete", lease=lease, index=index, record=record)
        return bool(reply.get("accepted"))

    def status(self) -> Dict[str, object]:
        """The coordinator's progress snapshot (no fingerprint required)."""
        return self._request("GET", "status")


def coordinator_status(address: Address, timeout: float = 10.0) -> Dict[str, object]:
    """One-shot status query against a running coordinator."""
    with CoordinatorClient(address, worker="status-probe", timeout=timeout) as client:
        return client.status()
