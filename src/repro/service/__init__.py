"""Experiment service: submit plans over HTTP, stream records, query the store.

Two stdlib-only halves, split the way :mod:`repro.dist` is:

* :mod:`repro.service.jobs` — job orchestration.  A :class:`JobManager` owns
  one background worker thread, one shared warm
  :class:`~repro.experiments.sweep.WorkerPool` and one
  :class:`~repro.store.ResultStore`; identical in-flight submissions
  **coalesce onto one job**, and records stream out in completion order.
  Usable as a library without any HTTP.
* :mod:`repro.service.app` — the ``http.server`` layer over the manager
  (submit / poll / NDJSON-stream / store-query routes), entered through
  :func:`make_server`; ``python -m repro serve`` is its command line.
"""

from repro.service.jobs import Job, JobManager

__all__ = ["Job", "JobManager", "make_server"]


def make_server(*args, **kwargs):
    """:func:`repro.service.app.make_server`, importing the HTTP half on first
    use so ``import repro.api`` does not pay for ``http.server``."""
    from repro.service.app import make_server as _make_server

    return _make_server(*args, **kwargs)
