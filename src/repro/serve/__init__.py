"""The ONEX serving layer: thread-safe, cached, truly batched queries.

The paper's promise is *interactive online* exploration; this package
is the piece that lets one built index answer many users at once.
:class:`~repro.serve.service.OnexService` wraps an index with
build-once-under-contention hydration, an LRU result cache, and a
length-grouped batch executor (:mod:`repro.serve.batch`);
:mod:`repro.serve.server` speaks the JSON-lines protocol behind the
``onex serve`` CLI mode. See ``DESIGN.md`` §9.
"""

from repro._lazy import lazy_exports

_HOMES = {
    "OnexService": "repro.serve.service",
    "ResultCache": "repro.serve.cache",
    "default_workers": "repro.serve.batch",
    "execute_batch": "repro.serve.batch",
    "handle_request": "repro.serve.server",
    "query_digest": "repro.serve.cache",
    "serve_forever": "repro.serve.server",
    "serve_lines": "repro.serve.server",
}
__getattr__, __dir__ = lazy_exports(globals(), _HOMES)

__all__ = [
    "OnexService",
    "ResultCache",
    "default_workers",
    "execute_batch",
    "handle_request",
    "query_digest",
    "serve_forever",
    "serve_lines",
]
