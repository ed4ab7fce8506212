"""``repro.serving.cluster`` — the HTTP front door over one detection service.

* :class:`ShardRouter` — the front door's score/update adapter over one
  :class:`repro.serving.DetectionService`.
* :class:`ClusterHTTPServer` / :func:`run_server` — the asyncio HTTP/JSON
  front door (``/score``, ``/update``, ``/healthz``, ``/metrics``,
  ``/traces``) with bounded admission, wired to the ``repro serve`` CLI.

.. code-block:: python

    from repro.serving.cluster import ShardRouter

    with ShardRouter.from_artifact("artifacts/bsg4bot-mgtab") as router:
        probabilities = router.score([17, 42, 108])
        router.submit_update(edges_added={"followers": ([17], [42])})
        probabilities = router.score([17])            # sees the new edge
"""

from repro.serving.cluster.http import ClusterHTTPServer, run_server
from repro.serving.cluster.router import ClusterRequest, ShardRouter

__all__ = [
    "ClusterHTTPServer",
    "ClusterRequest",
    "ShardRouter",
    "run_server",
]
