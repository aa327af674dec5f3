"""Built-in rule catalogue; importing this package registers every rule.

One module per protocol family:

* :mod:`.storage` — RPR001 epoch/staging discipline, RPR004 ingest-guard
  discipline;
* :mod:`.caches` — RPR007 cache-pairing;
* :mod:`.events` — RPR003 event-emission completeness;
* :mod:`.vectorized` — RPR005 oracle-coverage registry, RPR006 hot-path
  numpy hygiene;
* :mod:`.api` — RPR008 public-API consistency.
"""

from . import api, caches, events, storage, vectorized

__all__ = ["api", "caches", "events", "storage", "vectorized"]
