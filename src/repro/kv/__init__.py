"""Prefix-sharing block-map KV subsystem.

The engine-level :class:`~repro.engine.kvcache.KVCache` does paged *byte*
accounting; this package adds the block *map* on top of it:

* :class:`~repro.kv.blockpool.BlockPool` — refcounted physical blocks
  with free-list accounting against the cache's (dynamic) capacity;
* :class:`~repro.kv.prefix.PrefixIndex` — a radix tree over block-content
  keys that matches an arriving request's prompt against cached prefixes
  at block granularity (copy-on-write on mid-block divergence, LRU
  eviction over unreferenced leaves);
* :class:`~repro.kv.store.KvShareStore` — the per-instance facade the
  serving system drives (admit / commit / release / live-byte view);
* :class:`~repro.kv.admission.KvShareAdmission` — the policy seam that
  couples admission to free-block supply.

Everything here is inert unless a run sets ``kv_sharing="on"``; the
default path never constructs these objects, keeping unshared runs
byte-identical to the pre-subsystem behaviour.
"""

from repro.kv.admission import KvShareAdmission
from repro.kv.blockpool import Block, BlockPool
from repro.kv.prefix import PrefixIndex, PrefixNode, block_key, parse_segments
from repro.kv.store import KvShareStore

#: The ``kv_sharing`` run axis: mode -> one-line summary (``repro list kv-sharing``).
KV_SHARING_MODES: dict[str, str] = {
    "off": "per-request KV accounting (default; byte-identical to prior runs)",
    "on": "prefix-sharing block map (radix cache, copy-on-write, LRU eviction)",
}

__all__ = [
    "Block",
    "BlockPool",
    "KV_SHARING_MODES",
    "KvShareAdmission",
    "KvShareStore",
    "PrefixIndex",
    "PrefixNode",
    "block_key",
    "parse_segments",
]
