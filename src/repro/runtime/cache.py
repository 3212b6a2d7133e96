"""The Hf-side fragment result cache (docs/CACHING.md).

At fleet scale the dominant hidden-server cost is re-executing fragments
that are pure functions of their inputs (ROADMAP item 4).  This module
memoizes those executions *without changing anything observable*: a hit
replays the recorded result, activation-env writes, step count and
statement mix, and the server still performs every piece of accounting —
metrics, flight-recorder events, channel traffic — exactly as a real
execution would.  ``--cache on`` is therefore bit-identical to ``--cache
off`` (outputs, steps, transcripts, audit traffic), the same bar
``--batching`` met; the fuzz oracle's cache cells prove it continuously
(:mod:`repro.fuzz.oracle`).

Key derivation (see :func:`repro.runtime.server.HiddenServer.call`):

* the fragment identity ``(fn_id, label)``;
* the **type-tagged** tuple of sent values (``0``, ``0.0`` and ``false``
  compare equal in Python but are distinct cache inputs);
* the type-tagged snapshot of the activation-local names the purity pass
  says the fragment may read (:class:`~repro.core.purity.PurityVerdict.
  env_reads`), defaulting to ``0`` like the evaluator does;
* for fragments that read hidden globals or fields: the cache's
  **invalidation epoch**, bumped on every hidden-store write — and the
  receiver's instance id for field readers, since two instances hold
  independent field stores within one epoch.

Invalidation is epoch-based, not value-based, deliberately: a skipped
invalidation therefore produces *real* stale hits, which is exactly what
the planted-bug self-check (:mod:`repro.fuzz.selfcheck`) relies on to
prove the fuzz oracle would catch one.

The cache is a bounded LRU.  ``quota`` (a :class:`CacheQuota`) optionally
charges entries against a shared per-tenant budget, so one chatty session
of a multi-tenant daemon cannot evict-starve its neighbours' programs
while still bounding the tenant's total footprint (docs/OPERATIONS.md).
"""

import collections
import threading

from repro import obs
# exported metric names (documented in docs/OBSERVABILITY.md)
from repro.obs.metrics import (  # noqa: F401 (re-exported)
    M_CACHE_EVICTIONS, M_CACHE_HITS, M_CACHE_INVALIDATIONS, M_CACHE_MISSES,
)

#: per-session entry bound when no explicit size is configured
DEFAULT_MAX_ENTRIES = 1024

#: scalar type tags for cache keys (``0 == 0.0 == False`` in Python, but
#: they are different values to the split program)
_TYPE_TAGS = {bool: "b", int: "i", float: "f"}


def tag_value(value):
    """``("i", 3)``-style tagged value, or ``None`` for non-scalars
    (which make the call unkeyable — the server just executes)."""
    tag = _TYPE_TAGS.get(type(value))
    if tag is None:
        return None
    return (tag, value)


class CacheQuota:
    """A shared entry budget — one per tenant on the daemon, handed to
    every session-private :class:`FragmentCache` of that program."""

    __slots__ = ("max_entries", "_used", "_lock")

    def __init__(self, max_entries):
        self.max_entries = int(max_entries)
        self._used = 0
        self._lock = threading.Lock()

    def acquire(self):
        with self._lock:
            if self._used >= self.max_entries:
                return False
            self._used += 1
            return True

    def release(self, n=1):
        with self._lock:
            self._used = max(0, self._used - n)

    @property
    def used(self):
        return self._used

    def __repr__(self):
        return "<CacheQuota %d/%d>" % (self._used, self.max_entries)


class CacheEntry:
    """One memoized execution: the result plus everything a transparent
    replay must reproduce (steps, statement mix, activation-env writes)."""

    __slots__ = ("result", "steps", "stmt_counts", "env_writes")

    def __init__(self, result, steps, stmt_counts=None, env_writes=None):
        self.result = result
        self.steps = steps
        self.stmt_counts = stmt_counts
        self.env_writes = env_writes


class FragmentCache:
    """Bounded LRU of :class:`CacheEntry` with epoch invalidation.

    ``lookup``/``store`` take the fragment identity purely for telemetry
    (the flight-recorder ``cache`` events); the key is built by the
    server.  Counters are exported per program:
    ``repro_cache_{hits,misses,evictions,invalidations}_total{program}``.
    """

    def __init__(self, max_entries=DEFAULT_MAX_ENTRIES, quota=None,
                 program="default"):
        self.max_entries = int(max_entries)
        self.quota = quota
        self.program = str(program)
        self.entries = collections.OrderedDict()
        #: bumped on every hidden-store write; part of every key that
        #: depends on hidden globals or fields
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._sink = obs.get_sink()

    # -- probing ---------------------------------------------------------------

    def lookup(self, key, fn="", label=None, max_steps_left=None):
        """The entry for ``key``, or ``None`` (counted as a miss).

        ``max_steps_left`` guards transparency at the step limit: an
        entry whose replayed step count would cross it is unusable — the
        real execution would abort mid-fragment, with partial effects the
        replay cannot reproduce — so the server executes for real (and
        this probe counts as a miss)."""
        entry = self.entries.get(key)
        if entry is not None and (
            max_steps_left is None or entry.steps <= max_steps_left
        ):
            self.entries.move_to_end(key)
            self.hits += 1
            if self._sink is not None:
                self._sink.cache("hit", self.program, fn, label)
            return entry
        self.misses += 1
        if self._sink is not None:
            self._sink.cache("miss", self.program, fn, label)
        return None

    def store(self, key, entry, fn="", label=None):
        """Insert ``entry``, evicting LRU entries past the session bound
        or the shared tenant quota.  Returns True when stored."""
        if key in self.entries:
            # refresh (e.g. a step-limit-rejected entry re-filled): no
            # new quota charge
            self.entries[key] = entry
            self.entries.move_to_end(key)
            return True
        while len(self.entries) >= self.max_entries:
            self._evict(fn, label)
        if self.quota is not None:
            while not self.quota.acquire():
                if not self.entries:
                    return False  # tenant budget exhausted by other sessions
                self._evict(fn, label)
        self.entries[key] = entry
        return True

    def _evict(self, fn="", label=None):
        self.entries.popitem(last=False)
        if self.quota is not None:
            self.quota.release()
        self.evictions += 1
        if self._sink is not None:
            self._sink.cache("evict", self.program, fn, label)

    def invalidate(self, fn="", label=None):
        """A hidden-store write happened: bump the epoch.  Entries keyed
        on the old epoch can never match again and age out through LRU
        order; entries that read no hidden store stay valid."""
        self.epoch += 1
        self.invalidations += 1
        if self._sink is not None:
            self._sink.cache("invalidate", self.program, fn, label)

    def release_all(self):
        """Return every quota charge (session teardown on the daemon)."""
        if self.quota is not None and self.entries:
            self.quota.release(len(self.entries))
        self.entries.clear()

    # -- reporting -------------------------------------------------------------

    def hit_rate(self):
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def stats(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": len(self.entries),
            "epoch": self.epoch,
        }

    def __repr__(self):
        return "<FragmentCache %s %d entries, %d/%d hit/miss, epoch %d>" % (
            self.program, len(self.entries), self.hits, self.misses,
            self.epoch,
        )
