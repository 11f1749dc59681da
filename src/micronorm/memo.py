"""Bounded memo for the two pure per-token layers, G2P and top-k search.

Microtext tokens repeat: the bundled gate corpus has 1,427 OOV
candidate occurrences but 203 distinct tokens, and one pass over its 200
OOV rows and the 40 suite rows asks 247 distinct queries.  ``MEMO_SIZE``
holds four times that.  A memo keeps only keys and results, never a
reference to its owner, so an engine or index is freed by reference
counting as soon as its last user drops it.
"""

from __future__ import annotations

from collections import OrderedDict

MEMO_SIZE = 1024


class Memo(OrderedDict):
    """At most ``MEMO_SIZE`` results; the least recently used goes first.

    Results must not be None, which ``lookup`` returns for a miss.  Threads
    may share a memo: each step is one atomic dict operation, and the only
    interleaving that can fail, an eviction between ``get`` and
    ``move_to_end``, is caught.
    """

    def lookup(self, key):
        """The stored result for ``key``, or None."""
        value = self.get(key)
        if value is not None:
            try:
                self.move_to_end(key)
            except KeyError:  # evicted by another thread since the get
                pass
        return value

    def store(self, key, value):
        """Remember ``value`` for ``key`` and return it."""
        self[key] = value
        if len(self) > MEMO_SIZE:
            self.popitem(last=False)
        return value
