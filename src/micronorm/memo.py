"""Size of the bounded memos: a pipeline config's OOV resolutions, and behind
them top-k search and its (shared count, set size) groups.

Microtext tokens repeat: the bundled gate corpus has 1,427 OOV
candidate occurrences but 203 distinct tokens, and one pass over its 200
OOV rows and the 40 suite rows asks 247 distinct queries.  ``MEMO_SIZE``
holds four times that.  Each memo is a ``functools.lru_cache`` of this
size, which drops the least recently used result first and counts its
hits and misses in ``cache_info()``.
"""

MEMO_SIZE = 1024
