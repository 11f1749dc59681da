import sys
import threading

from micronorm.memo import MEMO_SIZE, Memo


def test_lookup_refreshes_recency():
    memo = Memo()
    for i in range(MEMO_SIZE):
        memo.store(i, -i)
    assert memo.lookup(0) == 0
    memo.store(MEMO_SIZE, -MEMO_SIZE)
    # 0 was used last, so 1 is now the least recently used and goes
    assert memo.lookup(0) == 0
    assert memo.lookup(1) is None
    assert len(memo) == MEMO_SIZE


def test_threads_share_one_memo():
    # eval --threads shares one engine and one index, so their memos see
    # concurrent lookups, stores and evictions
    memo = Memo()
    errors = []

    def work(seed):
        try:
            for i in range(20_000):
                key = (i * 7 + seed) % (2 * MEMO_SIZE)
                got = memo.lookup(key)
                if got is None:
                    memo.store(key, -key)
                elif got != -key:
                    errors.append((key, got))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    assert len(memo) <= MEMO_SIZE
