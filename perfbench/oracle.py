"""The benchmark's own reference for checking the program's outputs.

Polarity values come from the benchmark's reading of sample_lexicon.tsv
and Dice distances from the set and bigram code below, never from the
program's similarity module.  Each ``check_*`` function returns a list
of error strings, empty when the output is right.
"""

from __future__ import annotations

TOL = 1e-12


def label_of(score: float) -> str:
    if score > 0:
        return "Positive"
    if score < 0:
        return "Negative"
    return "Neutral"


def symbols(encoding: str, bigram: bool) -> frozenset[str]:
    if bigram:
        return frozenset(encoding[i:i + 2] for i in range(len(encoding) - 1))
    return frozenset(encoding)


def dice(a: frozenset[str], b: frozenset[str]) -> float:
    return 1.0 - 2.0 * len(a & b) / (len(a) + len(b))


class Reference:
    """Lexicon values and encodings with a brute-force nearest-entry scan.

    Under the bigram variant a pair where either encoding is shorter than
    two symbols is compared by character sets, as the distance is defined.
    """

    def __init__(self, rows: list[tuple[str, float]], encodings: list[str], bigram: bool):
        if len(rows) != len(encodings):
            raise ValueError("one encoding per lexicon row expected")
        self.concepts = [c for c, _ in rows]
        self.values = [v for _, v in rows]
        self.id_of = {c: i for i, c in enumerate(self.concepts)}
        self.bigram = bigram
        self.charsets = [symbols(e, False) for e in encodings]
        self.bigrams = [symbols(e, True) if bigram and len(e) >= 2 else None for e in encodings]

    def distance(self, query: str, entry_id: int) -> float:
        entry_bigrams = self.bigrams[entry_id]
        if self.bigram and len(query) >= 2 and entry_bigrams is not None:
            return dice(symbols(query, True), entry_bigrams)
        return dice(symbols(query, False), self.charsets[entry_id])

    def nearest(self, query: str) -> tuple[float, int]:
        """Minimal (distance, entry id) over every entry."""
        qchars = symbols(query, False)
        qbigrams = symbols(query, True) if self.bigram and len(query) >= 2 else None
        best = (2.0, -1)
        for i, chars in enumerate(self.charsets):
            entry_bigrams = self.bigrams[i]
            if qbigrams is not None and entry_bigrams is not None:
                d = dice(qbigrams, entry_bigrams)
            else:
                d = dice(qchars, chars)
            if d < best[0]:
                best = (d, i)
        return best


def check_polarity(result, ref: Reference) -> list[str]:
    """Score is the mean lexicon value of the accepted outcomes; label its sign."""
    errors = []
    values = []
    for o in result.trace:
        if not o.accepted:
            continue
        entry = ref.id_of.get(o.matched)
        if entry is None:
            errors.append(f"accepted {o.original!r} as {o.matched!r}, which is not in the lexicon")
            continue
        values.append(ref.values[entry])
        if o.polarity_value != ref.values[entry]:
            errors.append(f"{o.matched!r} carries {o.polarity_value}, the lexicon says {ref.values[entry]}")
    expected = sum(values) / len(values) if values else 0.0
    if abs(result.score - expected) > TOL:
        errors.append(f"score {result.score} is not the mean {expected} of the accepted values")
    if result.label != label_of(expected):
        errors.append(f"label {result.label} is not the sign of {expected}")
    return errors


def check_match(original: str, query: str, matched: str, distance: float, ref: Reference,
                accept_distance: float) -> list[str]:
    """An accepted match lies at the reported distance, within accept_distance."""
    entry = ref.id_of.get(matched)
    if entry is None:
        return [f"{original!r} matched {matched!r}, which is not in the lexicon"]
    d = ref.distance(query, entry)
    errors = []
    if abs(d - distance) > TOL:
        errors.append(f"{original!r} -> {matched!r}: reported distance {distance}, recomputed {d}")
    if d > accept_distance + TOL:
        errors.append(f"{original!r} -> {matched!r} accepted at {d} > accept_distance {accept_distance}")
    return errors


def check_nearest(original: str, query: str, matched: str | None, ref: Reference,
                  accept_distance: float) -> list[str]:
    """No entry is strictly closer than the match (ties go to the lower id).

    With no match, no entry may lie within accept_distance.
    """
    best_d, best_id = ref.nearest(query)
    if matched is None:
        if best_d <= accept_distance:
            return [f"{original!r} left unmatched, but {ref.concepts[best_id]!r} lies at {best_d}"]
        return []
    entry = ref.id_of.get(matched)
    if entry is None:
        return [f"{original!r} matched {matched!r}, which is not in the lexicon"]
    if (best_d, best_id) < (ref.distance(query, entry), entry):
        return [f"{original!r} matched {matched!r}, but {ref.concepts[best_id]!r} is closer at {best_d}"]
    return []


def check_rewrite(prefix: tuple[str, ...], token: str, suffix: tuple[str, ...], output: str,
                  query: str, ref: Reference, accept_distance: float) -> tuple[list[str], str | None]:
    """normalize_sentence changed nothing but the token's span.

    Returns the errors and the concept the token was replaced by (None
    when it was left as is).
    """
    words = output.split(" ")
    n_pre, n_suf = len(prefix), len(suffix)
    if (
        len(words) <= n_pre + n_suf
        or tuple(words[:n_pre]) != prefix
        or tuple(words[len(words) - n_suf:]) != suffix
    ):
        return [f"output {output!r} changed words outside the OOV token {token!r}"], None
    middle = words[n_pre:len(words) - n_suf]
    if middle == [token]:
        return [], None
    concept = "_".join(middle)
    entry = ref.id_of.get(concept)
    if entry is None:
        return [f"{token!r} rewritten to {concept!r}, which is not in the lexicon"], None
    d = ref.distance(query, entry)
    if d > accept_distance + TOL:
        return [f"{token!r} rewritten to {concept!r} at distance {d} > {accept_distance}"], concept
    return [], concept
