"""Word tokens and their n-grams, the input of every overlap metric.

Kept apart from :mod:`santrauka.tokenizer`, which re-exports these same
objects, so that :mod:`santrauka.metrics` scores a pair without importing
numpy.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from typing import Sequence

from santrauka._checks import count


def _is_punct(ch: str) -> bool:
    # no alphanumeric code point has a P* category; skip the lookup for them
    return not ch.isalnum() and unicodedata.category(ch).startswith("P")


def word_tokenize(text: str, lowercase: bool = False) -> list[str]:
    """Split on whitespace and strip punctuation from word edges.

    Internal punctuation (hyphens, apostrophes) is kept; words that are
    all punctuation disappear. Idempotent on its own output.
    """
    if lowercase:
        # one lower() for the whole text equals one per token: no code
        # point lowers to or from whitespace or punctuation, and the
        # final-sigma rule reads no context across whitespace (both gated
        # in tests/test_tokenizer.py)
        text = text.lower()
    tokens = []
    for chunk in text.split():
        # alphanumeric edges are never punctuation: most words skip the scan
        if not (chunk[0].isalnum() and chunk[-1].isalnum()):
            start, end = 0, len(chunk)
            while start < end and _is_punct(chunk[start]):
                start += 1
            while end > start and _is_punct(chunk[end - 1]):
                end -= 1
            if start == end:
                continue
            chunk = chunk[start:end]
        tokens.append(chunk)
    return tokens


def ngrams(tokens: Sequence, n: int) -> Counter:
    """All contiguous windows of length ``n``, with multiplicities."""
    n = count("n-gram order", n, 1)
    if n > len(tokens):
        return Counter()
    # the i-th shifted copy supplies each window's i-th item; zip stops at
    # the shortest copy, so every window is whole
    return Counter(zip(*[tokens[i:] for i in range(n)]))
