"""Reference versions of the scoring primitives: the plain loops.

``santrauka.tokenizer.word_tokenize`` and ``ngrams`` take shortcuts (no
edge scan on alphanumeric edges, windows counted by ``zip`` over shifted
copies). These are the straightforward versions they must match exactly,
order included. Nothing here calls the package.
"""

from __future__ import annotations

import unicodedata
from collections import Counter


def category_word_tokenize(text, lowercase=False):
    """word_tokenize with the punctuation test as a category lookup on
    every edge character of every chunk."""
    def is_punct(ch):
        return unicodedata.category(ch).startswith("P")

    tokens = []
    for chunk in text.split():
        start, end = 0, len(chunk)
        while start < end and is_punct(chunk[start]):
            start += 1
        while end > start and is_punct(chunk[end - 1]):
            end -= 1
        if start < end:
            word = chunk[start:end]
            tokens.append(word.lower() if lowercase else word)
    return tokens


def slice_window_ngrams(tokens, n):
    """ngrams as one tuple slice per window."""
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

