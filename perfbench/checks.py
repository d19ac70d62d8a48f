"""Output checks that fail a benchmark run.

Each check appends a readable problem to a :class:`Checks` list instead
of raising, so one run reports every kind of failure it saw.
"""

from __future__ import annotations

import math

from santrauka.metrics import RougeScore, stem_normalize
from santrauka.tokenizer import word_tokenize

#: Problems kept for the report; the count beyond this is still tracked.
MAX_LISTED = 20


class Checks:
    def __init__(self):
        self.problems: list[str] = []
        self.count = 0

    def fail(self, message: str) -> None:
        self.count += 1
        if len(self.problems) < MAX_LISTED:
            self.problems.append(message)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    @property
    def ok(self) -> bool:
        return self.count == 0


def check_decode(checks: Checks, where: str, config, result) -> None:
    """Step budget, score range, and the repeated-n-gram ban."""
    checks.expect(result.steps <= config.max_length,
                  f"{where}: {result.steps} steps exceed max_length {config.max_length}")
    checks.expect(math.isfinite(result.score) and result.score <= 0.0,
                  f"{where}: score {result.score!r} is not a finite log-probability")
    n = config.no_repeat_ngram_size
    if n is not None:
        ids = result.tokens.ids
        grams = [ids[i : i + n] for i in range(len(ids) - n + 1)]
        checks.expect(len(grams) == len(set(grams)),
                      f"{where}: a {n}-gram repeats despite the ban")


def check_record(checks: Checks, where: str, record) -> None:
    for name in ("rouge1", "rouge2", "rougeL"):
        f1 = getattr(record, name).f1
        checks.expect(0.0 <= f1 <= 1.0, f"{where}: {name} F1 {f1!r} outside [0, 1]")


def lcs_oracle(a, b) -> int:
    """Longest common subsequence length by the full DP table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, start=1):
        row, above = table[i], table[i - 1]
        for j, y in enumerate(b, start=1):
            row[j] = above[j - 1] + 1 if x == y else max(above[j], row[j - 1])
    return table[-1][-1]


def check_rouge_l(checks: Checks, where: str, candidate: str, reference: str,
                  stemmer, record) -> None:
    """ROUGE-L of a record against the DP oracle on the same tokens."""
    cand = stem_normalize(word_tokenize(candidate, lowercase=True), stemmer)
    ref = stem_normalize(word_tokenize(reference, lowercase=True), stemmer)
    expected = RougeScore.from_counts(lcs_oracle(cand, ref), len(cand), len(ref))
    checks.expect(record.rougeL == expected,
                  f"{where}: rouge_l {record.rougeL} differs from the DP oracle {expected}")
