"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the seed, so the same seed gives
the same inputs on every machine. The program under test only ever sees
what these functions produce.
"""

from __future__ import annotations

import json
import math

import numpy as np

SUMMARY_WORDS = ["kalba", "diena", "miela", "balta", "gelme", "email",
                 "dale", "gija", "medis", "akis"]
BODY_WORDS = ["noru", "purvo", "rytu", "sausu", "tyru", "vyru", "zuvys",
              "upynu", "sodus", "turtus"]
SOURCES = ["alpha.lt", "beta.lt", "gamma.lt"]

#: Size of the pipeline corpus (acceptance criterion 10).
CORPUS_ARTICLES = 1000
#: Prompt-prefix lengths, in tokens, for the decode workload.
PREFIX_TOKENS = (4, 24)
#: Word counts of the short and the long evaluation pairs.
SHORT_WORDS = (6, 40)
LONG_WORDS = (60, 400)
#: Evaluation pairs per pass; half short, half long, interleaved.
EVAL_PAIRS = 200


def pipeline_corpus(count: int, rng: np.random.Generator) -> list[dict]:
    """Synthetic articles; summary and body alphabets share only the space.

    Reproduces the acceptance suite's criterion-10 corpus record for
    record for the same generator state; ``test_inputs.py`` checks it.
    """
    records = []
    for i in range(count):
        if i % 20 == 19:
            # one reject every 20 articles, as in the acceptance corpus
            records.append({"source": "bad.lt", "summary": "trumpas", "body": "o" * 300})
            continue
        summary = " ".join(rng.choice(SUMMARY_WORDS, size=int(rng.integers(6, 12))))
        body = " ".join(rng.choice(BODY_WORDS, size=int(rng.integers(60, 90))))
        records.append(
            {
                "source": SOURCES[i % 3],
                "published_at": f"20{10 + i % 10:02d}-0{1 + i % 9}-1{i % 9}",
                "summary": summary,
                "body": body,
            }
        )
    return records


def write_jsonl(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def corpus_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0])


def prefix_lengths(count: int, seed: int) -> list[int]:
    """Prompt prefix length, in tokens, for each held-out summary."""
    rng = np.random.default_rng([seed, 1])
    lo, hi = PREFIX_TOKENS
    return [int(n) for n in rng.integers(lo, hi + 1, size=count)]


#: Candidate slice ``MIX_STEP * k mod n`` is paired with reference slice
#: ``k``; coprime with the pairs per kind, so every slice is used once.
MIX_STEP = 37


def stratified_pairs(rng: np.random.Generator, bounds: tuple[int, int],
                     count: int) -> list[tuple[int, int]]:
    """(candidate, reference) word counts, in random order.

    ``bounds`` is cut into ``count`` equal slices, and each side takes one
    length from every slice. The slices are paired by a fixed mixing that
    holds short/long, long/short and long/long pairs, so the total of
    |candidate|·|reference|, which sets the ROUGE-L work of a pass, is
    nearly the same for every seed.
    """
    lo, hi = bounds
    width = (hi - lo + 1) / count

    def pick(k: int) -> int:
        return int(lo + width * (k + rng.random()))

    pairs = [(pick(MIX_STEP * k % count), pick(k)) for k in range(count)]
    return [pairs[i] for i in rng.permutation(count)]


def evaluation_pairs(seed: int, count: int = EVAL_PAIRS) -> list[tuple[str, str]]:
    """Candidate/reference texts drawn from the corpus word lists.

    Even indices are short pairs, odd indices long ones, so any prefix of
    the list holds both kinds.
    """
    rng = np.random.default_rng([seed, 2])
    words = SUMMARY_WORDS + BODY_WORDS
    half = (count + 1) // 2
    assert math.gcd(MIX_STEP, half) == 1
    lengths = {bounds: stratified_pairs(rng, bounds, half) for bounds in (SHORT_WORDS, LONG_WORDS)}
    pairs = []
    for i in range(count):
        cand_len, ref_len = lengths[SHORT_WORDS if i % 2 == 0 else LONG_WORDS][i // 2]
        pairs.append((" ".join(rng.choice(words, size=cand_len)),
                      " ".join(rng.choice(words, size=ref_len))))
    return pairs
