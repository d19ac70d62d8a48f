"""Summary-quality metrics and their corpus-level aggregation.

ROUGE-n counts clipped common n-grams between candidate and reference
(each n-gram matches at most min(multiplicity) times); ROUGE-L uses the
longest common subsequence at the word level, found by the bit-parallel
LCS-length algorithm (Allison & Dix 1986; Hyyrö 2004) in
O(|a|·⌈|b|/word⌉) big-integer operations. Tokens must be hashable. Both
report precision, recall, and balanced F1. Pairs are conventionally
tokenized with lowercasing and an optional stemmer plugin before scoring.

The Lithuanian light stemmer makes one set lookup per suffix length,
longest first. Its test oracle is the old one ``endswith`` test per
suffix; a test also requires the per-length sets to split the suffix
list exactly, with no suffix longer than the five lengths tested.

Aggregates are the arithmetic mean and sample standard deviation
(divisor n-1, zero for a single record), rendered as "0.298 (0.154)".
Only :func:`aggregate` uses numpy, and it imports numpy on its first call:
importing this module and scoring pairs loads none.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from santrauka._checks import count
from santrauka._words import ngrams, word_tokenize

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_STOP_WORDS",
    "EvalRecord",
    "EvalSummary",
    "MeanStd",
    "RougeScore",
    "aggregate",
    "evaluate_pair",
    "format_mean_std",
    "is_repetitive",
    "length_fraction",
    "lithuanian_light_stem",
    "register_stemmer",
    "render_table",
    "rouge_l",
    "rouge_n",
    "stem_normalize",
]

#: Words exempt from the repetition rule.
DEFAULT_STOP_WORDS = frozenset({"ir"})

_MAX_REPEATS = 7


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, matched: float, candidate_total: int, reference_total: int):
        precision = matched / candidate_total if candidate_total else 0.0
        recall = matched / reference_total if reference_total else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall > 0
            else 0.0
        )
        return cls(precision, recall, f1)

    def as_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1}


def rouge_n(candidate: Sequence, reference: Sequence, n: int) -> RougeScore:
    """n-gram overlap score between candidate and reference token lists."""
    n = count("n", n, 1)
    if n == 1:
        # unigrams counted as tokens, not 1-tuples: the same match counts
        candidate_grams, reference_grams = Counter(candidate), Counter(reference)
    else:
        candidate_grams, reference_grams = ngrams(candidate, n), ngrams(reference, n)
    matched = sum(
        min(count, reference_grams[gram])
        for gram, count in candidate_grams.items()
        if gram in reference_grams
    )
    return RougeScore.from_counts(
        matched,
        sum(candidate_grams.values()),
        sum(reference_grams.values()),
    )


def _lcs_len(a: Sequence, b: Sequence) -> int:
    # bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004): bit j of
    # ``v`` is 0 where row i of the DP table steps up at column j
    full = (1 << len(b)) - 1
    masks: dict = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: Sequence, reference: Sequence) -> RougeScore:
    """Longest-common-subsequence score over word tokens.

    The subsequence need not be contiguous; recall divides its length by
    the reference length, precision by the candidate length. Its length
    comes from the bit-parallel LCS algorithm: one bitmask per distinct
    reference token, then O(|candidate|·⌈|reference|/word⌉) big-integer
    operations, where a word is the integer digit width. Tokens must be
    hashable.
    """
    lcs = _lcs_len(candidate, reference)
    return RougeScore.from_counts(lcs, len(candidate), len(reference))


def length_fraction(generated: str, reference: str) -> float:
    """Character count of the generated text over the reference's."""
    if not reference:
        raise ValueError("length_fraction undefined for an empty reference")
    return len(generated) / len(reference)


def is_repetitive(
    text: str,
    stop_words: frozenset[str] = DEFAULT_STOP_WORDS,
    max_count: int = _MAX_REPEATS,
) -> bool:
    """True when any non-stop word occurs more than ``max_count`` times."""
    return _repetitive(word_tokenize(text, lowercase=True), stop_words, max_count)


def _repetitive(words: Sequence[str], stop_words: frozenset[str], max_count: int) -> bool:
    """:func:`is_repetitive` on lowercased, unstemmed word tokens."""
    return any(
        count > max_count and word not in stop_words
        for word, count in Counter(words).items()
    )


def identity_stem(word: str) -> str:
    return word


_LT_SUFFIXES = frozenset(
    [
        "iuose", "iomis",
        "uose", "omis", "ėmis", "iais", "iams", "iems", "iose", "ioms",
        "ais", "ams", "oms", "ose", "ėms", "ėse", "ėje", "oje", "yje",
        "ius", "iai", "iui",
        "as", "os", "es", "ės", "is", "ys", "us", "ai", "ei", "ui",
        "io", "iu", "ių", "ti",
        "a", "ą", "e", "ę", "ė", "i", "į", "y", "o", "u", "ų", "ū",
    ]
)

# the suffixes of each length 1-5; a word's ending of a given length is one
# string, so each set matches at most one suffix
_LT_5, _LT_4, _LT_3, _LT_2, _LT_1 = (
    frozenset(s for s in _LT_SUFFIXES if len(s) == size) for size in (5, 4, 3, 2, 1)
)


def lithuanian_light_stem(word: str) -> str:
    """Strip one common Lithuanian inflectional ending, longest first.

    Expects lowercased input. Nothing is stripped when the remaining stem
    would fall below three characters, so short words and the stop word
    "ir" pass through unchanged.
    """
    # one test per suffix length; n >= length + 3 keeps a three-character stem
    n = len(word)
    if n >= 8 and word[-5:] in _LT_5:
        return word[:-5]
    if n >= 7 and word[-4:] in _LT_4:
        return word[:-4]
    if n >= 6 and word[-3:] in _LT_3:
        return word[:-3]
    if n >= 5 and word[-2:] in _LT_2:
        return word[:-2]
    if n >= 4 and word[-1] in _LT_1:
        return word[:-1]
    return word


_STEMMERS: dict[str, Callable[[str], str]] = {
    "identity": identity_stem,
    "lithuanian-light": lithuanian_light_stem,
}


def register_stemmer(name: str, fn: Callable[[str], str]) -> None:
    """Add a stemmer plugin under ``name`` for use by stem_normalize."""
    _STEMMERS[name] = fn


def stem_normalize(tokens: Sequence[str], stemmer="identity") -> list[str]:
    """Apply a registered stemmer (by name) or a callable to every token."""
    if callable(stemmer):
        fn = stemmer
    else:
        try:
            fn = _STEMMERS[stemmer]
        except KeyError:
            raise ValueError(
                f"unknown stemmer {stemmer!r}; registered: {sorted(_STEMMERS)}"
            ) from None
    return [fn(token) for token in tokens]


@dataclass(frozen=True)
class EvalRecord:
    """Per-pair metrics for one candidate/reference summary."""

    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    length_fraction: float
    repetitive: bool

    def as_dict(self) -> dict:
        return {
            "rouge1": self.rouge1.as_dict(),
            "rouge2": self.rouge2.as_dict(),
            "rougeL": self.rougeL.as_dict(),
            "length_fraction": self.length_fraction,
            "repetitive": self.repetitive,
        }


def evaluate_pair(
    candidate: str,
    reference: str,
    stemmer="identity",
    stop_words: frozenset[str] = DEFAULT_STOP_WORDS,
) -> EvalRecord:
    """Score one generated summary against its reference.

    ROUGE runs on lowercased, stemmed word tokens; the length fraction on
    raw characters; the repetition flag on the candidate's unstemmed words.
    """
    candidate_words = word_tokenize(candidate, lowercase=True)
    candidate_tokens = stem_normalize(candidate_words, stemmer)
    reference_tokens = stem_normalize(word_tokenize(reference, lowercase=True), stemmer)
    return EvalRecord(
        rouge1=rouge_n(candidate_tokens, reference_tokens, 1),
        rouge2=rouge_n(candidate_tokens, reference_tokens, 2),
        rougeL=rouge_l(candidate_tokens, reference_tokens),
        length_fraction=length_fraction(candidate, reference),
        repetitive=_repetitive(candidate_words, stop_words, _MAX_REPEATS),
    )


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float


def format_mean_std(value: MeanStd, decimals: int = 3) -> str:
    return f"{value.mean:.{decimals}f} ({value.std:.{decimals}f})"


def _mean_std(values: np.ndarray) -> MeanStd:
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return MeanStd(mean, std)


@dataclass(frozen=True)
class EvalSummary:
    """Corpus-level mean/std of the per-pair metrics (F1 for ROUGE)."""

    rouge1: MeanStd
    rouge2: MeanStd
    rougeL: MeanStd
    length_fraction: MeanStd
    count: int
    repetitive_count: int

    def as_dict(self) -> dict:
        def cell(value: MeanStd, decimals: int) -> dict:
            return {
                "mean": value.mean,
                "std": value.std,
                "formatted": format_mean_std(value, decimals),
            }

        return {
            "count": self.count,
            "repetitive_count": self.repetitive_count,
            "rouge1_f": cell(self.rouge1, 3),
            "rouge2_f": cell(self.rouge2, 3),
            "rougeL_f": cell(self.rougeL, 3),
            "length_fraction": cell(self.length_fraction, 2),
        }


def aggregate(records: Iterable[EvalRecord]) -> EvalSummary:
    """Reduce per-pair records to corpus means and standard deviations."""
    import numpy as np  # here, so a process that only scores pairs never loads numpy

    records = list(records)
    if not records:
        raise ValueError("cannot aggregate zero records")
    return EvalSummary(
        rouge1=_mean_std(np.array([r.rouge1.f1 for r in records])),
        rouge2=_mean_std(np.array([r.rouge2.f1 for r in records])),
        rougeL=_mean_std(np.array([r.rougeL.f1 for r in records])),
        length_fraction=_mean_std(np.array([r.length_fraction for r in records])),
        count=len(records),
        repetitive_count=sum(r.repetitive for r in records),
    )


def render_table(rows: dict[str, EvalSummary]) -> str:
    """Aligned text table: one row per decoding method, mean (std) cells."""
    header = ("Decoding method", "ROUGE-1", "ROUGE-2", "ROUGE-L", "Length fraction")
    body = [
        (
            label,
            format_mean_std(summary.rouge1, 3),
            format_mean_std(summary.rouge2, 3),
            format_mean_std(summary.rougeL, 3),
            format_mean_std(summary.length_fraction, 2),
        )
        for label, summary in rows.items()
    ]
    table = [header, *body]
    widths = [max(len(row[col]) for row in table) for col in range(len(header))]
    lines = []
    for row in table:
        cells = [f"{cell:<{widths[i]}}" for i, cell in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
