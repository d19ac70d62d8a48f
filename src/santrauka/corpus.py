"""News-article corpus handling: ingestion, filtering, statistics, splits.

Articles arrive as UTF-8 line-delimited JSON, one object per line with keys
``source``, ``summary``, ``body`` and optional ``url``, ``published_at``
(ISO-8601 date). Summary and body text is whitespace-normalized on ingest,
and all length thresholds below are counted in Unicode code points of the
normalized text, so accented characters count as one character.

The near-copy filter rejects a pair when the summary shares a contiguous,
character-level, case-sensitive run of at least ``max_overlap_ratio`` of
its length with the body. It only asks whether such a run exists, so it
tests a threshold rather than measuring the run: with k the least run
length that reaches the ratio, every shared run of length k contains a
summary window of length m = ceil(k/2) starting at a multiple of
t = k - m + 1 (the pigeonhole argument of q-gram filtering; Ukkonen,
TCS 1992). Those windows are looked up in the body with Python's own
substring search, and only on a hit are the t length-k windows covering
it looked up too. That is about len(summary) / t searches when nothing
is copied, and never more than len(summary) + len(summary) / t.

``longest_common_substring_len`` measures the exact longest run: it walks
the start positions of the shorter text once and grows the best length
while the next longer piece occurs in the longer text. It backs
``overlap_ratio`` and serves as the filter's test oracle; on periodic
text such as ``"aaab" * n`` against ``"a" * m`` it can take up to
O(len(a) * len(b) * L) character comparisons for a shared length L.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from santrauka._checks import count, real

__all__ = [
    "Article",
    "FilterConfig",
    "FilterReport",
    "IngestError",
    "SourceStats",
    "REJECT_REASONS",
    "corpus_stats",
    "filter_article",
    "format_stats_table",
    "ingest",
    "longest_common_substring_len",
    "normalize_whitespace",
    "overlap_ratio",
    "read_jsonl",
    "split_validation",
    "to_json_line",
]

ARTICLE_KEYS = {"source", "url", "published_at", "summary", "body"}
REQUIRED_KEYS = {"source", "summary", "body"}

REASON_SUMMARY_TOO_SHORT = "summary_too_short"
REASON_BODY_TOO_SHORT = "body_too_short"
REASON_BODY_TO_SUMMARY_RATIO = "body_to_summary_ratio"
REASON_OVERLAP_TOO_HIGH = "overlap_too_high"

#: Rejection reasons in the order the rules are checked.
REJECT_REASONS = (
    REASON_SUMMARY_TOO_SHORT,
    REASON_BODY_TOO_SHORT,
    REASON_BODY_TO_SUMMARY_RATIO,
    REASON_OVERLAP_TOO_HIGH,
)


def normalize_whitespace(text: str) -> str:
    """Collapse whitespace runs to single spaces and trim the ends.

    Whitespace is what ``str.isspace`` accepts, the same set as ``\\s``
    in a ``str`` regular expression.
    """
    return " ".join(text.split())


@dataclass
class Article:
    """One news document: a summary/body pair plus provenance fields."""

    source: str
    summary: str
    body: str
    url: str | None = None
    published_at: date | None = None


@dataclass
class IngestError:
    """A malformed input line, kept for diagnostics."""

    line_no: int
    message: str


@lru_cache(maxsize=1024)
def _parse_date(text: str) -> date:
    """The date of a ``YYYY-MM-DD`` string of ASCII digits; nothing else.

    The format is checked first, because from Python 3.11 on
    ``date.fromisoformat`` also takes ``20200101`` and week dates such as
    ``2020-W01-1``, which 3.10 refuses. On a string that passes the check
    every version from 3.10 on reads the same three numbers and builds the
    date as ``date(year, month, day)`` does, with the same range errors.

    Cached: a corpus has one date string per day it covers, on many
    lines each. A string that fails is not cached, so it fails each time.
    """
    digits = text[:4] + text[5:7] + text[8:]
    if not (len(text) == 10 and text[4] == text[7] == "-"
            and digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad published_at: expected YYYY-MM-DD, got {text!r}")
    try:
        return date.fromisoformat(text)
    except ValueError as err:
        raise ValueError(f"bad published_at: {err}") from None


def _article_from_record(record: dict) -> Article:
    keys = record.keys()
    if not keys <= ARTICLE_KEYS:
        raise ValueError(f"unknown keys: {sorted(keys - ARTICLE_KEYS)}")
    if not REQUIRED_KEYS <= keys:
        raise ValueError(f"missing keys: {sorted(REQUIRED_KEYS - keys)}")
    for key in ("source", "summary", "body"):
        if not isinstance(record[key], str):
            raise ValueError(f"key {key!r} must be a string")
    summary = normalize_whitespace(record["summary"])
    body = normalize_whitespace(record["body"])
    if not summary:
        raise ValueError("empty summary")
    if not body:
        raise ValueError("empty body")
    url = record.get("url")
    if url is not None and not isinstance(url, str):
        raise ValueError("key 'url' must be a string")
    published_raw = record.get("published_at")
    published: date | None = None
    if published_raw is not None:
        if not isinstance(published_raw, str):
            raise ValueError("key 'published_at' must be an ISO date string")
        published = _parse_date(published_raw)
    return Article(
        source=record["source"],
        summary=summary,
        body=body,
        url=url,
        published_at=published,
    )


def read_jsonl(
    path, required: Sequence[str] = ()
) -> Iterator[tuple[int, dict | None, str | None]]:
    """Yield ``(line_no, record, error)`` for each non-blank line of a file.

    A line that is not UTF-8, that the JSON parser refuses (nesting past
    the recursion limit included), that is not an object, that lacks
    ``required`` keys, or whose string value holds a lone surrogate (an
    escaped ``\\ud800``, which no UTF-8 output can hold) gives a None record
    and an error; reading goes on. An unreadable file raises the underlying
    OSError.
    """
    # the decoder json.loads uses, without its per-call argument checks and
    # whitespace scans: a stripped line starts on its value, and a value
    # that ends before the line does is followed by data. A line it refuses
    # goes through json.loads for the message, since only json.loads names
    # a leading byte-order mark and the position of extra data
    decode = json.JSONDecoder().raw_decode
    # undecodable bytes become lone surrogates, which never re-encode, so
    # a bad byte fails its own line and leaves the newlines where they were
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
                record, end = decode(line)
                if end != len(line):
                    raise ValueError("extra data")
            except UnicodeEncodeError:
                yield line_no, None, "invalid UTF-8"
                continue
            except (ValueError, RecursionError):
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as err:
                    # besides syntax errors: nesting past the recursion
                    # limit and integers past the int-string digit limit
                    yield line_no, None, f"invalid JSON: {err}"
                    continue
            if not isinstance(record, dict):
                yield line_no, None, "line is not a JSON object"
                continue
            missing = [key for key in required if key not in record]
            if missing:
                yield line_no, None, f"missing keys: {missing}"
                continue
            # the line holds no raw surrogate, as it encoded, so a value
            # holds one only from an escape, \ud800 to \udfff; a search for
            # one character is far cheaper than for three, so it goes first
            surrogate = ("\\" in line and ("\\ud" in line or "\\uD" in line)
                         and _lone_surrogate(record))
            if surrogate:
                yield line_no, None, surrogate
                continue
            yield line_no, record, None


def _lone_surrogate(record: dict) -> str | None:
    """The error of the first string value of ``record`` that holds a lone
    surrogate, such as a JSON ``"\\ud800"`` decodes to: no UTF-8 output can
    hold it. An ASCII string holds none, and ``str.isascii`` is O(1)."""
    for key, value in record.items():
        if isinstance(value, str) and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as err:
                return f"key {key!r} holds lone surrogate {value[err.start]!r}"
    return None


def ingest(path, errors: list[IngestError] | None = None) -> Iterator[Article]:
    """Yield articles from a line-delimited JSON file, in file order.

    Malformed lines do not stop the stream: each one is skipped and, when
    ``errors`` is a list, recorded there with its line number. Blank lines
    are ignored. An unreadable file raises the underlying OSError.
    """
    for line_no, record, message in read_jsonl(path):
        if record is not None:
            try:
                article = _article_from_record(record)
            except ValueError as err:
                message = str(err)
            else:
                yield article
                continue
        if errors is not None:
            errors.append(IngestError(line_no, message))


def to_json_line(article: Article) -> str:
    """Serialize an article back to its one-line JSON form."""
    record: dict[str, str] = {"source": article.source}
    if article.url is not None:
        record["url"] = article.url
    if article.published_at is not None:
        record["published_at"] = article.published_at.isoformat()
    record["summary"] = article.summary
    record["body"] = article.body
    return json.dumps(record, ensure_ascii=False)


def longest_common_substring_len(a: str, b: str) -> int:
    """Length of the longest contiguous character run shared by ``a`` and ``b``."""
    if len(a) > len(b):
        a, b = b, a
    # every prefix of a shared run is shared too, so at each start in the
    # shorter string it is enough to try one character more than the best;
    # past the end of ``a`` a slice stops growing, so the bound is needed
    best = 0
    for i in range(len(a)):
        while i + best < len(a) and a[i : i + best + 1] in b:
            best += 1
    return best


def overlap_ratio(summary: str, body: str) -> float:
    """Longest common substring length divided by the summary length."""
    if not summary:
        raise ValueError("overlap_ratio undefined for an empty summary")
    return longest_common_substring_len(summary, body) / len(summary)


def _least_run(ratio: float, n: int) -> int:
    """The least k in [0, n] with ``k / n >= ratio``, for ratio in [0, 1].

    The float division is the one ``overlap_ratio`` makes, so a run length
    reaches k exactly when its ratio reaches ``ratio``; ``ceil(ratio * n)``
    can be one too many (0.28 * 25 is 7.000000000000001, yet 7 / 25 >= 0.28).
    """
    k = min(n, int(ratio * n) + 1)
    while k > 0 and (k - 1) / n >= ratio:
        k -= 1
    return k


def _shares_run(summary: str, body: str, k: int) -> bool:
    """Whether ``summary`` and ``body`` share a run of at least k characters."""
    if k == 0:
        return True
    m = (k + 1) // 2
    t = k - m + 1
    # a length-k run starting at p holds the window at the first multiple
    # of t from p on; the length-k runs holding window w start in
    # [w + m - k, w], and those ranges are disjoint from window to window
    for w in range(0, len(summary) - m + 1, t):
        if summary[w : w + m] in body:
            for start in range(max(0, w + m - k), min(w, len(summary) - k) + 1):
                if summary[start : start + k] in body:
                    return True
    return False


@dataclass
class FilterConfig:
    """Thresholds for the keep/reject rules, checked in a fixed order.

    Length thresholds are exclusive: a summary is kept only when strictly
    longer than ``min_summary_chars``, same for the body. The overlap
    threshold is exclusive on the keep side: pairs at or above
    ``max_overlap_ratio`` are rejected.
    """

    min_summary_chars: int = 10
    min_body_chars: int = 100
    min_body_to_summary_ratio: float = 2.0
    max_overlap_ratio: float = 0.2

    def __post_init__(self):
        for name in ("min_summary_chars", "min_body_chars", "min_body_to_summary_ratio"):
            if not real(name, getattr(self, name)) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0 <= real("max_overlap_ratio", self.max_overlap_ratio) <= 1:
            raise ValueError("max_overlap_ratio must lie in [0, 1]")


def filter_article(article: Article, config: FilterConfig) -> str | None:
    """Apply the keep/reject rules; return None to keep, else the reason.

    Rules run in REJECT_REASONS order and the first failure wins, so
    reason counts are deterministic.
    """
    s_len = len(article.summary)
    b_len = len(article.body)
    if s_len <= config.min_summary_chars:
        return REASON_SUMMARY_TOO_SHORT
    if b_len <= config.min_body_chars:
        return REASON_BODY_TOO_SHORT
    if b_len < config.min_body_to_summary_ratio * s_len:
        return REASON_BODY_TO_SUMMARY_RATIO
    if _shares_run(article.summary, article.body, _least_run(config.max_overlap_ratio, s_len)):
        return REASON_OVERLAP_TOO_HIGH
    return None


@dataclass
class SourceStats:
    """Per-source aggregates over kept articles."""

    count: int = 0
    earliest: date | None = None
    latest: date | None = None


@dataclass
class FilterReport:
    """Outcome counts of a filtering pass plus per-source statistics."""

    kept: int = 0
    rejected_by_reason: dict[str, int] = field(
        default_factory=lambda: {reason: 0 for reason in REJECT_REASONS}
    )
    per_source: dict[str, SourceStats] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.kept + sum(self.rejected_by_reason.values())

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "kept": self.kept,
            "rejected_by_reason": dict(self.rejected_by_reason),
            "per_source": {
                source: {
                    "count": stats.count,
                    "earliest": stats.earliest.isoformat() if stats.earliest else None,
                    "latest": stats.latest.isoformat() if stats.latest else None,
                }
                for source, stats in sorted(self.per_source.items())
            },
        }


def corpus_stats(pairs: Iterable[tuple[Article, str | None]]) -> FilterReport:
    """Reduce (article, decision) pairs into a FilterReport.

    The decision is the value returned by :func:`filter_article`. Counters
    are commutative, so the pair stream may arrive in any order.
    """
    report = FilterReport()
    for article, decision in pairs:
        if decision is not None:
            report.rejected_by_reason[decision] = (
                report.rejected_by_reason.get(decision, 0) + 1
            )
            continue
        report.kept += 1
        stats = report.per_source.setdefault(article.source, SourceStats())
        stats.count += 1
        if article.published_at is not None:
            if stats.earliest is None or article.published_at < stats.earliest:
                stats.earliest = article.published_at
            if stats.latest is None or article.published_at > stats.latest:
                stats.latest = article.published_at
    return report


def format_stats_table(report: FilterReport) -> str:
    """Render per-source counts and date ranges as an aligned text table."""
    rows = [("Website", "Article count", "From", "To")]
    for source, stats in sorted(report.per_source.items()):
        rows.append(
            (
                source,
                str(stats.count),
                stats.earliest.isoformat() if stats.earliest else "-",
                stats.latest.isoformat() if stats.latest else "-",
            )
        )
    rows.append(("TOTAL", str(report.kept), "", ""))
    widths = [max(len(row[col]) for row in rows) for col in range(4)]
    lines = []
    for name, count, lo, hi in rows:
        lines.append(
            f"{name:<{widths[0]}}  {count:>{widths[1]}}  {lo:<{widths[2]}}  {hi:<{widths[3]}}".rstrip()
        )
    rejected = Counter(report.rejected_by_reason)
    if sum(rejected.values()):
        lines.append("")
        lines.append("Rejected:")
        for reason in REJECT_REASONS:
            if rejected.get(reason):
                lines.append(f"  {reason}: {rejected[reason]}")
    return "\n".join(lines)


def split_validation(
    articles, n_validation: int, seed: int
) -> tuple[list[Article], list[Article]]:
    """Set aside ``n_validation`` random articles, deterministically.

    The split is a function of the seed and the input order. The training
    set keeps the input order; the validation set follows the sampling
    order. Both are disjoint and together cover the input exactly.
    """
    articles = list(articles)
    n_validation = count("n_validation", n_validation, 0)
    if n_validation > len(articles):
        raise ValueError(
            f"n_validation={n_validation} exceeds corpus size {len(articles)}"
        )
    rng = np.random.default_rng(seed)
    chosen = rng.permutation(len(articles))[:n_validation]
    chosen_set = set(int(i) for i in chosen)
    validation = [articles[int(i)] for i in chosen]
    train = [a for i, a in enumerate(articles) if i not in chosen_set]
    return train, validation
