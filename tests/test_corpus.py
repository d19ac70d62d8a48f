import io
import json
import re
import string
import sys
from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from santrauka.corpus import (
    Article,
    FilterConfig,
    IngestError,
    REJECT_REASONS,
    corpus_stats,
    filter_article,
    format_stats_table,
    ingest,
    longest_common_substring_len,
    _article_from_record,
    normalize_whitespace,
    overlap_ratio,
    read_jsonl,
    split_validation,
    to_json_line,
)


def lcs_substring_dp(a: str, b: str) -> int:
    """Quadratic-table oracle: longest run of identical characters."""
    best = 0
    prev = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best:
                    best = cur[j]
        prev = cur
    return best


def make_article(summary, body, source="src", published=None):
    return Article(source=source, summary=summary, body=body, published_at=published)


class TestLongestCommonSubstring:
    def test_identical_strings(self):
        assert longest_common_substring_len("abcdef", "abcdef") == 6

    def test_disjoint_alphabets(self):
        assert longest_common_substring_len("abc", "xyz") == 0

    def test_partial_overlap(self):
        # oracle: the dp table finds "cdef"
        assert lcs_substring_dp("abcdef", "zzcdefzz") == 4
        assert longest_common_substring_len("abcdef", "zzcdefzz") == 4

    def test_empty_inputs(self):
        assert longest_common_substring_len("", "abc") == 0
        assert longest_common_substring_len("abc", "") == 0
        assert longest_common_substring_len("", "") == 0

    def test_matches_dp_oracle_on_random_pairs(self):
        rng = np.random.default_rng(42)
        alphabet = "abcd"
        for _ in range(400):
            a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 30)))
            b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 30)))
            assert longest_common_substring_len(a, b) == lcs_substring_dp(a, b)

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = "".join(rng.choice(list("abc"), size=rng.integers(1, 20)))
            b = "".join(rng.choice(list("abc"), size=rng.integers(1, 20)))
            forward = longest_common_substring_len(a, b)
            assert forward == longest_common_substring_len(b, a)
            assert forward <= min(len(a), len(b))

    def test_full_length_iff_substring(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = "".join(rng.choice(list("ab"), size=rng.integers(1, 8)))
            b = "".join(rng.choice(list("ab"), size=rng.integers(1, 16)))
            assert (longest_common_substring_len(a, b) == len(a)) == (a in b)

    def test_unicode_counts_code_points(self):
        assert longest_common_substring_len("ąčęėį", "xxąčęėįxx") == 5

    def test_run_at_the_end_of_the_shorter_string(self):
        # a slice cut short at the end of the shorter string must not count
        assert longest_common_substring_len("xab", "abyyy") == 2
        assert longest_common_substring_len("aab", "baabaa") == 3

    @settings(max_examples=400, deadline=None)
    @given(
        a=st.text(st.sampled_from("abą"), max_size=30)
        | st.text(st.sampled_from("abcdšžė"), max_size=60),
        b=st.text(st.sampled_from("abą"), max_size=30)
        | st.text(st.sampled_from("abcdšžė"), max_size=60),
    )
    def test_matches_dp_oracle_property(self, a, b):
        assert longest_common_substring_len(a, b) == lcs_substring_dp(a, b)


class TestOverlapRatio:
    def test_derived_fixture(self):
        assert overlap_ratio("abcdef", "zzcdefzz") == pytest.approx(4 / 6)

    def test_full_overlap(self):
        assert overlap_ratio("abcdef", "abcdef") == 1.0

    def test_single_char_overlap(self):
        # oracle check: no two-character substring of the summary occurs in the body
        assert lcs_substring_dp("abcdef", "zbzdzfz") == 1
        assert overlap_ratio("abcdef", "zbzdzfz") == pytest.approx(1 / 6)

    def test_empty_summary_is_an_error(self):
        with pytest.raises(ValueError):
            overlap_ratio("", "body")

    def test_always_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = "".join(rng.choice(list("abc"), size=rng.integers(1, 12)))
            b = "".join(rng.choice(list("abc"), size=rng.integers(0, 40)))
            assert 0.0 <= overlap_ratio(s, b) <= 1.0


def _distinct_body(length: int) -> str:
    # letters disjoint from the summaries used in these tests
    return ("nopqrstuvw" * (length // 10 + 1))[:length]


class TestFilterArticle:
    CONFIG = FilterConfig()

    def test_summary_at_threshold_rejected(self):
        article = make_article("a" * 10, _distinct_body(300))
        assert filter_article(article, self.CONFIG) == "summary_too_short"

    def test_summary_above_threshold_passes_rule(self):
        article = make_article("abcdefghijk", _distinct_body(300))
        assert filter_article(article, self.CONFIG) is None

    def test_body_at_threshold_rejected(self):
        article = make_article("abcdefghijk", _distinct_body(100))
        assert filter_article(article, self.CONFIG) == "body_too_short"

    def test_ratio_rule(self):
        summary = "abcdefghij" * 10  # 100 chars
        article = make_article(summary, _distinct_body(150))
        assert filter_article(article, self.CONFIG) == "body_to_summary_ratio"

    def test_body_exactly_twice_summary_is_kept(self):
        summary = "abcdefghij" * 10
        article = make_article(summary, _distinct_body(200))
        assert filter_article(article, self.CONFIG) is None

    def test_overlap_rule(self):
        summary = "abcdefghij" * 10
        body = _distinct_body(150) + summary[:30] + _distinct_body(150)
        article = make_article(summary, body)
        assert overlap_ratio(summary, body) >= 0.2
        assert filter_article(article, self.CONFIG) == "overlap_too_high"

    def test_overlap_exactly_at_threshold_rejected(self):
        summary = "abcdefghijklmno"  # 15 chars, 3 shared -> exactly 0.2
        body = _distinct_body(100) + "abc" + _distinct_body(100)
        article = make_article(summary, body)
        assert overlap_ratio(summary, body) == pytest.approx(0.2)
        assert filter_article(article, self.CONFIG) == "overlap_too_high"

    def test_keep_with_margin(self):
        article = make_article("abcdefghij" * 10, _distinct_body(300))
        assert filter_article(article, self.CONFIG) is None

    def test_first_failing_rule_wins(self):
        # fails both the summary and body rules; summary is checked first
        article = make_article("ab", "xy")
        assert filter_article(article, self.CONFIG) == "summary_too_short"

    def test_pure_function(self):
        article = make_article("abcdefghijk", _distinct_body(250))
        first = filter_article(article, self.CONFIG)
        assert filter_article(article, self.CONFIG) == first


def _overlap_rule(summary: str, body: str, ratio: float) -> bool:
    """The overlap rule measured exactly: the oracle of the threshold test."""
    return longest_common_substring_len(summary, body) / len(summary) >= ratio


def _overlap_decision(summary: str, body: str, ratio: float) -> bool:
    """Whether ``filter_article`` rejects the pair for overlap; the other
    rules pass any nonempty summary and body, so the overlap rule decides."""
    config = FilterConfig(min_summary_chars=0, min_body_chars=0,
                          min_body_to_summary_ratio=0.0, max_overlap_ratio=ratio)
    return filter_article(make_article(summary, body), config) == "overlap_too_high"


_RATIOS = st.floats(0, 1) | st.sampled_from([0.0, 0.1, 0.2, 0.25, 1 / 3, 0.28, 0.5, 0.9, 1.0])


def _texts(min_size):
    return (st.text(st.sampled_from("ab"), min_size=min_size, max_size=40)
            | st.text(st.sampled_from("abcd "), min_size=min_size, max_size=80)
            | st.text(st.sampled_from("ąčę "), min_size=min_size, max_size=60))


class TestOverlapThreshold:
    """``filter_article`` decides the overlap rule without measuring the
    longest shared run; its decision must equal the measured rule's."""

    @settings(max_examples=1500, deadline=None)
    @given(summary=_texts(1), body=_texts(1), ratio=_RATIOS)
    # r = 0: every pair reaches the rule, even with nothing shared
    @example(summary="abc", body="xyz", ratio=0.0)
    # r = 1: the rule becomes ``summary in body``
    @example(summary="abab", body="babab", ratio=1.0)
    @example(summary="abab", body="bab", ratio=1.0)
    @example(summary="abba", body="ab ba", ratio=1.0)
    # 20 characters at r = 0.2 need k = 4: a shared run of exactly 4, and of 3
    @example(summary="abcdefghijklmnopqrst", body="xxfghixx", ratio=0.2)
    @example(summary="abcdefghijklmnopqrst", body="xxfghxx", ratio=0.2)
    @example(summary="abcdefghijklmnopqrst", body="xxqrstxx", ratio=0.2)
    @example(summary="abcdefghijklmnopqrst", body="xxrstxx", ratio=0.2)
    # the float trap: ceil(0.28 * 25) is 8, but 7 / 25 >= 0.28, so k = 7
    @example(summary="abcdefghijklmnopqrstuvwxy", body="--defghij--", ratio=0.28)
    @example(summary="abcdefghijklmnopqrstuvwxy", body="--defghi--", ratio=0.28)
    def test_decision_equals_measured_rule(self, summary, body, ratio):
        assert _overlap_decision(summary, body, ratio) == _overlap_rule(summary, body, ratio)

    @pytest.mark.parametrize(
        "summary, body",
        [
            (("a" * 50 + "b") * 20, "a" * 20000),
            (
                "".join(np.random.default_rng(500).choice(list("ab"), size=500)),
                "".join(np.random.default_rng(20000).choice(list("ab"), size=20000)),
            ),
        ],
        ids=["periodic", "random-ab"],
    )
    @pytest.mark.parametrize("ratio", [0.05, 0.2, 0.5])
    def test_adversarial_text(self, summary, body, ratio):
        # periodic and two-letter text is the measured scan's worst case;
        # the decision must still equal the measured rule's
        assert _overlap_decision(summary, body, ratio) == _overlap_rule(summary, body, ratio)


class TestNormalizeWhitespace:
    #: Common and rare whitespace, each accepted by both re's \s and str.isspace
    SPACES = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000 "

    @given(st.text(alphabet=st.sampled_from("ab" + SPACES)))
    # pinned edges: empty, single spaces inside, a space at either end, a
    # doubled space, whitespace that is not U+0020 (no-break, line separator,
    # NEL) and a zero-width space, which is not whitespace
    @example("")
    @example("a b")
    @example(" a")
    @example("a ")
    @example("a  b")
    @example("a\xa0b")
    @example("a\u2028b")
    @example("a\x85b")
    @example("a\u200bb")
    def test_matches_regex_collapse(self, text):
        assert normalize_whitespace(text) == re.sub(r"\s+", " ", text).strip()

    def test_isspace_is_regex_whitespace(self):
        space = re.compile(r"\s")
        mismatched = [
            hex(cp) for cp in range(sys.maxunicode + 1)
            if bool(space.fullmatch(chr(cp))) != chr(cp).isspace()
        ]
        assert mismatched == []


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
_article_records = st.fixed_dictionaries(
    {},
    optional={
        key: st.text() | st.dates().map(date.isoformat) | _json_values
        for key in ("source", "summary", "body", "url", "published_at", "extra")
    },
)
#: One line of a fuzzed JSONL file: near-articles, arbitrary text, raw bytes,
#: deep nesting.
_fuzzed_lines = st.one_of(
    _article_records.map(lambda r: json.dumps(r).encode("utf-8")),
    st.text().map(lambda t: t.encode("utf-8")),
    st.binary(max_size=40),
    st.integers(1, 5000).map(lambda depth: b"[" * depth),
)


#: Text with escaped and unescaped backslashes, surrogates of both kinds, an
#: escaped pair and a Lithuanian letter.
_escapable_text = st.text(st.sampled_from("ab \\u\ud800\udbff\udc00\udfff\U0001F600\u0105D")
                          | st.characters(), max_size=8)
#: An article line as json.dumps writes it, every surrogate escaped (in
#: lower or upper case hex), sometimes with data after the object.
_escaped_lines = st.builds(
    lambda record, upper, tail: (json.dumps(record).replace("\\ud", "\\uD") if upper
                                 else json.dumps(record)) + tail,
    st.fixed_dictionaries({"source": _escapable_text, "summary": _escapable_text,
                           "body": _escapable_text},
                          optional={"url": _escapable_text,
                                    "published_at": st.sampled_from(
                                        ["2020-01-02", "2020-02-30", "2020-1-01"])}),
    st.booleans(),
    st.sampled_from(["", " ", " x", "{}", "]", "\x00", ' "a"']),
).map(lambda line: line.encode("utf-8"))


def read_jsonl_oracle(path, required=()):
    """``read_jsonl`` as a plain loop: json.loads on each stripped line and a
    UTF-8 encode of every string value."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                yield line_no, None, "invalid UTF-8"
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as err:
                yield line_no, None, f"invalid JSON: {err}"
                continue
            if not isinstance(record, dict):
                yield line_no, None, "line is not a JSON object"
                continue
            missing = [key for key in required if key not in record]
            if missing:
                yield line_no, None, f"missing keys: {missing}"
                continue
            error = None
            for key, value in record.items():
                if isinstance(value, str) and error is None:
                    try:
                        value.encode("utf-8")
                    except UnicodeEncodeError as err:
                        error = f"key {key!r} holds lone surrogate {value[err.start]!r}"
            yield line_no, None if error else record, error


def ingest_oracle(path):
    """``ingest`` over the plain read loop."""
    articles, errors = [], []
    for line_no, record, message in read_jsonl_oracle(path):
        if record is not None:
            try:
                articles.append(_article_from_record(record))
                continue
            except ValueError as err:
                message = str(err)
        errors.append(IngestError(line_no, message))
    return articles, errors


#: The message of a line that begins with a UTF-8 byte-order mark.
BOM_ERROR = ("invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
             "line 1 column 1 (char 0)")


class TestIngest(object):
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "articles.jsonl"
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        return path

    def test_direct_field_mapping(self, tmp_path):
        path = self.write_lines(
            tmp_path, ['{"source":"x","summary":"s","body":"b"}']
        )
        articles = list(ingest(path))
        assert articles == [Article(source="x", summary="s", body="b")]

    def test_missing_body_is_a_record_error(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                '{"source":"x","summary":"s"}',
                '{"source":"y","summary":"s2","body":"b2"}',
            ],
        )
        errors = []
        articles = list(ingest(path, errors))
        assert [a.source for a in articles] == ["y"]
        assert len(errors) == 1 and errors[0].line_no == 1

    def test_empty_file(self, tmp_path):
        path = self.write_lines(tmp_path, [])
        errors = []
        assert list(ingest(path, errors)) == []
        assert errors == []

    def test_invalid_json_and_unknown_keys(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                "not json",
                '{"source":"x","summary":"s","body":"b","extra":1}',
                '["array"]',
            ],
        )
        errors = []
        assert list(ingest(path, errors)) == []
        assert [e.line_no for e in errors] == [1, 2, 3]

    def test_date_parsing(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                '{"source":"x","summary":"s","body":"b","published_at":"2020-09-23"}',
                '{"source":"x","summary":"s","body":"b","published_at":"23/09/2020"}',
            ],
        )
        errors = []
        articles = list(ingest(path, errors))
        assert articles[0].published_at == date(2020, 9, 23)
        assert len(articles) == 1 and len(errors) == 1

    @pytest.mark.parametrize(
        "published_at, message",
        [
            # Python 3.11's date.fromisoformat takes these two; 3.10's refuses them
            ("20200101", "bad published_at: expected YYYY-MM-DD, got '20200101'"),
            ("2020-W01-1", "bad published_at: expected YYYY-MM-DD, got '2020-W01-1'"),
            ("2020-1-01", "bad published_at: expected YYYY-MM-DD, got '2020-1-01'"),
            ("2020-01-01T00:00", "bad published_at: expected YYYY-MM-DD, got '2020-01-01T00:00'"),
            ("\u0662020-01-01", "bad published_at: expected YYYY-MM-DD, got '\u0662020-01-01'"),
            ("2020-02-30", "bad published_at: day is out of range for month"),
            ("0000-01-01", "bad published_at: year 0 is out of range"),
            ("2020-13-01", "bad published_at: month must be in 1..12"),
        ],
    )
    def test_date_other_than_yyyy_mm_dd_is_a_line_error(self, tmp_path, published_at, message):
        record = {"source": "x", "summary": "s", "body": "b", "published_at": published_at}
        path = self.write_lines(
            tmp_path,
            [json.dumps(record, ensure_ascii=False), '{"source":"y","summary":"s","body":"b"}'],
        )
        errors = []
        assert [a.source for a in ingest(path, errors)] == ["y"]
        assert errors == [IngestError(1, message)]

    def test_key_errors_list_every_key(self, tmp_path):
        path = self.write_lines(tmp_path, [
            '{"source":"x","summary":"s","body":"b","zz":1,"aa":2,"url":"u","mm":3,"bb":4}',
            '{"source":"x"}',
            '{"zz":1,"body":"b"}',
        ])
        errors = []
        assert list(ingest(path, errors)) == []
        assert errors == [
            IngestError(1, "unknown keys: ['aa', 'bb', 'mm', 'zz']"),
            IngestError(2, "missing keys: ['body', 'summary']"),
            IngestError(3, "unknown keys: ['zz']"),
        ]

    def test_a_byte_order_mark_is_named(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"source":"x","summary":"s","body":"b"}\n'
                         b'{"source":"y","summary":"s","body":"b"}\n')
        errors = []
        assert [a.source for a in ingest(path, errors)] == ["y"]
        assert errors == [IngestError(1, BOM_ERROR)]

    @pytest.mark.parametrize("field, value, message", [
        ("body", " \t", "empty body"),
        ("url", 5, "key 'url' must be a string"),
        ("published_at", 20200101, "key 'published_at' must be an ISO date string"),
    ])
    def test_malformed_field_is_a_line_error(self, tmp_path, field, value, message):
        record = {"source": "x", "summary": "s", "body": "b", field: value}
        path = self.write_lines(
            tmp_path, [json.dumps(record), '{"source":"y","summary":"s","body":"b"}'])
        errors = []
        assert [a.source for a in ingest(path, errors)] == ["y"]
        assert errors == [IngestError(1, message)]

    def test_whitespace_normalization(self, tmp_path):
        path = self.write_lines(
            tmp_path, ['{"source":"x","summary":"  a \\t b\\n","body":" c  d "}']
        )
        article = next(ingest(path))
        assert article.summary == "a b"
        assert article.body == "c d"

    def test_whitespace_only_summary_is_an_error(self, tmp_path):
        path = self.write_lines(tmp_path, ['{"source":"x","summary":" ","body":"b"}'])
        errors = []
        assert list(ingest(path, errors)) == []
        assert len(errors) == 1

    def test_invalid_utf8_is_a_line_error(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_bytes(
            b'{"source":"x","summary":"s","body":"b"}\r\n'
            b'{"source":"\xff","summary":"s","body":"b"}\r\n'
            b"\r\n"
            b'{"source":"x\xc5\r'
            b'{"source":"x","zz":1}\n'
            b'{"source":"y","summary":"\xc5\xa1","body":"b"}\n'
        )
        errors = []
        articles = list(ingest(path, errors))
        assert [(a.source, a.summary) for a in articles] == [("x", "s"), ("y", "\u0161")]
        assert errors == [
            IngestError(2, "invalid UTF-8"),
            IngestError(4, "invalid UTF-8"),
            IngestError(5, "unknown keys: ['zz']"),
        ]

    def test_a_lone_surrogate_is_a_line_error(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text(
            '{"source":"x","summary":"s\\ud800","body":"b"}\n'
            '{"source":"x","summary":"\\ud83d\\ude00 \\u0161","body":"b"}\n'
            '{"source":"x","summary":"s","body":"b","url":"\\udfff"}\n',
            encoding="utf-8",
        )
        errors = []
        articles = list(ingest(path, errors))
        # an escaped pair is one astral character, not two surrogates
        assert [a.summary for a in articles] == ["\U0001f600 \u0161"]
        assert errors == [
            IngestError(1, "key 'summary' holds lone surrogate '\\ud800'"),
            IngestError(3, "key 'url' holds lone surrogate '\\udfff'"),
        ]

    def test_unparsable_lines_fail_alone(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                "[" * 100_000,
                '{"source":"x","summary":"s","body":"b","n":' + "1" * 5000 + "}",
                '{"source":"y","summary":"s","body":"b"}',
            ],
        )
        errors = []
        assert [a.source for a in ingest(path, errors)] == ["y"]
        assert [e.line_no for e in errors] == [1, 2]
        assert all(e.message.startswith("invalid JSON: ") for e in errors)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_fuzzed_lines, max_size=6))
    @example(lines=[b"[" * 100_000, b'{"a":' * 3000])
    @example(lines=[b'{"source":"x","summary":"s","body":"b"}', b"\xff\r\x00", b"-" + b"9" * 5000])
    def test_fuzzed_lines_never_raise(self, tmp_path, lines):
        data = b"\n".join(lines)
        path = tmp_path / "fuzzed.jsonl"
        path.write_bytes(data)
        errors = []
        articles = list(ingest(path, errors))
        # every non-blank line, split as the file reader splits it, is
        # either one article or one error
        reader = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        assert len(articles) + len(errors) == sum(1 for line in reader if line.strip())
        assert all(isinstance(e.message, str) for e in errors)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(_escaped_lines | _fuzzed_lines, max_size=6),
           required=st.sampled_from([(), ("body",), ("url", "source")]))
    def test_lines_read_as_the_plain_loop_reads_them(self, tmp_path, lines, required):
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b"\n".join(lines))
        assert list(read_jsonl(path, required)) == list(read_jsonl_oracle(path, required))
        errors = []
        assert (list(ingest(path, errors)), errors) == ingest_oracle(path)

    def test_an_escaped_backslash_before_ud800_is_text(self, tmp_path):
        path = self.write_lines(tmp_path, ['{"source":"x","summary":"s \\\\ud800","body":"b"}'])
        errors = []
        assert [a.summary for a in ingest(path, errors)] == ["s \\ud800"]
        assert errors == []

    def test_an_upper_case_surrogate_escape_is_refused(self, tmp_path):
        path = self.write_lines(tmp_path, ['{"source":"x","summary":"s","body":"b",'
                                           '"url":"\\uD800"}'])
        errors = []
        assert list(ingest(path, errors)) == []
        assert errors == [IngestError(1, "key 'url' holds lone surrogate '\\ud800'")]

    @pytest.mark.parametrize("tail", [" x", "{}", "]", ' "a"', "\x00"])
    def test_data_after_the_object_is_named_as_json_loads_names_it(self, tmp_path, tail):
        line = '{"source":"x","summary":"s","body":"b"}' + tail
        path = self.write_lines(tmp_path, [line])
        errors = []
        assert list(ingest(path, errors)) == []
        with pytest.raises(json.JSONDecodeError) as caught:
            json.loads(line)
        assert str(caught.value).startswith("Extra data: line 1 column ")
        assert errors == [IngestError(1, f"invalid JSON: {caught.value}")]

    def test_a_date_string_fails_or_parses_on_every_line_it_is_on(self, tmp_path):
        lines = [json.dumps({"source": str(i), "summary": "s", "body": "b",
                             "published_at": published})
                 for i, published in enumerate(["2020-02-30", "2020-02-29", "2020-02-30",
                                                "2020-02-29", "2020-1-01", "2020-1-01"])]
        errors = []
        articles = list(ingest(self.write_lines(tmp_path, lines), errors))
        assert [(a.source, a.published_at) for a in articles] == [
            ("1", date(2020, 2, 29)), ("3", date(2020, 2, 29))]
        bad_day = "bad published_at: day is out of range for month"
        bad_form = "bad published_at: expected YYYY-MM-DD, got '2020-1-01'"
        assert errors == [IngestError(1, bad_day), IngestError(3, bad_day),
                          IngestError(5, bad_form), IngestError(6, bad_form)]

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            list(ingest(tmp_path / "missing.jsonl"))

    def test_json_round_trip(self, tmp_path):
        article = Article(
            source="x", summary="s", body="b", url="http://e", published_at=date(2020, 1, 2)
        )
        line = to_json_line(article)
        path = self.write_lines(tmp_path, [line])
        assert next(ingest(path)) == article


class TestCorpusStats:
    def test_empty_stream(self):
        report = corpus_stats([])
        assert report.kept == 0
        assert report.total == 0
        assert sum(report.rejected_by_reason.values()) == 0

    def test_direct_counting(self):
        a = make_article("s" * 20, _distinct_body(200), source="a")
        pairs = [(a, None), (a, None), (a, None), (a, "summary_too_short")]
        report = corpus_stats(pairs)
        assert report.kept == 3
        assert report.per_source["a"].count == 3
        assert report.rejected_by_reason["summary_too_short"] == 1
        assert report.total == 4

    def test_date_range(self):
        early = make_article("s" * 20, _distinct_body(200), published=date(2007, 7, 9))
        late = make_article("s" * 20, _distinct_body(200), published=date(2020, 9, 23))
        report = corpus_stats([(late, None), (early, None)])
        stats = report.per_source["src"]
        assert stats.earliest == date(2007, 7, 9)
        assert stats.latest == date(2020, 9, 23)
        assert stats.earliest <= stats.latest

    def test_counts_sum_to_stream_size(self):
        rng = np.random.default_rng(5)
        article = make_article("s" * 20, _distinct_body(200))
        outcomes = [None, *REJECT_REASONS]
        pairs = [(article, outcomes[rng.integers(0, len(outcomes))]) for _ in range(500)]
        report = corpus_stats(pairs)
        assert report.total == 500

    def test_table_rendering(self):
        article = make_article("s" * 20, _distinct_body(200), source="15min.lt",
                               published=date(2007, 7, 9))
        report = corpus_stats([(article, None), (article, "body_too_short")])
        table = format_stats_table(report)
        assert "15min.lt" in table
        assert "2007-07-09" in table
        assert "body_too_short" in table


class TestSplitValidation:
    ARTICLES = [make_article(f"summary-{i:02d}-{'s' * 12}", _distinct_body(200))
                for i in range(10)]

    def test_deterministic_under_seed(self):
        first = split_validation(self.ARTICLES, 2, seed=7)
        second = split_validation(self.ARTICLES, 2, seed=7)
        assert first == second

    def test_all_validation(self):
        train, validation = split_validation(self.ARTICLES, len(self.ARTICLES), seed=1)
        assert train == []
        assert sorted(a.summary for a in validation) == sorted(
            a.summary for a in self.ARTICLES
        )

    def test_zero_validation_preserves_order(self):
        train, validation = split_validation(self.ARTICLES, 0, seed=1)
        assert validation == []
        assert train == self.ARTICLES

    def test_disjoint_union(self):
        train, validation = split_validation(self.ARTICLES, 4, seed=9)
        assert len(validation) == 4
        train_keys = {a.summary for a in train}
        valid_keys = {a.summary for a in validation}
        assert not train_keys & valid_keys
        assert train_keys | valid_keys == {a.summary for a in self.ARTICLES}

    def test_oversized_request_is_an_error(self):
        with pytest.raises(ValueError):
            split_validation(self.ARTICLES, 11, seed=0)

    def test_negative_request_is_an_error(self):
        with pytest.raises(ValueError, match="n_validation must be nonnegative"):
            split_validation(self.ARTICLES, -1, seed=0)


def test_normalize_whitespace():
    assert normalize_whitespace("  a \t b\nc  ") == "a b c"
    assert normalize_whitespace("\n\t ") == ""
