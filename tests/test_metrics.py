import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scoring_oracle import category_word_tokenize, slice_window_ngrams
from santrauka import metrics
from santrauka.metrics import (
    _STEMMERS,
    _lcs_len,
    EvalRecord,
    MeanStd,
    RougeScore,
    aggregate,
    evaluate_pair,
    format_mean_std,
    is_repetitive,
    length_fraction,
    lithuanian_light_stem,
    register_stemmer,
    render_table,
    rouge_l,
    rouge_n,
    stem_normalize,
)


def ngram_overlap_oracle(candidate, reference, n):
    """Clipped common n-gram count by explicit window scans."""
    cand_windows = [tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1)]
    ref_windows = [tuple(reference[i : i + n]) for i in range(len(reference) - n + 1)]
    matched = 0
    for gram in set(cand_windows):
        matched += min(cand_windows.count(gram), ref_windows.count(gram))
    return matched, len(cand_windows), len(ref_windows)


def lcs_table_oracle(a, b):
    """Classic full-table longest common subsequence length."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def _lcs_len_dp(a, b):
    """Two-row LCS table: quadratic time, linear memory."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


# short lists and lists past one 64-bit machine word, over few symbols
_SMALL_ALPHABET_LISTS = st.one_of(
    st.lists(st.sampled_from("abc"), max_size=10),
    st.lists(st.sampled_from("abcd"), min_size=64, max_size=160),
)
_LITHUANIAN_WORDS = ["ąžuolas", "ėjo", "ir", "namų", "upės", "šiandien", "žmonės"]
_LITHUANIAN_ALPHABET = "aąbcčdeęėfghiįyjklmnoprsštuųūvzž"

#: The stemmer's suffix list before it was grouped by length, in its old
#: longest-first order.
_OLD_LT_SUFFIXES = tuple(
    sorted(
        [
            "iuose", "iomis",
            "uose", "omis", "ėmis", "iais", "iams", "iems", "iose", "ioms",
            "ais", "ams", "oms", "ose", "ėms", "ėse", "ėje", "oje", "yje",
            "ius", "iai", "iui",
            "as", "os", "es", "ės", "is", "ys", "us", "ai", "ei", "ui",
            "io", "iu", "ių", "ti",
            "a", "ą", "e", "ę", "ė", "i", "į", "y", "o", "u", "ų", "ū",
        ],
        key=lambda s: (-len(s), s),
    )
)


def endswith_stem_oracle(word):
    """The stemmer as one ``endswith`` test per suffix, longest first."""
    for suffix in _OLD_LT_SUFFIXES:
        if word.endswith(suffix) and len(word) - len(suffix) >= 3:
            return word[: -len(suffix)]
    return word


def random_tokens(rng, max_len=20, vocab=10):
    size = int(rng.integers(0, max_len + 1))
    return [f"w{int(t)}" for t in rng.integers(0, vocab, size=size)]


def evaluate_pair_oracle(candidate, reference, fn):
    """evaluate_pair's record from the loop oracles: category-lookup edge
    scan, slice windows and the LCS table."""
    def score(matched, cand_total, ref_total):
        return RougeScore.from_counts(matched, cand_total, ref_total).as_dict()

    def rouge_n_oracle(cand, ref, n):
        cand_grams, ref_grams = slice_window_ngrams(cand, n), slice_window_ngrams(ref, n)
        matched = sum(min(count, ref_grams[gram]) for gram, count in cand_grams.items())
        return score(matched, sum(cand_grams.values()), sum(ref_grams.values()))

    words = category_word_tokenize(candidate, lowercase=True)
    cand = [fn(word) for word in words]
    ref = [fn(word) for word in category_word_tokenize(reference, lowercase=True)]
    return {
        "rouge1": rouge_n_oracle(cand, ref, 1),
        "rouge2": rouge_n_oracle(cand, ref, 2),
        "rougeL": score(lcs_table_oracle(cand, ref), len(cand), len(ref)),
        "length_fraction": len(candidate) / len(reference),
        "repetitive": any(count > 7 and word != "ir" for word, count in Counter(words).items()),
    }


#: Texts with case, edge and internal punctuation and Lithuanian inflections.
_PAIR_TEXTS = st.lists(
    st.tuples(
        st.sampled_from(["", "", "„", "(", "-", "..."]),
        st.sampled_from(["namas", "Namai", "NAMŲ", "namuose", "ir", "Ąžuolas", "upės",
                         "žmonės", "e-paštas", "ką", "COVID-19", "²"]),
        st.sampled_from(["", "", ",", ".", "!", "“", ")", "?!"]),
    ).map("".join),
    max_size=25,
).map(" ".join)


class TestRougeN:
    def test_identical_texts(self):
        score = rouge_n(["a", "b"], ["a", "b"], 1)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_unigram_fixture(self):
        score = rouge_n("the cat sat".split(), "the cat ate".split(), 1)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(2 / 3)

    def test_bigram_fixture(self):
        score = rouge_n("the cat sat".split(), "the cat ate".split(), 2)
        assert score.f1 == pytest.approx(0.5)

    def test_empty_sides_score_zero(self):
        assert rouge_n([], ["a"], 1) == RougeScore(0.0, 0.0, 0.0)
        assert rouge_n(["a"], [], 1) == RougeScore(0.0, 0.0, 0.0)

    def test_clipped_multiplicities(self):
        # "a" appears twice in the candidate but once in the reference
        score = rouge_n(["a", "a"], ["a", "b"], 1)
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(0.5)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], ["a"], 0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            candidate = random_tokens(rng)
            reference = random_tokens(rng)
            for n in (1, 2):
                matched, cand_total, ref_total = ngram_overlap_oracle(
                    candidate, reference, n
                )
                expected = RougeScore.from_counts(matched, cand_total, ref_total)
                got = rouge_n(candidate, reference, n)
                assert got.precision == pytest.approx(expected.precision, abs=1e-12)
                assert got.recall == pytest.approx(expected.recall, abs=1e-12)
                assert got.f1 == pytest.approx(expected.f1, abs=1e-12)

    @settings(max_examples=400, deadline=None)
    @given(
        pair=st.one_of(
            st.tuples(*[st.lists(st.sampled_from(["a", "b", "ą", 1, (2,)]), max_size=12)] * 2),
            st.tuples(*[st.lists(st.sampled_from("abc"), max_size=12).map(tuple)] * 2),
            st.tuples(*[st.text("abą", max_size=12)] * 2),
        ),
    )
    @example(pair=([], []))
    @example(pair=("aab", "ab"))
    # a 1-tuple token and the token it holds are different unigrams
    @example(pair=([(2,), 2], [2, 2]))
    def test_unigrams_match_slice_windows(self, pair):
        # unigrams are counted as tokens, not 1-tuples: scores equal exactly
        candidate, reference = pair
        cand_grams = slice_window_ngrams(candidate, 1)
        ref_grams = slice_window_ngrams(reference, 1)
        matched = sum(min(count, ref_grams[gram]) for gram, count in cand_grams.items())
        expected = RougeScore.from_counts(
            matched, sum(cand_grams.values()), sum(ref_grams.values())
        )
        assert rouge_n(candidate, reference, 1) == expected


class TestRougeL:
    def test_reordered_pair(self):
        score = rouge_l("a b c d".split(), "a c b d".split())
        assert score.precision == pytest.approx(3 / 4)
        assert score.recall == pytest.approx(3 / 4)
        assert score.f1 == pytest.approx(3 / 4)

    def test_disjoint_vocabularies(self):
        assert rouge_l(["a"], ["b"]).f1 == 0.0

    def test_identical(self):
        assert rouge_l(["a", "b"], ["a", "b"]).f1 == 1.0

    def test_matches_lcs_table(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            candidate = random_tokens(rng)
            reference = random_tokens(rng)
            lcs = lcs_table_oracle(candidate, reference)
            expected = RougeScore.from_counts(lcs, len(candidate), len(reference))
            got = rouge_l(candidate, reference)
            assert got == expected

    def test_full_recall_iff_reference_is_subsequence(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            candidate = random_tokens(rng, max_len=10, vocab=3)
            reference = random_tokens(rng, max_len=6, vocab=3)
            if not reference:
                continue
            recall = rouge_l(candidate, reference).recall
            is_subsequence = lcs_table_oracle(candidate, reference) == len(reference)
            assert (recall == 1.0) == is_subsequence

    @settings(max_examples=400, deadline=None)
    @given(a=_SMALL_ALPHABET_LISTS, b=_SMALL_ALPHABET_LISTS)
    @example(a=[], b=[])
    @example(a=[], b=["a"] * 70)
    @example(a=["a"] * 70, b=[])
    @example(a=["a", "b"] * 40, b=["b", "a"] * 40)
    @example(a=["a"] * 64, b=["a"] * 64)
    @example(a=["a"] * 65, b=["b"] * 63 + ["a"] * 2)
    def test_bit_parallel_matches_dp_on_repeats(self, a, b):
        assert _lcs_len(a, b) == _lcs_len_dp(a, b)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(st.sampled_from(_LITHUANIAN_WORDS), max_size=80),
        b=st.lists(st.sampled_from(_LITHUANIAN_WORDS), max_size=80),
    )
    def test_bit_parallel_matches_dp_on_lithuanian_words(self, a, b):
        assert _lcs_len(a, b) == _lcs_len_dp(a, b)


class TestScoreShapeProperties:
    def test_swapping_sides_swaps_p_and_r(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            a, b = random_tokens(rng), random_tokens(rng)
            fwd, rev = rouge_n(a, b, 1), rouge_n(b, a, 1)
            assert fwd.precision == pytest.approx(rev.recall, abs=1e-12)
            assert fwd.recall == pytest.approx(rev.precision, abs=1e-12)
            assert fwd.f1 == pytest.approx(rev.f1, abs=1e-12)
            lf, lr = rouge_l(a, b), rouge_l(b, a)
            assert lf.precision == pytest.approx(lr.recall, abs=1e-12)
            assert lf.f1 == pytest.approx(lr.f1, abs=1e-12)

    def test_f1_between_min_and_max_when_positive(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            a, b = random_tokens(rng), random_tokens(rng)
            score = rouge_n(a, b, 1)
            if score.precision > 0 and score.recall > 0:
                low = min(score.precision, score.recall)
                high = max(score.precision, score.recall)
                assert low - 1e-12 <= score.f1 <= high + 1e-12
            assert 0.0 <= score.f1 <= 1.0


class TestLengthFraction:
    def test_equal_lengths(self):
        assert length_fraction("abcd", "wxyz") == 1.0

    def test_direct_ratio(self):
        assert length_fraction("a" * 80, "b" * 100) == pytest.approx(0.8)

    def test_empty_generated(self):
        assert length_fraction("", "ref") == 0.0

    def test_empty_reference_is_an_error(self):
        with pytest.raises(ValueError):
            length_fraction("abc", "")


class TestIsRepetitive:
    def test_word_over_threshold(self):
        assert is_repetitive("labas " * 8)

    def test_stop_word_exempt(self):
        text = "ir " * 20 + "vienas du trys"
        assert not is_repetitive(text)

    def test_under_threshold(self):
        assert not is_repetitive("labas " * 7)

    def test_case_insensitive_counting(self):
        assert is_repetitive("Namas namas NAMAS namas namas namas namas namas")

    def test_invariant_to_word_order(self):
        rng = np.random.default_rng(41)
        words = ["a"] * 8 + ["b", "c", "d"]
        for _ in range(20):
            rng.shuffle(words)
            assert is_repetitive(" ".join(words))


class TestStemmers:
    def test_identity(self):
        assert stem_normalize(["Namas", "upės"], "identity") == ["Namas", "upės"]

    def test_lithuanian_light_unit_list(self):
        groups = {
            "nam": ["namas", "namo", "namui", "namą", "namu", "name",
                    "namai", "namų", "namams", "namus", "namuose"],
            "knyg": ["knyga", "knygos", "knygai", "knygą", "knygoje", "knygomis"],
            "miest": ["miestas", "miesto", "miestai", "miestuose"],
            "vyr": ["vyras", "vyrai", "vyrų"],
        }
        for stem, words in groups.items():
            for word in words:
                assert lithuanian_light_stem(word) == stem, word

    def test_short_words_untouched(self):
        assert lithuanian_light_stem("ir") == "ir"
        assert lithuanian_light_stem("yra") == "yra"

    @settings(max_examples=500, deadline=None)
    @given(word=st.text(_LITHUANIAN_ALPHABET, max_size=12))
    def test_lithuanian_light_matches_endswith_loop(self, word):
        assert lithuanian_light_stem(word) == endswith_stem_oracle(word)

    @settings(max_examples=300, deadline=None)
    @given(
        prefix=st.text(_LITHUANIAN_ALPHABET, max_size=4),
        suffix=st.sampled_from(_OLD_LT_SUFFIXES),
    )
    def test_lithuanian_light_matches_endswith_loop_on_suffixes(self, prefix, suffix):
        word = prefix + suffix
        assert lithuanian_light_stem(word) == endswith_stem_oracle(word)

    def test_length_sets_split_the_suffix_list_exactly(self):
        # the stemmer tests lengths 5 down to 1 only: a longer suffix added
        # to the list would never be stripped
        by_length = {5: metrics._LT_5, 4: metrics._LT_4, 3: metrics._LT_3,
                     2: metrics._LT_2, 1: metrics._LT_1}
        assert max(map(len, metrics._LT_SUFFIXES)) <= 5
        for size, suffixes in by_length.items():
            assert suffixes == {s for s in metrics._LT_SUFFIXES if len(s) == size}, size
        assert frozenset().union(*by_length.values()) == metrics._LT_SUFFIXES
        assert set(_OLD_LT_SUFFIXES) == metrics._LT_SUFFIXES

    def test_lithuanian_light_every_suffix_every_prefix_length(self):
        for suffix in _OLD_LT_SUFFIXES:
            for size in range(5):
                word = "kžmn"[:size] + suffix
                assert lithuanian_light_stem(word) == endswith_stem_oracle(word), word

    def test_unknown_stemmer_errors(self):
        with pytest.raises(ValueError, match="unknown stemmer"):
            stem_normalize(["a"], "porter")

    def test_empty_list(self):
        assert stem_normalize([], "lithuanian-light") == []

    def test_custom_plugin(self):
        register_stemmer("shout", str.upper)
        assert stem_normalize(["labas"], "shout") == ["LABAS"]

    def test_callable_accepted_directly(self):
        assert stem_normalize(["ab"], lambda w: w[0]) == ["a"]


def make_record(f1, length=1.0, repetitive=False):
    score = RougeScore(f1, f1, f1)
    return EvalRecord(score, score, score, length, repetitive)


class TestAggregate:
    def test_hand_arithmetic(self):
        summary = aggregate([make_record(0.2), make_record(0.4)])
        assert summary.rouge1.mean == pytest.approx(0.3)
        assert summary.rouge1.std == pytest.approx(math.sqrt(0.02), abs=1e-9)

    def test_single_record_std_zero(self):
        summary = aggregate([make_record(0.5)])
        assert summary.rouge1.std == 0.0
        assert summary.count == 1

    def test_identical_records(self):
        summary = aggregate([make_record(0.7)] * 5)
        assert summary.rouge2.mean == pytest.approx(0.7)
        assert summary.rouge2.std == 0.0

    def test_empty_fails(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_repetitive_count(self):
        records = [make_record(0.1, repetitive=True), make_record(0.2)]
        assert aggregate(records).repetitive_count == 1

    def test_formatting(self):
        assert format_mean_std(MeanStd(0.298, 0.154)) == "0.298 (0.154)"
        assert format_mean_std(MeanStd(0.79, 0.40), decimals=2) == "0.79 (0.40)"


class TestEvaluatePair:
    def test_full_record(self):
        record = evaluate_pair("The cat sat", "the cat ate")
        assert record.rouge1.f1 == pytest.approx(2 / 3)
        assert record.rouge2.f1 == pytest.approx(0.5)
        assert record.length_fraction == pytest.approx(11 / 11)
        assert not record.repetitive

    def test_stemming_applied(self):
        plain = evaluate_pair("namas", "namo")
        stemmed = evaluate_pair("namas", "namo", stemmer="lithuanian-light")
        assert plain.rouge1.f1 == 0.0
        assert stemmed.rouge1.f1 == 1.0

    @settings(max_examples=150, deadline=None)
    @given(
        candidate=st.lists(
            st.sampled_from(["namas", "namai", "namą", "NAMAS", "ir", "kalba", "kalbos"]),
            max_size=30,
        ).map(" ".join),
        stemmer=st.sampled_from(["identity", "lithuanian-light"]),
    )
    # stemmed, these are "nam" nine times, over the limit of 7; unstemmed, none is
    @example(candidate="namas namai namą " * 3, stemmer="lithuanian-light")
    def test_repetitive_flag_equals_is_repetitive(self, candidate, stemmer):
        record = evaluate_pair(candidate, "namas kalba", stemmer=stemmer)
        assert record.repetitive == is_repetitive(candidate)

    @settings(max_examples=300, deadline=None)
    @given(
        candidate=_PAIR_TEXTS,
        reference=_PAIR_TEXTS.filter(bool),
        stemmer=st.sampled_from(["identity", "lithuanian-light"]),
    )
    @example(candidate="Namas, namai! NAMĄ namų", reference="„Namas“ (namai) namų.",
             stemmer="lithuanian-light")
    @example(candidate="", reference="...", stemmer="identity")
    @example(candidate="ir " * 9, reference="ir", stemmer="lithuanian-light")
    def test_matches_the_oracle_composition(self, candidate, reference, stemmer):
        assert evaluate_pair(candidate, reference, stemmer).as_dict() == evaluate_pair_oracle(
            candidate, reference, _STEMMERS[stemmer]
        )

    def test_serializable(self):
        record = evaluate_pair("a b", "a c")
        payload = record.as_dict()
        assert payload["rouge1"]["f1"] == pytest.approx(0.5)
        assert "repetitive" in payload


class TestRenderTable:
    def test_layout(self):
        summary = aggregate([make_record(0.298, length=0.79)])
        table = render_table({"greedy": summary})
        lines = table.splitlines()
        assert lines[0].startswith("Decoding method")
        assert "ROUGE-1" in lines[0] and "Length fraction" in lines[0]
        assert "greedy" in lines[1]
        assert "0.298 (0.000)" in lines[1]
        assert "0.79 (0.00)" in lines[1]
