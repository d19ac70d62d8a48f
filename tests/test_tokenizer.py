import math
import re
import sys
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scoring_oracle import category_word_tokenize, slice_window_ngrams
from santrauka.tokenizer import (
    TokenSequence,
    Vocabulary,
    char_vocabulary,
    detokenize,
    ngrams,
    token_ids,
    viterbi_segment,
    word_tokenize,
)


def simple_vocab(entries, unk=None):
    """Vocabulary from {token: log_prob} plus an eos appended at the end."""
    tokens = list(entries)
    log_probs = [entries[t] for t in tokens]
    tokens.append("<eos>")
    log_probs.append(0.0)
    if unk is not None:
        tokens.append("<unk>")
        log_probs.append(unk)
        return Vocabulary(tokens, log_probs, eos="<eos>", unk="<unk>")
    return Vocabulary(tokens, log_probs, eos="<eos>")


def enumerate_segmentations(text, pieces):
    """Every way to split text into the given pieces, by brute force."""
    if not text:
        yield ()
        return
    for piece in pieces:
        if text.startswith(piece):
            for rest in enumerate_segmentations(text[len(piece):], pieces):
                yield (piece,) + rest


def ranked_segmentations(text, vocab):
    """Every split of text into surface tokens and one-character unks, by
    brute force, each as (unk count, -score, token count, ids)."""
    def splits(start):
        if start == len(text):
            yield ()
            return
        for end in range(start + 1, len(text) + 1):
            tid = vocab.surface_id(text[start:end])
            if tid is not None:
                for rest in splits(end):
                    yield (tid,) + rest
        if vocab.unk_id is not None:
            for rest in splits(start + 1):
                yield (vocab.unk_id,) + rest

    for ids in splits(0):
        score = sum(float(vocab.log_probs[i]) for i in ids)
        yield ids.count(vocab.unk_id), -score, len(ids), ids


def assert_matches_ranked_brute_force(text, vocab):
    """viterbi_segment gives the least-ranked split, or, where there is none,
    raises the uncovered-text error."""
    best = min(ranked_segmentations(text, vocab), default=None)
    if best is None:
        message = "^text cannot be segmented: uncovered characters and no unk token defined$"
        with pytest.raises(ValueError, match=message):
            viterbi_segment(text, vocab)
    else:
        assert viterbi_segment(text, vocab).ids == best[3]


#: Log-probs whose sums over a few tokens are exact, so ties are real ties.
_dyadic = st.sampled_from([0.0, -0.5, -1.0, -2.0])


@st.composite
def _subword_vocabs(draw):
    # at least one piece of 2+ characters, so segmentation runs the lattice
    pieces = draw(st.lists(st.text("abą", min_size=1, max_size=3), min_size=1,
                           max_size=7, unique=True).filter(lambda ps: max(map(len, ps)) > 1))
    tokens = pieces + ["<eos>"]
    log_probs = [draw(_dyadic) for _ in pieces] + [0.0]
    unk = draw(st.booleans())
    if unk:
        tokens.append("<unk>")
        log_probs.append(draw(_dyadic))
    return Vocabulary(tokens, log_probs, eos="<eos>", unk="<unk>" if unk else None)


@st.composite
def _char_vocabs(draw):
    """Vocabularies whose surface tokens are single characters, possibly
    none; eos or unk may be a one-character special, which never matches."""
    surface = draw(st.lists(st.sampled_from("abąz"), max_size=4, unique=True))
    spare = [ch for ch in "abąz" if ch not in surface]
    eos = draw(st.sampled_from(["<eos>", *spare]))
    unk = draw(st.sampled_from([None, "<unk>", *(ch for ch in spare if ch != eos)]))
    tokens = draw(st.permutations([*surface, eos, *([unk] if unk else [])]))
    log_probs = [draw(_dyadic) for _ in tokens]
    return Vocabulary(tokens, log_probs, eos=eos, unk=unk)


class TestWordTokenize:
    def test_punctuation_stripping(self):
        assert word_tokenize("Labas, pasauli!", lowercase=True) == ["labas", "pasauli"]

    def test_empty_input(self):
        assert word_tokenize("") == []

    def test_whitespace_runs(self):
        assert word_tokenize("a  b\tc") == ["a", "b", "c"]

    def test_internal_hyphen_kept(self):
        # edges are stripped one by one; the internal hyphen stays
        assert word_tokenize("e-mail, -edge-") == ["e-mail", "edge"]
        assert word_tokenize("-e-mail-") == ["e-mail"]

    def test_case_flag(self):
        assert word_tokenize("Vilnius") == ["Vilnius"]
        assert word_tokenize("Vilnius", lowercase=True) == ["vilnius"]

    def test_all_punctuation_word_dropped(self):
        assert word_tokenize("a -- b") == ["a", "b"]

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(13)
        alphabet = list("ab., !-„“")
        for _ in range(200):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 30)))
            once = word_tokenize(text, lowercase=True)
            again = word_tokenize(" ".join(once), lowercase=True)
            assert once == again

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.text("aąčęėįšųūžAĄŽ09²½٣_.,!?-–—„“«»'\"()…:;/§ \t\n", max_size=40),
        lowercase=st.booleans(),
    )
    # non-ASCII alphanumeric edges (a letter, a superscript digit, an
    # Arabic-Indic digit, a titlecase digraph) skip the edge scan; next to
    # punctuation they stop it
    @example(text="ą ² ٣ ǅ ąž²  ٣ǅ ǅ٣ą", lowercase=True)
    @example(text="Ąžuolas² ٣metai ǅemal", lowercase=False)
    @example(text="„ą“ (²) ٣. ǅ! -ą- ¿ǅ? ²… «٣»", lowercase=True)
    @example(text="ą, ,ą ²- -² ٣) (٣ ǅ: :ǅ ą-² ǅ—٣ ., ą-", lowercase=False)
    @example(text="ǅ-. .ą ²'٣ …ǅ…", lowercase=True)
    def test_matches_category_lookup(self, text, lowercase):
        expected = category_word_tokenize(text, lowercase=lowercase)
        assert word_tokenize(text, lowercase=lowercase) == expected

    def test_no_alphanumeric_code_point_is_punctuation(self):
        both = [
            hex(cp)
            for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
        ]
        assert both == []


class TestNgrams:
    def test_hand_enumeration(self):
        assert ngrams(["a", "b", "a", "b"], 2) == {("a", "b"): 2, ("b", "a"): 1}

    def test_window_longer_than_input(self):
        assert ngrams(["a", "b"], 3) == {}

    def test_unigram(self):
        assert ngrams(["a"], 1) == {("a",): 1}

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)

    def test_cardinality(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            tokens = list(rng.choice(list("abc"), size=rng.integers(0, 12)))
            n = int(rng.integers(1, 5))
            total = sum(ngrams(tokens, n).values())
            assert total == max(0, len(tokens) - n + 1)

    @settings(max_examples=400, deadline=None)
    @given(
        tokens=st.one_of(
            st.lists(st.sampled_from(["a", "b", "ą", 1, (2,)]), max_size=12),
            st.lists(st.sampled_from("abc"), max_size=12).map(tuple),
            st.text("abą", max_size=12),
        ),
        n=st.integers(1, 5),
    )
    @example(tokens=[], n=1)
    @example(tokens="ab", n=3)
    @example(tokens=("a", "b", "a", "b"), n=4)
    def test_matches_slice_windows(self, tokens, n):
        # equal counts in the same first-occurrence key order
        expected = slice_window_ngrams(tokens, n)
        assert list(ngrams(tokens, n).items()) == list(expected.items())

    def test_no_copies_when_the_window_is_longer_than_the_input(self):
        class SliceCountingList(list):
            slices = 0

            def __getitem__(self, index):
                if isinstance(index, slice):
                    SliceCountingList.slices += 1
                return super().__getitem__(index)

        assert ngrams(SliceCountingList(["a", "b"]), 1000) == {}
        assert SliceCountingList.slices == 0


class TestVocabulary:
    def test_requires_eos(self):
        with pytest.raises(ValueError, match="eos"):
            Vocabulary(["a"], [0.0], eos="<eos>")

    def test_rejects_positive_log_prob(self):
        with pytest.raises(ValueError, match="log prob"):
            Vocabulary(["a", "<eos>"], [0.1, 0.0], eos="<eos>")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(["a", "a", "<eos>"], [0.0, 0.0, 0.0], eos="<eos>")

    def test_dense_ids(self):
        vocab = simple_vocab({"a": -1.0, "b": -2.0})
        assert [vocab.id_of(t) for t in ("a", "b", "<eos>")] == [0, 1, 2]
        assert len(vocab) == 3

    def test_id_to_token_bounds_checked(self):
        vocab = simple_vocab({"a": -1.0})
        assert vocab.id_to_token(1) == "<eos>"
        for token_id in (-1, len(vocab)):
            with pytest.raises(ValueError, match=rf"token id {token_id} outside \[0, 2\)"):
                vocab.id_to_token(token_id)

    @pytest.mark.parametrize("token", ["a\tb", "a\nb"])
    def test_save_refuses_a_token_the_format_cannot_hold(self, tmp_path, token):
        vocab = simple_vocab({token: -1.0})
        with pytest.raises(ValueError, match="not representable in the file format"):
            vocab.save(tmp_path / "vocab.txt")

    def test_save_load_round_trip(self, tmp_path):
        vocab = simple_vocab({"a": math.log(0.25), "ab": math.log(0.5)}, unk=-10.0)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens == vocab.tokens
        assert np.array_equal(loaded.log_probs, vocab.log_probs)
        assert loaded.eos_id == vocab.eos_id
        assert loaded.unk_id == vocab.unk_id
        assert loaded.content_hash() == vocab.content_hash()

    def test_load_reserved_names_without_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\t-1.0\n<eos>\t0.0\n<unk>\t-5.0\n", encoding="utf-8")
        vocab = Vocabulary.load(path)
        assert vocab.eos_id == 1
        assert vocab.unk_id == 2
        assert vocab.pad_id is None

    def test_load_header_declares_specials(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text(
            '{"eos": "</s>", "unk": null, "pad": null}\n</s>\t0.0\nx\t-1.5\n',
            encoding="utf-8",
        )
        vocab = Vocabulary.load(path)
        assert vocab.eos_id == 0
        assert vocab.id_of("x") == 1

    def test_load_missing_eos_fails(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\t-1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            Vocabulary.load(path)

    def test_load_header_with_a_non_string_special_fails(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text('{"eos": ["</s>"]}\n</s>\t0.0\n', encoding="utf-8")
        with pytest.raises(ValueError, match="key 'specials'"):
            Vocabulary.load(path)

    def test_load_names_the_line_of_a_bad_log_prob(self, tmp_path):
        path = tmp_path / "vocab.txt"
        for text, message in [
            ("a\t-1.0\nb\tabc\n<eos>\t0.0\n", "line 2: log_prob 'abc' is not a number"),
            ("a\t-1.0\na\t-2.0\n<eos>\t0.0\n", "line 2: duplicate token 'a'"),
            ("a\t-1.0\n<eos>\t0.0\nb\t0.5\n", "line 3: log_prob '0.5' must be <= 0 and not NaN"),
            ('{"eos": "<eos>"}\na\tnan\n<eos>\t0.0\n',
             "line 2: log_prob 'nan' must be <= 0 and not NaN"),
            ("a\t-1.0\n\t-2.0\n<eos>\t0.0\n", "line 2: empty token"),
            ('{"eos": "<eos>"}\n<eos>\t0.0\na -1.0\n', "line 3: expected token<TAB>log_prob"),
            ('{"eos": }\n<eos>\t0.0\n', "line 1: Expecting value: line 1 column 9 (char 8)"),
            ('{"eos": "<eos>", "bos": "<s>"}\n<eos>\t0.0\n',
             "line 1: unknown special roles: ['bos']"),
            ('{"eos": 3}\n<eos>\t0.0\n',
             "line 1: key 'specials' must map roles to token strings or null"),
        ]:
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Vocabulary.load(path)

    def test_load_names_the_line_of_a_nested_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text('{"eos": ' + "[" * 100_000 + "\n<eos>\t0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 1: maximum recursion depth"):
            Vocabulary.load(path)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("\na\t-1.0\n\n<eos>\t0.0\n\n", encoding="utf-8")
        vocab = Vocabulary.load(path)
        assert vocab.tokens == ("a", "<eos>")
        assert vocab.eos_id == 1

    def test_hash_tracks_content(self):
        one = simple_vocab({"a": -1.0})
        two = simple_vocab({"a": -1.5})
        assert one.content_hash() != two.content_hash()


class TestTokenSequence:
    def test_bounds_checked(self):
        vocab = simple_vocab({"a": -1.0})
        with pytest.raises(ValueError):
            TokenSequence((5,), vocab)
        with pytest.raises(ValueError):
            TokenSequence((-1,), vocab)

    @pytest.mark.parametrize("ids, first", [
        ((0, 7, 1, -3), "7"),
        ((1, -3, 0, 7), "-3"),
        ((1, 1, 9, 2), "9"),
        ((0, 1, 2), "2"),  # the vocabulary size itself
        ((-1,), "-1"),
    ])
    def test_bounds_error_names_the_first_bad_id(self, ids, first):
        vocab = simple_vocab({"a": -1.0})
        size = len(vocab)
        with pytest.raises(ValueError) as err:
            TokenSequence(ids, vocab)
        assert str(err.value) == f"token id {first} outside [0, {size})"

    def test_empty_and_edge_ids_pass(self):
        vocab = simple_vocab({"a": -1.0})
        assert TokenSequence((), vocab).ids == ()
        assert TokenSequence((0, len(vocab) - 1), vocab).ids == (0, len(vocab) - 1)

    @pytest.mark.parametrize("ids", [(1.5,), (0, 1.0), (0.0,), ("1",)])
    def test_non_integer_ids_raise(self, ids):
        vocab = simple_vocab({"a": -1.0})
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            TokenSequence(ids, vocab)

    def test_token_ids_helper(self):
        vocab = simple_vocab({"a": -1.0})
        seq = TokenSequence((0, 1), vocab)
        assert token_ids(seq) == (0, 1)
        assert token_ids([0, 1]) == (0, 1)

    @pytest.mark.parametrize("ids", [[1.7], [0, 2.0], ["1"], [None]])
    def test_token_ids_refuses_non_integers(self, ids):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            token_ids(ids)

    @given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=20))
    def test_token_ids_of_numpy_array_are_plain_ints(self, ids):
        got = token_ids(np.array(ids, dtype=np.int64))
        assert got == tuple(ids)
        assert all(type(i) is int for i in got)


class TestViterbiSegment:
    def test_prefers_high_scoring_piece(self):
        vocab = simple_vocab({"a": math.log(0.25), "b": math.log(0.25), "ab": math.log(0.5)})
        seq = viterbi_segment("ab", vocab)
        assert [vocab.id_to_token(i) for i in seq.ids] == ["ab"]
        score = sum(vocab.log_probs[i] for i in seq.ids)
        assert score == pytest.approx(math.log(0.5))

    def test_empty_text(self):
        vocab = simple_vocab({"a": -1.0})
        assert viterbi_segment("", vocab).ids == ()

    def test_unk_fallback_forced(self):
        vocab = simple_vocab({"a": -1.0}, unk=-4.0)
        seq = viterbi_segment("q", vocab)
        assert seq.ids == (vocab.unk_id,)

    def test_one_unk_per_uncovered_character(self):
        vocab = simple_vocab({"ab": math.log(0.5)}, unk=-1.0)
        seq = viterbi_segment("abqq", vocab)
        tokens = [vocab.id_to_token(i) for i in seq.ids]
        assert tokens == ["ab", "<unk>", "<unk>"]

    def test_unk_never_replaces_a_coverable_span(self):
        # unk scores 0, better than any real token, but coverage wins
        vocab = simple_vocab({"a": -3.0, "b": -3.0}, unk=0.0)
        seq = viterbi_segment("ab", vocab)
        assert [vocab.id_to_token(i) for i in seq.ids] == ["a", "b"]

    def test_uncovered_without_unk_fails(self):
        vocab = simple_vocab({"a": -1.0})
        with pytest.raises(ValueError, match="unk"):
            viterbi_segment("aq", vocab)

    def test_tie_breaks_prefer_fewer_tokens(self):
        # "aa" as one piece scores the same as two singles
        vocab = simple_vocab({"a": math.log(0.5), "aa": math.log(0.25)})
        seq = viterbi_segment("aa", vocab)
        assert [vocab.id_to_token(i) for i in seq.ids] == ["aa"]

    def test_tie_breaks_prefer_smaller_ids(self):
        # two equal-score, equal-length segmentations of "ab": [a, b] vs [a2, b2]
        vocab = Vocabulary(
            ["a", "b", "x", "ab", "<eos>"],
            [math.log(0.5), math.log(0.5), math.log(0.5), math.log(0.25), 0.0],
            eos="<eos>",
        )
        # only segmentations into {a, b} and {ab}: score ln(.25) both ways
        seq = viterbi_segment("ab", vocab)
        assert [vocab.id_to_token(i) for i in seq.ids] == ["ab"]

    def test_optimal_against_brute_force(self):
        rng = np.random.default_rng(97)
        alphabet = ["a", "b", "c"]
        for _ in range(150):
            pieces = set(alphabet)  # singles guarantee coverage
            while len(pieces) < 8:
                length = int(rng.integers(2, 4))
                pieces.add("".join(rng.choice(alphabet, size=length)))
            pieces = sorted(pieces)
            raw = rng.random(len(pieces))
            entries = {
                p: float(np.log(w / raw.sum())) for p, w in zip(pieces, raw)
            }
            vocab = simple_vocab(entries)
            text = "".join(rng.choice(alphabet, size=rng.integers(1, 11)))
            seq = viterbi_segment(text, vocab)
            got = sum(float(vocab.log_probs[i]) for i in seq.ids)
            best = max(
                sum(entries[p] for p in seg)
                for seg in enumerate_segmentations(text, pieces)
            )
            assert got == pytest.approx(best, abs=1e-9)

    @settings(max_examples=400, deadline=None)
    @given(vocab=_subword_vocabs(), text=st.text("abąz", max_size=7))
    def test_matches_ranked_brute_force(self, vocab, text):
        assert vocab.max_token_len > 1
        assert_matches_ranked_brute_force(text, vocab)

    @settings(max_examples=400, deadline=None)
    @given(vocab=_char_vocabs(), text=st.text("abąz", max_size=8))
    # no surface token at all: a one-character unk covers everything, or nothing does
    @example(vocab=Vocabulary(["<eos>", "a"], [0.0, -1.0], eos="<eos>", unk="a"), text="aba")
    @example(vocab=Vocabulary(["a"], [0.0], eos="a"), text="a")
    def test_character_vocabulary_matches_ranked_brute_force(self, vocab, text):
        assert vocab.max_token_len <= 1
        assert_matches_ranked_brute_force(text, vocab)

    @settings(max_examples=300, deadline=None)
    @given(vocab=st.one_of(_subword_vocabs(), _char_vocabs()),
           text=st.text("abąz", max_size=8))
    def test_result_passes_the_checked_constructor(self, vocab, text):
        # the segmenter builds its result unchecked; the ids must be the
        # plain in-range ints that the checked constructor accepts
        try:
            seq = viterbi_segment(text, vocab)
        except ValueError:
            return  # uncovered text, no unk: the brute-force tests pin this
        assert seq == TokenSequence(seq.ids, vocab)
        assert type(seq.ids) is tuple
        assert all(type(i) is int and 0 <= i < len(vocab) for i in seq.ids)

    def test_round_trip_on_covered_text(self):
        rng = np.random.default_rng(31)
        vocab = simple_vocab(
            {"a": -2.0, "b": -2.0, "c": -2.0, "ab": -1.0, "bc": -1.5, "abc": -0.5},
            unk=-1.0,
        )
        for _ in range(200):
            text = "".join(rng.choice(list("abc"), size=rng.integers(0, 15)))
            assert detokenize(viterbi_segment(text, vocab)) == text


class TestDetokenize:
    def test_basic(self):
        vocab = simple_vocab({"ab": -1.0})
        assert detokenize(TokenSequence((0,), vocab)) == "ab"

    def test_empty(self):
        vocab = simple_vocab({"ab": -1.0})
        assert detokenize(TokenSequence((), vocab)) == ""


class TestCharVocabulary:
    def test_covers_observed_characters(self):
        vocab = char_vocabulary(["abc", "cba"])
        seq = viterbi_segment("cab", vocab)
        assert detokenize(seq) == "cab"

    def test_log_probs_reflect_frequency(self):
        vocab = char_vocabulary(["aab"])
        a_lp = vocab.log_probs[vocab.id_of("a")]
        b_lp = vocab.log_probs[vocab.id_of("b")]
        assert a_lp == pytest.approx(math.log(2 / 3))
        assert b_lp == pytest.approx(math.log(1 / 3))

    def test_unseen_character_becomes_unk(self):
        vocab = char_vocabulary(["abc"])
        seq = viterbi_segment("axc", vocab)
        assert vocab.unk_id in seq.ids

    def test_empty_sample_fails(self):
        with pytest.raises(ValueError):
            char_vocabulary([])
        with pytest.raises(ValueError):
            char_vocabulary(iter(["", ""]))

    @staticmethod
    def per_character_oracle(texts):
        """The tokens and log-probs char_vocabulary gives, counted one
        character at a time."""
        counts = Counter(ch for text in texts for ch in text)
        total = sum(counts.values())
        chars = sorted(counts)
        log_probs = [0.0, 0.0] + [math.log(counts[c] / total) for c in chars]
        return ["<eos>", "<unk>"] + chars, log_probs

    @given(st.lists(st.text(max_size=12), max_size=6).filter(lambda ts: any(ts)))
    @example(["aab", "", "ąčę\n\t "])
    def test_matches_per_character_counts(self, texts):
        tokens, log_probs = self.per_character_oracle(texts)
        for sample in (texts, iter(texts), (text for text in texts)):
            vocab = char_vocabulary(sample)
            assert vocab.tokens == tuple(tokens)
            # bit for bit, not approximately
            assert vocab.log_probs.tolist() == log_probs
            assert (vocab.eos_id, vocab.unk_id) == (0, 1)
