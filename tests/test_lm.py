import copy
import json
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from santrauka import lm
from santrauka.corpus import FilterConfig
from santrauka.decode import DecodeConfig, batch_decode
from santrauka.fixtures import greedy_trap_model
from santrauka.lm import (
    BEGIN,
    LanguageModel,
    NGramModel,
    TableModel,
    UnseenContextError,
    apply_temperature,
    negative_log_likelihood,
    softmax,
    train_ngram,
)
from santrauka.tokenizer import (
    TokenSequence,
    Vocabulary,
    _CharCorpus,
    char_vocabulary,
    token_ids,
    viterbi_segment,
)


def ab_vocab():
    return Vocabulary(["a", "b", "<eos>"], [-1.0, -1.0, 0.0], eos="<eos>")


#: 1,000 ids: at order 7 a window code, in base V + 1, passes int64.
BIG_VOCAB = Vocabulary([f"t{i}" for i in range(999)] + ["<eos>"], [-1.0] * 1000, eos="<eos>")


def ab_model(order=2, alpha=0.0):
    vocab = ab_vocab()
    stream = TokenSequence((0, 1, 0, 1), vocab)  # a b a b
    return train_ngram([stream], order, alpha)


def loop_counts(streams, order, vocab):
    """n-gram counts by the per-token loop train_ngram once ran: the oracle
    for its numpy window counts."""
    counts = {}
    for stream in streams:
        context = (BEGIN,) * (order - 1)
        for tok in token_ids(stream) + (vocab.eos_id,):
            bucket = counts.setdefault(context, {})
            bucket[tok] = bucket.get(tok, 0) + 1
            if order > 1:
                context = context[1:] + (tok,)
    return counts


@st.composite
def _vocab_streams(draw):
    """A vocabulary and a few short id streams over it, some empty; on the
    large vocabulary, ids mostly from a small set so windows repeat."""
    vocab = draw(st.sampled_from([ab_vocab(), BIG_VOCAB]))
    ids = st.integers(0, 2) | st.integers(0, len(vocab) - 1)
    return vocab, draw(st.lists(st.lists(ids, max_size=9), min_size=1, max_size=5))


#: Texts of a few characters: empty ones, astral characters, NUL and lone
#: surrogates among them.
_CHAR_TEXTS = st.text(
    st.sampled_from("ab ą\x00\ud800\udfff\U0001F600\U0010FFFF") | st.characters(),
    max_size=12,
)


def entropy(dist):
    positive = dist[dist > 0]
    return float(-(positive * np.log(positive)).sum())


_NAN = float("nan")


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Vocabulary(["a", "<eos>"], [_NAN, 0.0], eos="<eos>"),
                 "log probabilities", id="vocab"),
    pytest.param(lambda: Vocabulary.from_dict({"tokens": ["a", "<eos>"],
                                               "log_probs": [_NAN, 0.0],
                                               "specials": {"eos": "<eos>"}}),
                 "log probabilities", id="vocab-payload"),
    pytest.param(lambda: train_ngram([[0]], 2, _NAN, ab_vocab()), "alpha", id="train-alpha"),
    pytest.param(lambda: NGramModel(ab_vocab(), 2, _NAN, {}), "alpha", id="model-alpha"),
    # an infinite alpha makes every row NaN too
    pytest.param(lambda: train_ngram([[0]], 2, math.inf, ab_vocab()), "alpha",
                 id="train-alpha-inf"),
    pytest.param(lambda: FilterConfig(min_body_to_summary_ratio=_NAN),
                 "min_body_to_summary_ratio", id="filter-ratio"),
    pytest.param(lambda: FilterConfig(min_body_chars=_NAN), "min_body_chars",
                 id="filter-length"),
    pytest.param(lambda: DecodeConfig(temperature=_NAN), "temperature", id="decode-temperature"),
    pytest.param(lambda: apply_temperature([0.0, 1.0], _NAN), "temperature",
                 id="apply-temperature"),
])
def test_nan_fails_range_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestTrainNgram:
    def test_hand_counts_bigram(self):
        model = ab_model()
        counts = model.counts
        assert counts[(0,)] == {1: 2}          # a -> b twice
        assert counts[(1,)] == {0: 1, 2: 1}    # b -> a once, b -> eos once
        assert counts[(BEGIN,)] == {0: 1}      # start -> a

    def test_single_token_sequence_padding(self):
        vocab = ab_vocab()
        model = train_ngram([TokenSequence((0,), vocab)], 2, 0.0)
        assert model.counts[(BEGIN,)] == {0: 1}
        assert model.counts[(0,)] == {2: 1}

    def test_unigram_is_context_free(self):
        model = ab_model(order=1)
        assert model.counts == {(): {0: 2, 1: 2, 2: 1}}

    def test_empty_corpus_fails(self):
        with pytest.raises(ValueError, match="empty"):
            train_ngram([], 2, 1.0)

    def test_plain_id_streams_need_a_vocab(self):
        with pytest.raises(ValueError, match="vocab"):
            train_ngram([[0, 1]], 2, 1.0)
        model = train_ngram([[0, 1]], 2, 1.0, vocab=ab_vocab())
        assert model.counts[(0,)] == {1: 1}

    def test_mixed_vocabularies_rejected(self):
        one = ab_vocab()
        two = Vocabulary(["x", "y", "<eos>"], [-1.0, -1.0, 0.0], eos="<eos>")
        with pytest.raises(ValueError, match="vocabular"):
            train_ngram([TokenSequence((0,), one), TokenSequence((1,), two)], 2, 1.0)

    def test_equal_content_vocabularies_mix(self):
        one, two = ab_vocab(), ab_vocab()
        model = train_ngram(
            [TokenSequence((0,), one), TokenSequence((1,), two)], 2, 1.0
        )
        assert model.counts[(BEGIN,)] == {0: 1, 1: 1}

    @settings(max_examples=300, deadline=None)
    @given(order=st.integers(1, 7), wrap=st.booleans(),
           chunk=st.sampled_from([1, 2, 3, 4, 5, None]), case=_vocab_streams())
    @example(order=3, wrap=False, chunk=None, case=(ab_vocab(), [[], [0], []]))
    @example(order=7, wrap=True, chunk=2,
             case=(BIG_VOCAB, [[998, 0, 998], [], [5] * 9, [998, 0, 998]]))
    # two windows whose codes agree modulo 2**64, so int64 arithmetic alone
    # would merge them
    @example(order=7, wrap=False, chunk=None,
             case=(BIG_VOCAB, [[0, 0, 0, 214, 0, 0, 0], [73, 346, 146, 0, 47, 2, 64]]))
    def test_counts_match_the_per_token_loop(self, order, wrap, chunk, case):
        """The counts equal the loop's in insertion order too, contexts and
        tokens alike, wherever the chunks end: inside a stream or between
        two. On the 1,000-id vocabulary an order of 7 ranks the partial
        codes, whose next digit would overflow int64."""
        vocab, streams = case
        with mock.patch.object(lm, "_CHUNK", chunk or lm._CHUNK):
            if wrap:
                model = train_ngram([TokenSequence(tuple(s), vocab) for s in streams], order, 1.0)
            else:
                model = train_ngram(iter(streams), order, 1.0, vocab=vocab)
        as_lists = lambda counts: [(ctx, list(b.items())) for ctx, b in counts.items()]
        assert as_lists(model.counts) == as_lists(loop_counts(streams, order, vocab))

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(_CHAR_TEXTS, min_size=1, max_size=6), order=st.integers(1, 5),
           chunk=st.sampled_from([1, 2, 3, 4, 5, None]))
    @example(texts=["", "a", ""], order=3, chunk=None)
    @example(texts=["ab" * 2100, "", "\ud800\U0001F600\x00", "ą" * 4097], order=5, chunk=None)
    def test_char_texts_train_their_segmented_model(self, texts, order, chunk):
        """Texts counted as arrays with their own character vocabulary give
        the model of their segmented streams: the vocabulary, the counts in
        insertion order, contexts and tokens alike, and the payload, with
        groups that end between texts and texts longer than a group."""
        assume(any(texts))
        vocab = char_vocabulary(texts)
        oracle = train_ngram([viterbi_segment(t, vocab) for t in texts], order, 1.0, vocab)
        with mock.patch.object(lm, "_CHUNK", chunk or lm._CHUNK):
            model = train_ngram(_CharCorpus(texts), order, 1.0)
        assert model.vocab == vocab
        as_lists = lambda counts: [(ctx, list(b.items())) for ctx, b in counts.items()]
        assert as_lists(model.counts) == as_lists(oracle.counts)

        def payload(model):
            try:
                return model.to_dict()
            except UnicodeEncodeError as err:  # a lone surrogate has no UTF-8 hash
                return repr(err)

        assert payload(model) == payload(oracle)

    @pytest.mark.parametrize("texts", [[], [""], ["", ""]])
    def test_char_texts_without_a_character_fail_as_their_vocabulary(self, texts):
        with pytest.raises(ValueError, match="^cannot build a vocabulary from empty text$"):
            train_ngram(_CharCorpus(texts), 3, 1.0)

    def test_char_texts_take_no_other_vocabulary(self):
        corpus = _CharCorpus(["ab"])
        assert train_ngram(corpus, 2, 1.0, char_vocabulary(["ba"])).vocab == corpus.vocab
        with pytest.raises(ValueError, match="vocabular"):
            train_ngram(corpus, 2, 1.0, ab_vocab())

    @pytest.mark.parametrize("bad", [3, -1, -5, 2**70])  # V = 3
    def test_an_id_outside_the_vocabulary_is_named(self, bad):
        # -1 is BEGIN's value, and each would code like some valid window
        with pytest.raises(ValueError, match=rf"^token id {bad} outside \[0, 3\)$"):
            train_ngram([[0, 1], [1, bad, 7], [0]], 3, 1.0, ab_vocab())

    def test_a_float_id_raises_rather_than_truncating(self):
        with pytest.raises(TypeError):
            train_ngram([[0, 1.0]], 2, 1.0, ab_vocab())

    def test_memory_stays_bounded_on_a_generator(self):
        """Ten times the ids need at most twice the peak: the ids are
        counted chunk by chunk, never held all at once."""
        def peak(n_ids):
            streams = ([(i + j) % 3 for j in range(100)] for i in range(n_ids // 100))
            tracemalloc.start()
            try:
                train_ngram(streams, 3, 1.0, ab_vocab())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1_000_000) <= 2 * peak(100_000)

    def test_char_texts_are_counted_group_by_group(self):
        """Ten times the characters need at most twice the peak: texts are
        laid out and counted a group at a time, never all at once."""
        def peak(n_texts):
            corpus = _CharCorpus("abc"[i % 3:] * 33 for i in range(n_texts))
            tracemalloc.start()
            try:
                train_ngram(corpus, 3, 1.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10_000) <= 2 * peak(1_000)


class TestNextDistribution:
    def test_unsmoothed_hand_count(self):
        model = ab_model(alpha=0.0)
        dist = model.next_distribution((0,))
        assert dist[1] == 1.0
        assert dist[0] == 0.0 and dist[2] == 0.0

    def test_additive_smoothing_hand_count(self):
        # context a saw b twice; V=3, alpha=1: (2+1)/(2+3)
        model = ab_model(alpha=1.0)
        dist = model.next_distribution((0,))
        assert dist[1] == pytest.approx(0.6)
        assert dist[0] == pytest.approx(0.2)
        assert dist[2] == pytest.approx(0.2)

    def test_unseen_context_uniform_when_smoothed(self):
        model = ab_model(alpha=1.0)
        dist = model.next_distribution((2,))  # eos never occurs mid-sequence
        np.testing.assert_allclose(dist, 1 / 3)

    def test_unseen_context_errors_without_smoothing(self):
        model = ab_model(alpha=0.0)
        with pytest.raises(UnseenContextError):
            model.next_distribution((2,))

    def test_uses_only_last_context_tokens(self):
        model = ab_model(alpha=0.0)
        short = model.next_distribution((0,))
        long = model.next_distribution((1, 0, 1, 0))
        np.testing.assert_array_equal(short, long)

    def test_sums_to_one_for_random_models(self):
        rng = np.random.default_rng(8)
        vocab = ab_vocab()
        for _ in range(50):
            order = int(rng.integers(1, 4))
            alpha = float(rng.choice([0.0, 0.1, 1.0]))
            streams = [
                TokenSequence(tuple(rng.integers(0, 2, size=rng.integers(1, 8))), vocab)
                for _ in range(rng.integers(1, 5))
            ]
            model = train_ngram(streams, order, alpha)
            for ctx in list(model.counts)[:10]:
                prefix = tuple(t for t in ctx if t != BEGIN)
                dist = model.next_distribution(prefix)
                assert abs(dist.sum() - 1.0) < 1e-9
                assert (dist >= 0).all()
                if alpha > 0:
                    assert (dist > 0).all()

    def test_logits_match_distribution(self):
        model = ab_model(alpha=0.0)
        logits = model.next_logits((0,))
        assert logits[1] == 0.0
        assert np.isneginf(logits[0])

    @pytest.mark.parametrize("read", ["next_logits", "next_distribution"])
    @pytest.mark.parametrize("prefix", [[1.7], (0, 1.0), np.array([0.5])])
    def test_a_float_id_raises_rather_than_truncating(self, read, prefix):
        model = ab_model(alpha=1.0)
        with pytest.raises(TypeError):
            getattr(model, read)(prefix)

    @pytest.mark.parametrize("read", ["next_logits", "next_distribution"])
    @pytest.mark.parametrize("prefix, first", [
        ([99], 99),
        ([-7], -7),
        ((0, 3), 3),       # V = 3
        ([BEGIN], BEGIN),  # the model's own padding is no prefix id
        ((5, -2), 5),      # order 3 reads both ids; the first is named
    ])
    def test_an_id_outside_the_vocabulary_is_named(self, read, prefix, first):
        model = ab_model(order=3, alpha=1.0)
        with pytest.raises(ValueError, match=rf"prefix id {first} outside \[0, 3\)"):
            getattr(model, read)(prefix)

    def test_only_the_ids_read_are_checked(self):
        # an order-2 model reads the last id alone, as its context width says
        model = ab_model(order=2, alpha=1.0)
        np.testing.assert_array_equal(
            model.next_distribution((99, 0)), model.next_distribution((0,))
        )

    def test_numpy_integer_ids_are_accepted(self):
        model = ab_model(order=3, alpha=1.0)
        expected = model.next_logits((0, 1))
        for prefix in ([np.int64(0), np.int32(1)], np.array([0, 1]), np.array([0, 1], np.uint8)):
            np.testing.assert_array_equal(model.next_logits(prefix), expected)


def memo_model(order, alpha):
    vocab = Vocabulary(["a", "b", "c", "<eos>"], [-1.0] * 4, eos="<eos>")
    streams = [TokenSequence(ids, vocab) for ids in [(0, 1, 0, 1), (1, 1, 2), (2,)]]
    return train_ngram(streams, order, alpha)


def table_model(weights):
    """A :class:`TableModel` over ``ab_vocab``: the first row of weights is
    the start row, the others follow ids 0, 1 and 2."""
    rows = [np.asarray(w, dtype=float) for w in weights]
    start, *transitions = [row / row.sum() for row in rows]
    return TableModel(ab_vocab(), start, dict(enumerate(transitions)))


class TestLogRowMemo:
    """``NGramModel.next_logits`` computes each log row from the counts on
    every call and keeps nothing; the decoder's records are the only cache."""

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.integers(1, 4),
        alpha=st.sampled_from([0.05, 1.0]),
        prefixes=st.lists(st.lists(st.integers(0, 3), max_size=5), min_size=1, max_size=12),
    )
    def test_warm_rows_equal_the_log_of_the_distribution(self, order, alpha, prefixes):
        model = memo_model(order, alpha)
        prefixes = [tuple(p) for p in prefixes]
        cold = model.next_logits_batch(prefixes)
        warm = model.next_logits_batch(prefixes)
        assert cold.tobytes() == warm.tobytes()
        for row, prefix in zip(warm, prefixes):
            with np.errstate(divide="ignore"):
                expected = np.log(model.next_distribution(prefix))
            assert row.tobytes() == expected.tobytes()
            assert model.next_logits(prefix).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("prefix", [
        (0, 1),      # seen
        (3, 3),      # unseen: eos never occurs mid-sequence
        (),          # padded with BEGIN only
        (2,),        # padded with one BEGIN
    ], ids=["seen", "unseen", "begin", "begin-padded"])
    def test_seen_unseen_and_begin_padded_rows(self, prefix):
        model = memo_model(3, 0.5)
        for _ in range(2):
            with np.errstate(divide="ignore"):
                expected = np.log(model.next_distribution(prefix))
            assert model.next_logits(prefix).tobytes() == expected.tobytes()

    def test_returned_rows_are_fresh_and_writable(self):
        model = memo_model(2, 1.0)
        first = model.next_logits((0,))
        first[:] = 0.0
        batch = model.next_logits_batch([(0,), (0,)])
        batch[:] = 0.0
        assert (model.next_logits((0,)) < 0).all()

    def test_unseen_context_without_smoothing_raises_every_call(self):
        model = ab_model(alpha=0.0)
        model.next_logits((0,))
        for _ in range(3):
            with pytest.raises(UnseenContextError, match=r"context \(2,\) never observed"):
                model.next_logits_batch([(0,), (2,)])
            with pytest.raises(UnseenContextError):
                model.next_logits((2,))

    def test_parallel_decodes_on_a_warm_model_match_serial(self):
        model = memo_model(3, 0.5)
        prompts = [(0,), (1, 2), (), (2, 2, 0)] * 2
        config = DecodeConfig(method="beam", beam_size=3, max_length=6,
                              no_repeat_ngram_size=2)
        cold = batch_decode(model, prompts, config, workers=1)
        assert model in sys.modules["santrauka.decode"]._MEMO
        serial = batch_decode(model, prompts, config, workers=1)
        parallel = batch_decode(model, prompts, config, workers=2)
        assert cold == serial == parallel

    def test_decodes_leave_the_model_unchanged(self):
        model = memo_model(3, 0.5)

        def state():
            return {name: len(value) if isinstance(value, dict) else id(value)
                    for name, value in vars(model).items()}

        before = state()
        prompts = [(0,), (1, 2), (), (2, 2, 0)]
        for config in [
            DecodeConfig(method="greedy", max_length=6),
            DecodeConfig(method="beam", beam_size=3, max_length=6, no_repeat_ngram_size=2),
            DecodeConfig(method="sample", max_length=6, top_k=2, seed=3),
        ]:
            batch_decode(model, prompts, config, workers=1)
            assert state() == before


class OnlyLogits(LanguageModel):
    """A model that defines only what it must, ``vocab`` and ``next_logits``,
    so it declares no context width."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def vocab(self):
        return self.inner.vocab

    def next_logits(self, prefix):
        return self.inner.next_logits(prefix)


@pytest.mark.parametrize("make", [
    greedy_trap_model,
    lambda: memo_model(3, 0.5),
    lambda: OnlyLogits(memo_model(2, 1.0)),
], ids=["table", "ngram", "only-logits"])
def test_an_empty_batch_is_a_0_by_v_matrix(make):
    model = make()
    batch = model.next_logits_batch([])
    assert batch.shape == (0, len(model.vocab))
    assert batch.dtype == float


@st.composite
def _models_and_batches(draw):
    """A trained model (V 3-35, orders 1-5, alpha 0 among the strengths) and
    a batch of its prefixes: counted contexts with their BEGIN pads dropped
    (so short ones are padded again), random ids (mostly unseen contexts),
    repeats, and the empty batch."""
    size = draw(st.integers(3, 35))
    vocab = Vocabulary([f"t{i}" for i in range(size - 1)] + ["<eos>"], [-1.0] * size,
                       eos="<eos>")
    ids = st.integers(0, size - 1)
    streams = draw(st.lists(st.lists(ids, max_size=12), min_size=1, max_size=6))
    model = train_ngram(streams, draw(st.integers(1, 5)), draw(st.sampled_from(
        [0.0, 0.01, 0.5, 1.0, 3.0])), vocab)
    counted = [tuple(x for x in ctx if x != BEGIN) for ctx in model.counts]
    prefixes = draw(st.lists(st.sampled_from(counted) | st.lists(ids, max_size=6).map(tuple),
                             max_size=10))
    repeats = draw(st.lists(st.sampled_from(prefixes), max_size=3)) if prefixes else []
    return model, prefixes + repeats


def _stacked_logs(model, prefixes):
    """The oracle: ``np.log`` of each prefix's ``next_distribution``, stacked."""
    with np.errstate(divide="ignore"):
        rows = [np.log(model.next_distribution(p)) for p in prefixes]
    return np.array(rows).reshape(len(prefixes), len(model.vocab))


class TestBatchedRows:
    """``NGramModel.next_logits_batch`` fills every row into one array and
    logs it once; ``next_logits`` is its batch of one."""

    @settings(max_examples=300, deadline=None)
    @given(_models_and_batches())
    def test_rows_equal_the_stacked_logs_of_the_distributions(self, drawn):
        model, prefixes = drawn
        try:
            expected = _stacked_logs(model, prefixes)
        except UnseenContextError as err:
            # alpha 0: the row-by-row oracle stops at the first unseen context
            with pytest.raises(UnseenContextError) as caught:
                model.next_logits_batch(prefixes)
            assert str(caught.value) == str(err)
            return
        batch = model.next_logits_batch(prefixes)
        assert batch.shape == (len(prefixes), len(model.vocab)) and batch.dtype == float
        assert batch.tobytes() == expected.tobytes()
        for row, prefix in zip(batch, prefixes):
            assert model.next_logits(prefix).tobytes() == row.tobytes()

    def test_the_first_unseen_context_is_named(self):
        model = memo_model(3, 0.0)
        # (2, 2) and (0, 0) are unseen, (0, 1) was counted
        for prefixes, named in ([[(0, 1), (2, 2), (0, 0)], r"\(2, 2\)"],
                                [[(0, 0), (2, 2)], r"\(0, 0\)"]):
            with pytest.raises(UnseenContextError, match=named + " never observed"):
                model.next_logits_batch(prefixes)

    def test_a_bad_id_after_an_unseen_context_is_not_reached(self):
        model = memo_model(2, 0.0)
        with pytest.raises(UnseenContextError):
            model.next_logits_batch([(3,), (9,)])
        with pytest.raises(ValueError, match=r"prefix id 9 outside \[0, 4\)"):
            model.next_logits_batch([(0,), (9,), (3,)])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_hand_computation(self):
        np.testing.assert_allclose(softmax([0.0, math.log(3)]), [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            y = rng.normal(size=rng.integers(2, 10))
            c = float(rng.uniform(-10, 10))
            np.testing.assert_allclose(softmax(y + c), softmax(y), atol=1e-12)
            assert np.argmax(softmax(y + c)) == np.argmax(softmax(y))

    def test_neg_inf_is_a_hard_ban(self):
        dist = softmax([0.0, -np.inf, 0.0])
        assert dist[1] == 0.0
        np.testing.assert_allclose(dist, [0.5, 0.0, 0.5])

    def test_empty_vector_fails(self):
        with pytest.raises(ValueError, match="empty logit vector"):
            softmax([])

    def test_all_neg_inf_fails(self):
        with pytest.raises(ValueError):
            softmax([-np.inf, -np.inf])

    def test_rejects_nan_and_pos_inf(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])


class TestTemperature:
    def test_tau_one_is_plain_softmax(self):
        y = np.array([0.3, -1.2, 2.0])
        np.testing.assert_array_equal(apply_temperature(y, 1.0), softmax(y))

    def test_hand_computation(self):
        # softmax([2, 4]) = [1/(1+e^2), e^2/(1+e^2)]
        dist = apply_temperature([1.0, 2.0], 0.5)
        np.testing.assert_allclose(dist, [0.1192029, 0.8807971], atol=1e-6)

    def test_flattening_limit(self):
        dist = apply_temperature([1.0, 2.0], 100.0)
        assert abs(dist[0] - 0.5) < 0.01
        assert abs(dist[1] - 0.5) < 0.01

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            apply_temperature([1.0], 0.0)
        with pytest.raises(ValueError):
            apply_temperature([1.0], -1.0)

    def test_entropy_monotone_in_tau(self):
        rng = np.random.default_rng(14)
        taus = np.logspace(-1, 1, 15)
        for _ in range(100):
            y = rng.normal(scale=2.0, size=rng.integers(2, 12))
            series = [entropy(apply_temperature(y, tau)) for tau in taus]
            assert all(b - a >= -1e-12 for a, b in zip(series, series[1:]))

    def test_argmax_invariant_under_tau(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            y = rng.normal(size=8)
            reference = int(np.argmax(softmax(y)))
            for tau in (0.1, 0.5, 2.0, 10.0):
                assert int(np.argmax(apply_temperature(y, tau))) == reference


class TestNegativeLogLikelihood:
    def test_deterministic_model_scores_zero(self):
        vocab = ab_vocab()
        model = TableModel(
            vocab,
            start=[1.0, 0.0, 0.0],
            transitions={0: [0.0, 1.0, 0.0], 1: [0.0, 0.0, 1.0]},
        )
        assert negative_log_likelihood(model, [(0, 1)]) == 0.0

    def test_uniform_model_analytic_value(self):
        vocab = Vocabulary(["a", "b", "c", "<eos>"], [-1.0] * 4, eos="<eos>")
        model = TableModel(
            vocab,
            start=[0.25] * 4,
            transitions={i: [0.25] * 4 for i in range(4)},
        )
        # two tokens plus the terminal eos: three uniform events
        nll = negative_log_likelihood(model, [(0, 1)])
        assert nll == pytest.approx(3 * math.log(4), abs=1e-9)

    def test_hand_count_oracle(self):
        model = ab_model(alpha=0.0)
        # P(a|begin)=1, P(b|a)=1, P(eos|b)=1/2
        nll = negative_log_likelihood(model, [(0, 1)])
        assert nll == pytest.approx(-math.log(1.0) - math.log(1.0) - math.log(0.5))

    def test_additive_over_concatenation(self):
        model = ab_model(alpha=1.0)
        first, second = [(0, 1)], [(1, 0, 0)]
        together = negative_log_likelihood(model, first + second)
        split = negative_log_likelihood(model, first) + negative_log_likelihood(
            model, second
        )
        assert together == pytest.approx(split, abs=1e-9)

    def test_zero_probability_event_names_position(self):
        model = ab_model(alpha=0.0)
        with pytest.raises(ValueError, match="sequence 0, position 1"):
            negative_log_likelihood(model, [(0, 0)])  # a -> a never happens

    @settings(max_examples=100, deadline=None)
    @given(
        model=st.one_of(
            st.builds(memo_model, st.integers(1, 4), st.sampled_from([0.05, 1.0])),
            st.builds(table_model, st.lists(st.lists(st.integers(1, 3), min_size=3, max_size=3),
                                            min_size=4, max_size=4)),
        ),
        widthless=st.booleans(),
        dataset=st.lists(st.lists(st.integers(0, 2), max_size=8), max_size=3),
    )
    def test_equals_the_whole_prefix_sum(self, model, widthless, dataset):
        if widthless:
            model = OnlyLogits(model)
        expected = 0.0
        for seq in dataset:
            ids = tuple(seq) + (model.vocab.eos_id,)
            for i, tok in enumerate(ids):
                expected -= math.log(float(model.next_distribution(ids[:i])[tok]))
        assert negative_log_likelihood(model, dataset) == expected

    def test_smoothed_model_is_always_finite(self):
        rng = np.random.default_rng(77)
        model = ab_model(alpha=0.5)
        for _ in range(50):
            seq = tuple(rng.integers(0, 2, size=rng.integers(0, 6)))
            assert math.isfinite(negative_log_likelihood(model, [seq]))


def context_tail(prefix, width):
    """The last ``width`` ids of ``prefix``: all of it when shorter."""
    return prefix[max(len(prefix) - width, 0):]


class TestContextWidth:
    """``next_logits`` reads no more of the prefix than ``context_width``."""

    @settings(max_examples=100, deadline=None)
    @given(
        order=st.integers(1, 4),
        alpha=st.sampled_from([0.0, 0.05, 1.0]),
        prefix=st.lists(st.integers(0, 3), max_size=6),
    )
    def test_ngram_logits_read_the_last_order_minus_one_ids(self, order, alpha, prefix):
        model = memo_model(order, alpha)
        assert model.context_width == order - 1
        prefix = tuple(prefix)
        tail = context_tail(prefix, model.context_width)
        try:
            expected = model.next_logits(prefix)
        except UnseenContextError:
            with pytest.raises(UnseenContextError):
                model.next_logits(tail)
        else:
            assert model.next_logits(tail).tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                         min_size=4, max_size=4),
        prefix=st.lists(st.integers(0, 2), max_size=6),
    )
    def test_table_logits_read_the_last_id(self, weights, prefix):
        model = table_model([np.array(w, dtype=float) + [1.0, 0.0, 0.0] for w in weights])
        assert model.context_width == 1
        prefix = tuple(prefix)
        tail = context_tail(prefix, model.context_width)
        assert model.next_logits(tail).tobytes() == model.next_logits(prefix).tobytes()


class TestTableModel:
    def test_rejects_bad_rows(self):
        vocab = ab_vocab()
        with pytest.raises(ValueError):
            TableModel(vocab, start=[0.5, 0.5])  # wrong length
        with pytest.raises(ValueError):
            TableModel(vocab, start=[0.7, 0.7, -0.4])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rows(self, bad):
        # NaN passes both a "< 0" test and a "sum far from 1" test
        vocab = ab_vocab()
        with pytest.raises(ValueError, match="^rows must be probability distributions$"):
            TableModel(vocab, start=[bad, 0.5, 0.5])
        with pytest.raises(ValueError, match="^rows must be probability distributions$"):
            TableModel(vocab, start=[0.5, 0.5, 0.0], transitions={0: [0.5, 0.5, bad]})

    def test_missing_transition_is_loud(self):
        vocab = ab_vocab()
        model = TableModel(vocab, start=[0.5, 0.5, 0.0])
        with pytest.raises(KeyError):
            model.next_distribution((0,))
        with pytest.raises(KeyError):
            model.next_logits((0,))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = ab_model(alpha=0.5)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = NGramModel.load(path)
        assert loaded.order == model.order
        assert loaded.alpha == model.alpha
        assert loaded.counts == model.counts
        for ctx in ((), (0,), (1,)):
            np.testing.assert_array_equal(
                loaded.next_distribution(ctx), model.next_distribution(ctx)
            )

    def test_vocab_hash_validated(self, tmp_path):
        model = ab_model(alpha=0.5)
        path = tmp_path / "model.json"
        model.save(path)
        other = Vocabulary(["a", "b", "<eos>"], [-2.0, -1.0, 0.0], eos="<eos>")
        with pytest.raises(ValueError, match="hash"):
            NGramModel.load(path, vocab=other)

    def test_format_version_checked(self, tmp_path):
        model = ab_model()
        payload = model.to_dict()
        payload["format_version"] = 99
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            NGramModel.load(path)


def tampered_model_file(tmp_path, tamper):
    """ab_model's JSON file after ``tamper(counts)`` edits its counts."""
    payload = ab_model(alpha=0.5).to_dict()
    tamper(payload["counts"])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


#: (edit of the counts, the message it must raise); vocabulary size 3, order 2
TAMPERED_COUNTS = [
    # a count under -1 would otherwise land on eos through negative indexing
    (lambda c: c["0"].update({"-1": 40}), r"context \(0,\): token ids must lie in \[0, 3\)"),
    (lambda c: c["0"].update({"99": 1}), r"context \(0,\): token ids must lie in \[0, 3\)"),
    (lambda c: c.update({"7": {"0": 1}}), r"context \(7,\): ids must be BEGIN or in \[0, 3\)"),
    (lambda c: c.update({"0 1": {"0": 1}}), r"context \(0, 1\): width 2, expected"),
    (lambda c: c.update({"": {"0": 1}}), r"context \(\): width 0, expected"),
    (lambda c: c["1"].update({"0": -2}), r"context \(1,\): negative count"),
]


#: Any value ``json.loads`` can return, NaN and the infinities included.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

_PAYLOAD = ab_model(alpha=0.5).to_dict()

#: Each top-level key of a model payload, and of its vocabulary payload.
_PAYLOAD_KEYS = [(key,) for key in _PAYLOAD] + [("vocab", key) for key in _PAYLOAD["vocab"]]


class TestModelValidation:
    @pytest.mark.parametrize(
        "tamper, message",
        TAMPERED_COUNTS,
        ids=["token-minus-1", "token-99", "context-id-7", "too-wide", "too-narrow", "negative"],
    )
    def test_load_rejects_tampered_counts(self, tmp_path, tamper, message):
        path = tampered_model_file(tmp_path, tamper)
        with pytest.raises(ValueError, match=message):
            NGramModel.load(path)

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(_PAYLOAD_KEYS), value=_json_values)
    @example(path=("order",), value="3")
    @example(path=("alpha",), value=10**400)
    @example(path=("counts",), value={"0": [1]})
    @example(path=("vocab", "log_probs"), value=[-(10**400), 0.0, 0.0])
    @example(path=("vocab", "specials"), value={"eos": {}})
    def test_from_dict_raises_only_value_or_key_errors(self, path, value):
        payload = copy.deepcopy(_PAYLOAD)
        parent = payload["vocab"] if len(path) == 2 else payload
        parent[path[-1]] = value
        try:
            NGramModel.from_dict(payload)
        except (ValueError, KeyError):
            pass

    def test_constructor_rejects_out_of_range_ids(self):
        vocab = ab_vocab()
        with pytest.raises(ValueError, match="token ids"):
            NGramModel(vocab, 1, 1.0, {(): {2**70: 1}})
        with pytest.raises(ValueError, match="BEGIN"):
            NGramModel(vocab, 2, 1.0, {(-2,): {0: 1}})
        # 1.5 used to count as token id 1, and to make a context no prefix reaches
        with pytest.raises(ValueError, match="token ids must be integers"):
            NGramModel(vocab, 1, 1.0, {(): {1.5: 1}})
        with pytest.raises(ValueError, match="BEGIN"):
            NGramModel(vocab, 2, 1.0, {(1.5,): {0: 1}})

    #: context ids and token ids, bad ones among them, for vocabulary size 3
    _IDS = st.sampled_from([0, 1, 2, BEGIN, 3, -2, 2**70, 1.5, "x", np.int64(2)])

    @settings(max_examples=300, deadline=None)
    @given(order=st.integers(1, 3), contexts=st.lists(st.lists(_IDS, max_size=3).map(tuple),
                                                      max_size=4),
           buckets=st.lists(st.dictionaries(_IDS, st.integers(-1, 4) | _IDS, max_size=3),
                            min_size=4, max_size=4))
    @example(order=2, contexts=[(0,), (1,)], buckets=[{0: 1}, {9: 1, 0: -1}, {}, {}])
    @example(order=2, contexts=[(BEGIN,), (0,)], buckets=[{0: 3, 1: 1}, {2: 2, 1: 0, 0: 4}, {}, {}])
    # a token id of 1.5 used to be taken as id 1 by both checks
    @example(order=1, contexts=[()], buckets=[{1.5: 0}, {}, {}, {}])
    def test_one_pass_check_refuses_as_bucket_by_bucket(self, order, contexts, buckets):
        """The constructor refuses counts with the first fault of the buckets
        checked one by one, in order, and accepts them when none has one."""
        counts = dict(zip(contexts, buckets))
        try:
            for ctx, bucket in counts.items():
                lm._check_bucket(ctx, bucket, order, 3)
        except Exception as err:  # noqa: BLE001 - any fault, compared below
            with pytest.raises(type(err)) as raised:
                NGramModel(ab_vocab(), order, 1.0, counts)
            assert str(raised.value) == str(err)
        else:
            model = NGramModel(ab_vocab(), order, 1.0, counts)
            assert model.counts == counts
            # each bucket's arrays as converting that bucket alone makes them
            for ctx, bucket in counts.items():
                tokens, values = model._rows[ctx]
                assert tokens.tolist() == np.fromiter(bucket, np.intp, len(bucket)).tolist()
                assert values.tobytes() == np.fromiter(bucket.values(), float, len(bucket)).tobytes()
                row = np.ones(3)
                for token, value in bucket.items():
                    row[token] += value
                assert model._probs(ctx).tolist() == pytest.approx((row / row.sum()).tolist())

    def test_a_bucket_that_is_no_mapping_is_refused(self):
        with pytest.raises(AttributeError):
            NGramModel(ab_vocab(), 2, 1.0, {(0,): {1: 1}, (1,): []})
