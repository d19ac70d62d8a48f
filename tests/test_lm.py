import json
import math

import numpy as np
import pytest

from santrauka.lm import (
    BEGIN,
    NGramModel,
    TableModel,
    UnseenContextError,
    apply_temperature,
    negative_log_likelihood,
    softmax,
    train_ngram,
)
from santrauka.tokenizer import TokenSequence, Vocabulary


def ab_vocab():
    return Vocabulary(["a", "b", "<eos>"], [-1.0, -1.0, 0.0], eos="<eos>")


def ab_model(order=2, alpha=0.0):
    vocab = ab_vocab()
    stream = TokenSequence((0, 1, 0, 1), vocab)  # a b a b
    return train_ngram([stream], order, alpha)


def entropy(dist):
    positive = dist[dist > 0]
    return float(-(positive * np.log(positive)).sum())


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

    def test_smoothed_model_is_always_finite(self):
        rng = np.random.default_rng(77)
        model = ab_model(alpha=0.5)
        for _ in range(50):
            seq = tuple(rng.integers(0, 2, size=rng.integers(0, 6)))
            assert math.isfinite(negative_log_likelihood(model, [seq]))


class TestTableModel:
    def test_rejects_bad_rows(self):
        vocab = ab_vocab()
        with pytest.raises(ValueError):
            TableModel(vocab, start=[0.5, 0.5])  # wrong length
        with pytest.raises(ValueError):
            TableModel(vocab, start=[0.7, 0.7, -0.4])

    def test_missing_transition_is_loud(self):
        vocab = ab_vocab()
        model = TableModel(vocab, start=[0.5, 0.5, 0.0])
        with pytest.raises(KeyError):
            model.next_distribution((0,))


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

    def test_constructor_rejects_out_of_range_ids(self):
        vocab = ab_vocab()
        with pytest.raises(ValueError, match="token ids"):
            NGramModel(vocab, 1, 1.0, {(): {2**70: 1}})
        with pytest.raises(ValueError, match="BEGIN"):
            NGramModel(vocab, 2, 1.0, {(-2,): {0: 1}})
