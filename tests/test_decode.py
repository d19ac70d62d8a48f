import json
import math
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pools import in_process_pool
from santrauka.cli import main
from santrauka.decode import (
    DecodeConfig,
    batch_decode,
    beam_search,
    block_repeated_ngrams,
    decode,
    greedy_decode,
    sample_decode,
    top_k_filter,
    top_p_filter,
)
from santrauka.fixtures import greedy_trap_model
from santrauka.lm import TableModel, train_ngram
from santrauka.tokenizer import TokenSequence, Vocabulary

SRC = Path(__file__).resolve().parent.parent / "src"


def random_ngram_model(rng, real_tokens=3, order=2, alpha=1.0, sequences=4):
    """A smoothed model trained on random id sequences; always decodable."""
    names = [f"t{i}" for i in range(real_tokens)] + ["<eos>"]
    vocab = Vocabulary(names, [-1.0] * len(names), eos="<eos>")
    streams = [
        TokenSequence(
            tuple(int(t) for t in rng.integers(0, real_tokens, size=rng.integers(1, 8))),
            vocab,
        )
        for _ in range(sequences)
    ]
    return train_ngram(streams, order, alpha)


def enumerate_best(model, max_length):
    """Exhaustive search for the highest raw log-probability sequence.

    Sequences end at eos or at max_length. Returns (ids, score, margin)
    where margin is the gap to the runner-up score.
    """
    eos = model.vocab.eos_id
    size = len(model.vocab)
    scores = []
    stack = [((), 0.0)]
    while stack:
        ids, log_prob = stack.pop()
        if ids and (ids[-1] == eos or len(ids) == max_length):
            scores.append((log_prob, ids))
            continue
        dist = model.next_distribution(ids)
        for token in range(size):
            p = float(dist[token])
            if p > 0.0:
                stack.append((ids + (token,), log_prob + math.log(p)))
    scores.sort(key=lambda pair: (-pair[0], pair[1]))
    best_score, best_ids = scores[0]
    margin = best_score - scores[1][0] if len(scores) > 1 else math.inf
    return best_ids, best_score, margin


class TestDecodeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(method="magic")
        with pytest.raises(ValueError):
            DecodeConfig(beam_size=0)
        with pytest.raises(ValueError):
            DecodeConfig(max_length=0)
        with pytest.raises(ValueError):
            DecodeConfig(temperature=0.0)
        with pytest.raises(ValueError):
            DecodeConfig(top_k=0)
        with pytest.raises(ValueError):
            DecodeConfig(top_p=1.2)
        with pytest.raises(ValueError):
            DecodeConfig(no_repeat_ngram_size=0)

    INTEGER_FIELDS = ("beam_size", "top_k", "no_repeat_ngram_size", "max_length", "seed")

    @pytest.mark.parametrize("name", INTEGER_FIELDS)
    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, "3", np.float64(3.0)])
    def test_integer_fields_refuse_other_types(self, name, value):
        # a float used to fail deep inside a decode, or decode as if valid
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            DecodeConfig(**{name: value})

    @pytest.mark.parametrize("name", INTEGER_FIELDS)
    def test_integer_fields_store_plain_ints(self, name):
        class Index:
            def __index__(self):
                return 3

        for value in (np.int64(3), np.uint8(3), Index()):
            stored = getattr(DecodeConfig(**{name: value}), name)
            assert type(stored) is int and stored == 3

    def test_only_top_k_and_the_ban_size_may_be_none(self):
        config = DecodeConfig(top_k=None, no_repeat_ngram_size=None)
        assert config.top_k is config.no_repeat_ngram_size is None
        for name in ("beam_size", "max_length", "seed"):
            with pytest.raises(TypeError, match=f"^{name} must be an integer"):
                DecodeConfig(**{name: None})

    def test_seed_range_error_keeps_its_wording(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative$"):
            DecodeConfig(seed=-1)


class TestTopKFilter:
    def test_hand_renormalization(self):
        out = top_k_filter(np.array([0.5, 0.3, 0.2]), 2)
        np.testing.assert_allclose(out, [0.625, 0.375, 0.0])

    def test_k_at_least_support_is_exact_identity(self):
        dist = np.array([0.5, 0.3, 0.2])
        np.testing.assert_array_equal(top_k_filter(dist, 3), dist)
        np.testing.assert_array_equal(top_k_filter(dist, 10), dist)

    def test_one_hot_unchanged(self):
        dist = np.array([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(top_k_filter(dist, 1), dist)

    def test_ties_prefer_lower_id(self):
        out = top_k_filter(np.array([0.4, 0.4, 0.2]), 1)
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k_filter(np.array([1.0]), 0)

    def test_sum_and_support(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            raw = rng.random(size=rng.integers(2, 12))
            dist = raw / raw.sum()
            k = int(rng.integers(1, dist.size + 2))
            out = top_k_filter(dist, k)
            assert abs(out.sum() - 1.0) < 1e-9
            assert set(np.flatnonzero(out)) <= set(np.flatnonzero(dist))


class TestTopPFilter:
    def test_p_one_is_exact_identity(self):
        dist = np.array([0.6, 0.4])
        np.testing.assert_array_equal(top_p_filter(dist, 1.0), dist)

    def test_cumulative_cut(self):
        out = top_p_filter(np.array([0.5, 0.3, 0.15, 0.05]), 0.8)
        np.testing.assert_allclose(out, [0.625, 0.375, 0.0, 0.0])

    def test_top_one_guarantee(self):
        out = top_p_filter(np.array([0.9, 0.1]), 0.5)
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            top_p_filter(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            top_p_filter(np.array([1.0]), 1.5)

    def test_sum_and_support(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            raw = rng.random(size=rng.integers(2, 12))
            dist = raw / raw.sum()
            p = float(rng.uniform(0.05, 1.0))
            out = top_p_filter(dist, p)
            assert abs(out.sum() - 1.0) < 1e-9
            assert set(np.flatnonzero(out)) <= set(np.flatnonzero(dist))
            assert np.count_nonzero(out) >= 1


class TestBlockRepeatedNgrams:
    def test_bans_seen_bigram_continuation(self):
        dist = np.full(10, 0.1)
        out = block_repeated_ngrams((5, 7, 9, 5), dist, 2, eos_id=0)
        assert out[7] == 0.0
        assert abs(out.sum() - 1.0) < 1e-9
        # everything else survives with equal mass
        np.testing.assert_allclose(out[[0, 1, 2, 3, 4, 5, 6, 8, 9]], 1 / 9)

    def test_short_history_is_identity(self):
        dist = np.array([0.5, 0.5])
        np.testing.assert_array_equal(block_repeated_ngrams((1,), dist, 2, 0), dist)
        np.testing.assert_array_equal(block_repeated_ngrams((), dist, 3, 0), dist)

    def test_all_banned_forces_eos(self):
        # unigram blocking with every token already used
        dist = np.array([0.5, 0.5])
        out = block_repeated_ngrams((0, 1), dist, 1, eos_id=1)
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            block_repeated_ngrams((0,), np.array([1.0]), 0, 0)


class TestGreedyDecode:
    def test_trap_fixture(self):
        model = greedy_trap_model()
        result = greedy_decode(model, (), DecodeConfig(max_length=8))
        assert result.tokens.ids == (0, 2)
        assert result.text == "A"
        assert result.score == pytest.approx(math.log(0.55) + math.log(0.5), abs=1e-9)
        assert result.steps == 2

    def test_prompt_ending_in_eos(self):
        model = greedy_trap_model()
        result = greedy_decode(model, (2,), DecodeConfig(max_length=8))
        assert result.tokens.ids == ()
        assert result.score == 0.0

    def test_one_hot_chain_is_forced(self):
        vocab = Vocabulary(["a", "b", "<eos>"], [-1.0, -1.0, 0.0], eos="<eos>")
        model = TableModel(
            vocab,
            start=[0.0, 1.0, 0.0],
            transitions={0: [0.0, 0.0, 1.0], 1: [1.0, 0.0, 0.0]},
        )
        result = greedy_decode(model, (), DecodeConfig(max_length=8))
        assert result.tokens.ids == (1, 0, 2)
        assert result.score == pytest.approx(0.0, abs=1e-12)

    def test_halts_at_max_length(self):
        vocab = Vocabulary(["a", "<eos>"], [-1.0, 0.0], eos="<eos>")
        model = TableModel(vocab, start=[1.0, 0.0], transitions={0: [1.0, 0.0]})
        result = greedy_decode(model, (), DecodeConfig(max_length=5))
        assert result.tokens.ids == (0,) * 5


class TestBeamSearch:
    def test_beam_one_bit_identical_to_greedy(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            model = random_ngram_model(
                rng,
                real_tokens=int(rng.integers(2, 5)),
                order=int(rng.integers(1, 4)),
                alpha=float(rng.choice([0.3, 1.0])),
            )
            config = DecodeConfig(method="beam", beam_size=1, max_length=6)
            via_beam = beam_search(model, (), config)
            via_greedy = greedy_decode(model, (), config)
            assert via_beam.tokens.ids == via_greedy.tokens.ids
            assert via_beam.score == via_greedy.score

    def test_trap_fixture_beats_greedy(self):
        model = greedy_trap_model()
        result = beam_search(model, (), DecodeConfig(method="beam", beam_size=2, max_length=8))
        assert result.tokens.ids == (1, 2)
        assert result.score == pytest.approx(math.log(0.45) + math.log(0.9), abs=1e-9)

    def test_wide_beam_finds_global_argmax(self):
        rng = np.random.default_rng(55)
        for real_tokens in (1, 2, 3):
            for max_length in (2, 3, 4):
                model = random_ngram_model(
                    rng, real_tokens=real_tokens, order=2, alpha=0.7
                )
                vocab_size = len(model.vocab)
                config = DecodeConfig(
                    method="beam",
                    beam_size=vocab_size ** (max_length - 1),
                    max_length=max_length,
                )
                result = beam_search(model, (), config)
                best_ids, best_score, margin = enumerate_best(model, max_length)
                assert result.score == pytest.approx(best_score, abs=1e-9)
                if margin > 1e-6:
                    assert result.tokens.ids == best_ids

    def test_return_all_finished(self):
        model = greedy_trap_model()
        result, finished = beam_search(
            model, (), DecodeConfig(method="beam", beam_size=2, max_length=8),
            return_all=True,
        )
        assert finished[0].ids == result.tokens.ids
        assert all(h.finished for h in finished)
        scores = [h.log_prob for h in finished]
        assert scores == sorted(scores, reverse=True)

    def test_prompt_ending_in_eos(self):
        model = greedy_trap_model()
        result = beam_search(model, (2,), DecodeConfig(method="beam", beam_size=3))
        assert result.tokens.ids == ()
        assert result.score == 0.0


class TestSampleDecode:
    def test_top_k_one_matches_greedy_tokens(self):
        rng = np.random.default_rng(60)
        for temperature in (0.5, 1.0, 2.0):
            model = random_ngram_model(rng, real_tokens=3, order=2, alpha=0.8)
            sample_config = DecodeConfig(
                method="sample", top_k=1, temperature=temperature, seed=11, max_length=6
            )
            greedy_config = DecodeConfig(
                method="greedy", temperature=temperature, max_length=6
            )
            sampled = sample_decode(model, (), sample_config)
            greedy = greedy_decode(model, (), greedy_config)
            assert sampled.tokens.ids == greedy.tokens.ids

    def test_fixed_seed_reproducible(self):
        model = greedy_trap_model()
        config = DecodeConfig(method="sample", seed=123, max_length=8)
        first = sample_decode(model, (), config)
        second = sample_decode(model, (), config)
        assert first == second

    def test_first_token_frequencies(self):
        model = greedy_trap_model()
        counts = {0: 0, 1: 0, 2: 0}
        for seed in range(2000):
            config = DecodeConfig(method="sample", seed=seed, max_length=1)
            result = sample_decode(model, (), config)
            counts[result.tokens.ids[0]] += 1
        assert counts[0] / 2000 == pytest.approx(0.55, abs=0.03)
        assert counts[2] == 0

    def test_filters_restrict_support(self):
        model = greedy_trap_model()
        # top_p below 0.55 keeps only the most probable first token
        config = DecodeConfig(method="sample", top_p=0.5, seed=0, max_length=1)
        for seed in range(50):
            result = sample_decode(model, (), DecodeConfig(
                method="sample", top_p=0.5, seed=seed, max_length=1))
            assert result.tokens.ids == (0,)
        del config

    def test_score_uses_post_filter_distribution(self):
        model = greedy_trap_model()
        config = DecodeConfig(method="sample", top_k=1, seed=5, max_length=1)
        result = sample_decode(model, (), config)
        assert result.score == pytest.approx(0.0, abs=1e-12)


class TestNoRepeatDuringDecode:
    def test_outputs_never_repeat_bigrams(self):
        rng = np.random.default_rng(70)
        for trial in range(60):
            model = random_ngram_model(
                rng, real_tokens=int(rng.integers(3, 7)), order=2, alpha=1.0
            )
            method = ("greedy", "beam", "sample")[trial % 3]
            config = DecodeConfig(
                method=method,
                beam_size=3,
                no_repeat_ngram_size=2,
                seed=trial,
                max_length=30,
            )
            result = decode(model, (), config)
            ids = result.tokens.ids
            bigrams = [ids[i : i + 2] for i in range(len(ids) - 1)]
            assert len(bigrams) == len(set(bigrams))

    def test_disabled_blocking_can_repeat(self):
        vocab = Vocabulary(["a", "<eos>"], [-1.0, 0.0], eos="<eos>")
        model = TableModel(vocab, start=[1.0, 0.0], transitions={0: [1.0, 0.0]})
        result = greedy_decode(model, (), DecodeConfig(max_length=6))
        assert result.tokens.ids == (0,) * 6

    def test_blocking_forces_halt_on_tiny_models(self):
        # one real token: after (a, a) the bigram ban leaves only eos
        vocab = Vocabulary(["a", "<eos>"], [-1.0, 0.0], eos="<eos>")
        model = TableModel(vocab, start=[1.0, 0.0], transitions={0: [1.0, 0.0]})
        config = DecodeConfig(no_repeat_ngram_size=2, max_length=10)
        result = greedy_decode(model, (), config)
        assert result.tokens.ids == (0, 0, 1)


class TestBatchDecode:
    def test_empty_batch(self):
        model = greedy_trap_model()
        assert batch_decode(model, [], DecodeConfig()) == []

    def test_composition_contract(self):
        model = greedy_trap_model()
        config = DecodeConfig(method="sample", seed=40, max_length=6)
        batch = batch_decode(model, [(), ()], config)
        solo = [
            sample_decode(model, (), DecodeConfig(method="sample", seed=40, max_length=6)),
            sample_decode(model, (), DecodeConfig(method="sample", seed=41, max_length=6)),
        ]
        assert batch == solo

    def test_same_batch_twice_identical(self):
        model = greedy_trap_model()
        config = DecodeConfig(method="sample", seed=77, max_length=6)
        prompts = [(), (0,), (1,)]
        assert batch_decode(model, prompts, config) == batch_decode(
            model, prompts, config
        )

    def test_errors_recorded_and_batch_continues(self):
        vocab = Vocabulary(["a", "b", "<eos>"], [-1.0, -1.0, 0.0], eos="<eos>")
        # transitions for a missing: prompts reaching it fail
        model = TableModel(vocab, start=[1.0, 0.0, 0.0], transitions={1: [0.0, 0.0, 1.0]})
        errors = []
        results = batch_decode(
            model, [(1,), (0,)], DecodeConfig(method="greedy", max_length=3), errors=errors
        )
        assert results[0] is not None
        assert results[1] is None
        assert len(errors) == 1 and errors[0][0] == 1

    def test_parallel_workers_match_serial(self):
        model = greedy_trap_model()
        config = DecodeConfig(method="sample", seed=9, max_length=6)
        prompts = [()] * 6
        serial = batch_decode(model, prompts, config, workers=1)
        parallel = batch_decode(model, prompts, config, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("workers, count, pools", [
        (5000, 2, [2]), (2, 6, [2]), (3, 1, []), (1, 6, []),
    ])
    def test_at_most_one_worker_per_prompt(self, workers, count, pools):
        model = greedy_trap_model()
        config = DecodeConfig(method="sample", seed=9, max_length=6)
        with in_process_pool() as started:
            results = batch_decode(model, [()] * count, config, workers=workers)
        assert started == pools
        assert results == [sample_decode(model, (), replace(config, seed=9 + i))
                           for i in range(count)]

    def test_spawned_workers_get_the_model_at_their_start(self):
        # under spawn nothing is inherited: the model reaches each worker
        # only through the pool's initializer arguments
        program = textwrap.dedent(f"""
            import multiprocessing, sys
            sys.path.insert(0, {str(SRC)!r})
            from santrauka.decode import DecodeConfig, batch_decode
            from santrauka.lm import train_ngram
            from santrauka.tokenizer import char_vocabulary, viterbi_segment

            if __name__ == "__main__":
                multiprocessing.set_start_method("spawn")
                texts = ["kalba diena", "miela balta diena", "gale kalba"]
                vocab = char_vocabulary(texts)
                model = train_ngram([viterbi_segment(t, vocab) for t in texts], 3, 0.5)
                prompts = [viterbi_segment(t[:i], vocab) for t in texts for i in (1, 3)]
                config = DecodeConfig(method="sample", seed=4, top_k=3, max_length=12)
                serial = batch_decode(model, prompts, config)
                parallel = batch_decode(model, prompts, config, workers=2)
                assert None not in serial and parallel == serial, (serial, parallel)
                print("equal")
        """)
        done = subprocess.run([sys.executable, "-I", "-c", program], capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "equal\n"


class TestPromptIds:
    """Prompt ids are checked against the model's vocabulary once, before
    any step; a bad prompt in a batch fails alone."""

    MODEL = random_ngram_model(np.random.default_rng(5), real_tokens=3)  # V = 4

    @pytest.mark.parametrize("method", ["greedy", "beam", "sample"])
    @pytest.mark.parametrize("prompt, first", [
        ([99], 99),
        ([-5], -5),
        ([-1], -1),  # the model's BEGIN padding marker is no prompt id
        ((0, 4, 2), 4),  # the vocabulary size itself
        ([1, -2, 7], -2),
        (np.array([3, 9]), 9),
    ])
    def test_out_of_range_id_raises_naming_the_first(self, method, prompt, first):
        config = DecodeConfig(method=method, beam_size=2, seed=1, max_length=4)
        with pytest.raises(ValueError) as err:
            decode(self.MODEL, prompt, config)
        assert str(err.value) == f"prompt token id {first} outside [0, 4)"

    def test_edge_ids_decode(self):
        config = DecodeConfig(method="beam", beam_size=2, max_length=4)
        assert decode(self.MODEL, [0, 3], config).steps == 0  # ends at eos
        assert decode(self.MODEL, np.array([0, 2]), config) == decode(self.MODEL, (0, 2), config)

    @pytest.mark.parametrize("bad, message", [
        (["x"], "TypeError: 'str' object cannot be interpreted as an integer"),
        ([1.5], "TypeError: 'float' object cannot be interpreted as an integer"),
        ([2, 4], "ValueError: prompt token id 4 outside [0, 4)"),
    ])
    def test_bad_prompt_fails_alone_in_a_batch(self, bad, message):
        config = DecodeConfig(method="greedy", max_length=4)
        errors = []
        results = batch_decode(self.MODEL, [[2], bad, (1,)], config, errors=errors)
        assert results[0] == decode(self.MODEL, [2], config)
        assert results[1] is None
        assert results[2] == decode(self.MODEL, (1,), replace(config, seed=config.seed + 2))
        assert errors == [(1, message)]

    def test_iterator_prompts_and_a_bad_prompt_across_workers(self):
        # prompts are read in the calling process, so one-shot iterators
        # reach the workers as id tuples and a bad prompt still fails alone
        config = DecodeConfig(method="sample", seed=3, max_length=4)
        prompts = [iter([2]), ["x"], (i for i in (1, 2))]
        errors = []
        results = batch_decode(self.MODEL, prompts, config, workers=2, errors=errors)
        assert results == [
            decode(self.MODEL, (2,), config),
            None,
            decode(self.MODEL, (1, 2), replace(config, seed=config.seed + 2)),
        ]
        assert errors == [(1, "TypeError: 'str' object cannot be interpreted as an integer")]


class TestDecodeDispatch:
    def test_methods_route(self):
        model = greedy_trap_model()
        greedy = decode(model, (), DecodeConfig(method="greedy", max_length=4))
        beam = decode(model, (), DecodeConfig(method="beam", beam_size=2, max_length=4))
        sampled = decode(model, (), DecodeConfig(method="sample", seed=1, max_length=4))
        assert greedy.tokens.ids == (0, 2)
        assert beam.tokens.ids == (1, 2)
        assert len(sampled.tokens.ids) >= 1

    def test_all_methods_halt_within_budget(self):
        rng = np.random.default_rng(91)
        for method in ("greedy", "beam", "sample"):
            model = random_ngram_model(rng, real_tokens=4, order=1, alpha=1.0)
            config = DecodeConfig(method=method, beam_size=2, seed=3, max_length=7)
            result = decode(model, (), config)
            assert result.steps <= 7

    def test_public_decoders_ignore_config_method(self):
        rng = np.random.default_rng(97)
        model = random_ngram_model(rng, real_tokens=4, order=2, alpha=1.0)
        config = DecodeConfig(beam_size=3, top_k=3, seed=5, max_length=8,
                              sample_within_beam=True)
        for method in ("greedy", "beam", "sample"):
            other = replace(config, method=method)
            assert greedy_decode(model, (), other) == decode(
                model, (), replace(config, method="greedy"))
            assert beam_search(model, (), other) == decode(
                model, (), replace(config, method="beam"))
            assert sample_decode(model, (), other) == decode(
                model, (), replace(config, method="sample"))
        greedy = DecodeConfig(method="greedy", max_length=4)
        assert greedy_decode(model, (), replace(greedy, method="beam", beam_size=5)) == decode(
            model, (), greedy)

    def test_text_strips_special_tokens(self):
        model = greedy_trap_model()
        result = greedy_decode(model, (), DecodeConfig(max_length=4))
        assert "<eos>" not in result.text


class TestSampleWithinBeam:
    def test_reproducible_and_valid(self):
        rng = np.random.default_rng(101)
        model = random_ngram_model(rng, real_tokens=4, order=2, alpha=1.0)
        config = DecodeConfig(
            method="beam", beam_size=3, top_k=3, sample_within_beam=True,
            seed=17, max_length=8,
        )
        first = beam_search(model, (), config)
        second = beam_search(model, (), config)
        assert first == second
        assert first.tokens.ids[-1] == model.vocab.eos_id or first.steps == 8

    def test_differs_from_greedy_beam_eventually(self):
        rng = np.random.default_rng(103)
        model = random_ngram_model(rng, real_tokens=5, order=1, alpha=1.0)
        plain = beam_search(model, (), DecodeConfig(method="beam", beam_size=2, max_length=6))
        stochastic = {
            beam_search(
                model,
                (),
                DecodeConfig(
                    method="beam", beam_size=2, sample_within_beam=True,
                    seed=seed, max_length=6,
                ),
            ).tokens.ids
            for seed in range(20)
        }
        assert len(stochastic | {plain.tokens.ids}) > 1


class TestScoreSign:
    """A decode of probability 1 scores 0.0, not -0.0: the two compare equal,
    but json.dumps writes the sign into every report."""

    VOCAB = Vocabulary(["a", "<eos>"], [-1.0, 0.0], eos="<eos>")

    @pytest.mark.parametrize("method", ["greedy", "beam", "sample"])
    @pytest.mark.parametrize("prompt", [(), (1,)], ids=["empty", "eos-terminated"])
    def test_certain_decode_scores_positive_zero(self, method, prompt):
        model = TableModel(self.VOCAB, start=[0.0, 1.0])
        result = decode(model, prompt, DecodeConfig(method=method, beam_size=2))
        assert result.tokens.ids == (() if prompt else (1,))
        assert repr(result.score) == "0.0"

    def test_return_all_pool_scores_positive_zero(self):
        model = TableModel(self.VOCAB, start=[0.0, 1.0])
        _, pool = beam_search(model, (), DecodeConfig(method="beam", beam_size=2),
                              return_all=True)
        assert [repr(h.log_prob) for h in pool] == ["0.0"]

    def test_cli_writes_positive_zero(self, tmp_path):
        model = train_ngram([TokenSequence((), self.VOCAB)], order=2, alpha=0.0)
        model_path = tmp_path / "model.json"
        model.save(model_path)
        requests = tmp_path / "req.jsonl"
        requests.write_text('{"id": 1, "prompt": ""}\n', encoding="utf-8")
        output_path = tmp_path / "res.jsonl"
        assert main(["decode", "--input", str(requests), "--model", str(model_path),
                     "--output", str(output_path)]) == 0
        line = output_path.read_text(encoding="utf-8")
        assert '"score": 0.0,' in line
        assert json.loads(line)["steps"] == 1
