"""The fast decoders against the reference loops of ``decode_oracle``.

Scores must match exactly (``==``), not approximately: the fast path
does the same floating-point operations in the same order, only on a
whole beam's rows at once and with fewer steps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import decode_oracle as oracle
from santrauka.decode import DecodeConfig, beam_search, greedy_decode, sample_decode
from santrauka.fixtures import greedy_trap_model
from santrauka.lm import LanguageModel, TableModel, train_ngram
from santrauka.tokenizer import TokenSequence, Vocabulary

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def make_vocab(real_tokens):
    names = [f"t{i}" for i in range(real_tokens)] + ["<eos>"]
    return Vocabulary(names, [-1.0] * len(names), eos="<eos>")


def random_ngram_model(seed, real_tokens, order, alpha):
    rng = np.random.default_rng(seed)
    vocab = make_vocab(real_tokens)
    streams = [
        TokenSequence(
            tuple(int(t) for t in rng.integers(0, real_tokens, size=rng.integers(1, 9))),
            vocab,
        )
        for _ in range(int(rng.integers(1, 6)))
    ]
    return train_ngram(streams, order, alpha)


def random_table_model(seed, real_tokens):
    """Rows of small integer weights: exact zeros give -inf logits, equal
    weights give tied scores, and one-hot rows give steps of log p = 0."""
    rng = np.random.default_rng(seed)
    vocab = make_vocab(real_tokens)
    size = len(vocab)

    def row():
        weights = rng.integers(0, 3, size).astype(float)
        weights[rng.integers(size)] += 1.0
        return weights / weights.sum()

    return TableModel(vocab, row(), {t: row() for t in range(size)})


class CountingModel(LanguageModel):
    """Counts the prefixes scored, whether one by one or in batches."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = 0

    @property
    def vocab(self):
        return self.inner.vocab

    def next_logits(self, prefix):
        self.rows += 1
        return self.inner.next_logits(prefix)

    def next_logits_batch(self, prefixes):
        self.rows += len(prefixes)
        return self.inner.next_logits_batch(prefixes)


ngram_models = st.builds(
    random_ngram_model,
    seed=st.integers(0, 2**32 - 1),
    real_tokens=st.integers(1, 5),
    order=st.integers(1, 4),
    alpha=st.sampled_from([0.05, 0.3, 1.0]),
)
table_models = st.builds(
    random_table_model, seed=st.integers(0, 2**32 - 1), real_tokens=st.integers(1, 4)
)
models = ngram_models | table_models

configs = st.builds(
    DecodeConfig,
    method=st.just("beam"),
    beam_size=st.integers(1, 6),
    top_k=st.none() | st.integers(1, 5),
    top_p=st.none() | st.sampled_from([0.3, 0.5, 0.6, 0.9, 1.0]),
    temperature=st.sampled_from([0.5, 1.0, 2.0]),
    no_repeat_ngram_size=st.none() | st.integers(1, 3),
    max_length=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    sample_within_beam=st.booleans(),
)


def prompt_for(model, data):
    size = len(model.vocab)
    return tuple(data.draw(st.lists(st.integers(0, size - 1), max_size=4)))


@PROPERTY_SETTINGS
@given(model=models, config=configs, data=st.data())
def test_beam_search_equals_full_budget_oracle(model, config, data):
    prompt = prompt_for(model, data)
    counted = CountingModel(model)
    result, pool = beam_search(counted, prompt, config, return_all=True)
    reference = CountingModel(model)
    expected = oracle.beam_search(reference, prompt, config)
    assert result.tokens.ids == expected[0].ids
    assert result.score == expected[0].log_prob
    # the early-stopped pool is the oracle's, cut at the stop
    assert pool[0] == expected[0]
    assert set(pool) <= set(expected)
    assert pool == sorted(pool, key=lambda h: (-h.log_prob, h.ids))
    assert counted.rows <= reference.rows


@PROPERTY_SETTINGS
@given(model=models, config=configs, data=st.data())
def test_greedy_and_sample_equal_oracle(model, config, data):
    prompt = prompt_for(model, data)
    greedy = greedy_decode(model, prompt, config)
    assert (greedy.tokens.ids, greedy.score) == oracle.greedy_decode(model, prompt, config)
    sampled = sample_decode(model, prompt, config)
    assert (sampled.tokens.ids, sampled.score) == oracle.sample_decode(model, prompt, config)


def assert_rows_match(model, prefixes):
    batch = model.next_logits_batch(prefixes)
    assert batch.shape == (len(prefixes), len(model.vocab))
    for row, prefix in zip(batch, prefixes):
        assert row.tobytes() == np.asarray(model.next_logits(prefix), dtype=float).tobytes()


prefix_lists = st.lists(st.lists(st.integers(0, 5), max_size=6), min_size=1, max_size=8)


@PROPERTY_SETTINGS
@given(model=ngram_models, prefixes=prefix_lists)
def test_ngram_batch_rows_equal_single_calls(model, prefixes):
    size = len(model.vocab)
    assert_rows_match(model, [tuple(t % size for t in p) for p in prefixes])


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1), real_tokens=st.integers(1, 5), prefixes=prefix_lists
)
def test_table_batch_rows_equal_single_calls(seed, real_tokens, prefixes):
    model = random_table_model(seed, real_tokens)
    size = len(model.vocab)
    assert_rows_match(model, [tuple(t % size for t in p) for p in prefixes])


def test_tie_with_a_finished_hypothesis_keeps_decoding():
    # (eos) and (a) tie at log 0.5; the unigram ban then forces (a, eos)
    # at log p = 0, and it wins on the lower ids, so stopping at the tie
    # would return the wrong winner
    vocab = make_vocab(1)
    model = TableModel(vocab, [0.5, 0.5], {0: [0.5, 0.5]})
    config = DecodeConfig(method="beam", beam_size=2, no_repeat_ngram_size=1, max_length=5)
    result = beam_search(model, (), config)
    assert result.tokens.ids == (0, 1)
    assert result.tokens.ids == oracle.beam_search(model, (), config)[0].ids


def test_early_stop_skips_steps_after_the_winner_finishes():
    # the trap model's winner (B, eos) finishes at step 2 with a score no
    # live hypothesis can reach, so a 60-step budget is not spent
    config = DecodeConfig(method="beam", beam_size=2, max_length=60)
    counted = CountingModel(greedy_trap_model())
    result = beam_search(counted, (), config)
    reference = CountingModel(greedy_trap_model())
    expected = oracle.beam_search(reference, (), config)
    assert (result.tokens.ids, result.score) == (expected[0].ids, expected[0].log_prob)
    assert counted.rows < reference.rows
