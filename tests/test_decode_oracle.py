"""The fast decoders against the reference loops of ``decode_oracle``.

Scores must match exactly (``==``), not approximately: the fast path
does the same floating-point operations in the same order, only on a
whole beam's rows at once and with fewer steps.
"""

import gc
import math
import sys
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decode_oracle as oracle
from pools import in_process_pool
from santrauka.decode import (
    DecodeConfig,
    batch_decode,
    beam_search,
    block_repeated_ngrams,
    decode,
    greedy_decode,
    sample_decode,
)
from santrauka.fixtures import greedy_trap_model
from santrauka.lm import (
    LanguageModel,
    TableModel,
    UnseenContextError,
    softmax,
    softmax_rows,
    train_ngram,
)
from santrauka.tokenizer import TokenSequence, Vocabulary, token_ids

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


def table(real_tokens, start, transitions):
    return TableModel(make_vocab(real_tokens), start, transitions)


# every weight tied: ranking the draws of a sampled beam is all id order
UNIFORM = table(3, [0.25] * 4, {t: [0.25] * 4 for t in range(4)})
# tied weights where the likelier draws are not the lower ids, so a sampled
# beam must rank its draws before the merge
TIED_TWO = table(2, [0.25, 0.5, 0.25], {
    0: [0.4, 0.4, 0.2], 1: [0.25, 0.75, 0.0], 2: [1 / 3, 1 / 3, 1 / 3],
})
TIED_THREE = table(3, [2 / 7, 3 / 7, 0.0, 2 / 7], {
    0: [0.4, 0.2, 0.0, 0.4], 1: [0.25] * 4, 2: [0.0, 0.0, 0.0, 1.0], 3: [0.0, 0.5, 0.5, 0.0],
})
# (eos) and (0) tie at log 0.5; the unigram ban then forces (0, eos) at
# log p = 0, and it wins on the lower ids, so stopping at the tie would
# return the wrong winner
TIE_WITH_FINISHED = table(1, [0.5, 0.5], {0: [0.5, 0.5]})
TIE_CONFIG = DecodeConfig(method="beam", beam_size=2, no_repeat_ngram_size=1, max_length=5)
# beam 2: (0, eos) ranks third at step 2, below both live successors, and
# still wins at -1.49 once the live scores fall under it
EOS_BELOW_CUT = table(3, [0.5, 0.4, 0.1, 0.0], {
    0: [0.0, 0.55, 0.0, 0.45],
    1: [0.1, 0.0, 0.9, 0.0],
    2: [0.5, 0.5, 0.0, 0.0],
    3: [0.25] * 4,
})


def assert_passes_the_checked_constructor(result, model):
    """Decoders build their result unchecked; its ids must be the plain
    in-range ints the checked TokenSequence constructor accepts."""
    assert result.tokens == TokenSequence(result.tokens.ids, model.vocab)
    assert all(type(i) is int for i in result.tokens.ids)


@PROPERTY_SETTINGS
@given(model=models, config=configs, prompt=st.lists(st.integers(0, 5), max_size=4))
@example(model=UNIFORM, prompt=[],
         config=DecodeConfig(method="beam", beam_size=3, sample_within_beam=True,
                             max_length=4, seed=7))
@example(model=TIED_TWO, prompt=[],
         config=DecodeConfig(method="beam", beam_size=2, sample_within_beam=True,
                             max_length=3, seed=6))
@example(model=TIED_THREE, prompt=[],
         config=DecodeConfig(method="beam", beam_size=3, sample_within_beam=True,
                             max_length=3, seed=5))
@example(model=EOS_BELOW_CUT, prompt=[],
         config=DecodeConfig(method="beam", beam_size=2, max_length=6))
@example(model=TIE_WITH_FINISHED, prompt=[], config=TIE_CONFIG)
def test_beam_search_equals_full_budget_oracle(model, config, prompt):
    prompt = tuple(t % len(model.vocab) for t in prompt)
    counted = CountingModel(model)
    result, pool = beam_search(counted, prompt, config, return_all=True)
    reference = CountingModel(model)
    expected = oracle.beam_search(reference, prompt, config)
    assert result.tokens.ids == expected[0].ids
    assert result.score == expected[0].log_prob
    assert_passes_the_checked_constructor(result, model)
    # the pool is the early-stopping oracle's, to the step: a stop one step
    # late would add to it, one step early would miss a winner or a member
    assert pool[0] == expected[0]
    assert pool == oracle.beam_search(model, prompt, config, early_stop=True)
    assert counted.rows <= reference.rows


def test_eos_below_the_cut_lands_in_the_pool():
    config = DecodeConfig(method="beam", beam_size=2, max_length=6)
    result, pool = beam_search(EOS_BELOW_CUT, (), config, return_all=True)
    eos = EOS_BELOW_CUT.vocab.eos_id
    assert result.tokens.ids == (0, eos)
    assert pool[0] == oracle.beam_search(EOS_BELOW_CUT, (), config)[0]


class LogitTable(LanguageModel):
    """Logit rows by last id, for probabilities no table of weights gives."""

    def __init__(self, vocab, start, rows):
        self._vocab, self.start, self.rows = vocab, start, rows

    @property
    def vocab(self):
        return self._vocab

    def next_logits(self, prefix):
        ids = token_ids(prefix)
        return np.array(self.rows[ids[-1]] if ids else self.start)


class LastIdLogitTable(LogitTable):
    """A :class:`LogitTable` that declares it reads the last id only, so
    its decodes share records."""

    context_width = 1


def assert_one_ulp_apart_probabilities_take_the_lower_token(low, same_log):
    # after token 0, token 3 is one ulp likelier than token 2, yet behind
    # the score of (0,) both round to one score, where search order takes
    # the lower token: beam 3 keeps (1, 1), (0, 0) and (0, 2), not (0, 3)
    vocab = make_vocab(4)
    eos = vocab.eos_id
    after_zero = [0.0, -6.0, low, float(np.nextafter(low, 0.0)), -4.0]
    only_one = [-9.0, 0.0, -9.0, -9.0, -9.0]
    only_eos = [-9.0, -9.0, -9.0, -9.0, 0.0]
    rows = {0: after_zero, 1: only_one, 2: only_eos, 3: only_eos, eos: only_eos}
    start = [0.0, -0.2, -9.0, -9.0, -3.0]
    # the second model shares its records between decodes: sorting the
    # descending run of the first decode must not reorder the second's
    for model in (LogitTable(vocab, start, rows), LastIdLogitTable(vocab, start, rows)):
        base = math.log(softmax(model.next_logits(()))[0])
        p = softmax(model.next_logits((0,)))
        assert p[3] == np.nextafter(p[2], 1.0)
        assert (math.log(p[3]) == math.log(p[2])) is same_log
        assert base + math.log(p[3]) == base + math.log(p[2])
        config = DecodeConfig(method="beam", beam_size=3, max_length=3)
        expected = oracle.beam_search(model, (), config)
        for _ in range(2):
            result, pool = beam_search(model, (), config, return_all=True)
            assert pool == expected
            assert (0, 2, eos) in [h.ids for h in pool]
            assert (0, 3, eos) not in [h.ids for h in pool]
            assert result.tokens.ids == expected[0].ids


def test_one_ulp_apart_probabilities_with_one_score_take_the_lower_token():
    assert_one_ulp_apart_probabilities_take_the_lower_token(-1.9984, same_log=False)


def test_one_ulp_apart_probabilities_with_one_log_take_the_lower_token():
    # the logs are equal too, so the run of (0, 3), (0, 2) never changes
    # its log: only its descending ids show it must be sorted
    assert_one_ulp_apart_probabilities_take_the_lower_token(-1.998, same_log=True)


@PROPERTY_SETTINGS
@given(model=models, config=configs, data=st.data())
def test_greedy_and_sample_equal_oracle(model, config, data):
    prompt = prompt_for(model, data)
    greedy = greedy_decode(model, prompt, config)
    assert (greedy.tokens.ids, greedy.score) == oracle.greedy_decode(model, prompt, config)
    sampled = sample_decode(model, prompt, config)
    assert (sampled.tokens.ids, sampled.score) == oracle.sample_decode(model, prompt, config)
    for result in (greedy, sampled):
        assert_passes_the_checked_constructor(result, model)


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


@st.composite
def ban_cases(draw):
    """(ids, dist, n, eos): ids over a 2-5 letter alphabet, a distribution
    over the alphabet plus one id with many zeros, and at times mass left
    only on the ids the oracle bans, so every id is banned."""
    letters = draw(st.integers(2, 5))
    ids = tuple(draw(st.lists(st.integers(0, letters - 1), max_size=40)))
    n = draw(st.integers(1, 4))
    eos = draw(st.integers(0, letters))
    weights = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0])
    dist = np.array(draw(st.lists(weights, min_size=letters + 1, max_size=letters + 1)))
    if draw(st.booleans()):
        unbanned = oracle.block_repeated_ngrams(ids, np.ones(letters + 1), n, eos) > 0
        dist[unbanned] = 0.0
    return ids, dist, n, eos


@PROPERTY_SETTINGS
@given(case=ban_cases())
@example(case=((0, 1, 0, 1), np.array([1.0, 0.0, 0.0]), 2, 2))  # every id banned
@example(case=((0, 1, 2, 0, 1), np.array([1.0, 1.0, 1.0, 1.0]), 3, 3))
def test_block_repeated_ngrams_equals_oracle(case):
    ids, dist, n, eos = case
    expected = oracle.block_repeated_ngrams(ids, dist, n, eos)
    assert block_repeated_ngrams(ids, dist, n, eos).tobytes() == expected.tobytes()


def test_tie_with_a_finished_hypothesis_keeps_decoding():
    result = beam_search(TIE_WITH_FINISHED, (), TIE_CONFIG)
    assert result.tokens.ids == (0, 1)
    assert result.tokens.ids == oracle.beam_search(TIE_WITH_FINISHED, (), TIE_CONFIG)[0].ids


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


# --- the per-model memo of shaped records -----------------------------------

decode_module = sys.modules["santrauka.decode"]  # the package attribute is the function

any_configs = st.builds(
    DecodeConfig,
    method=st.sampled_from(["greedy", "beam", "sample"]),
    beam_size=st.integers(1, 4),
    top_k=st.none() | st.integers(1, 5),
    top_p=st.none() | st.sampled_from([0.3, 0.6, 0.9, 1.0]),
    temperature=st.sampled_from([0.5, 1.0, 2.0]),
    no_repeat_ngram_size=st.none() | st.integers(1, 3),
    max_length=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    sample_within_beam=st.booleans(),
)
config_runs = st.lists(st.tuples(any_configs, st.lists(st.integers(0, 5), max_size=4)),
                       min_size=1, max_size=5)


def fitted(model, runs):
    """The runs with each prompt id folded into the model's vocabulary."""
    size = len(model.vocab)
    return [(config, tuple(t % size for t in prompt)) for config, prompt in runs]


def assert_equals_oracle(model, prompt, config):
    if config.method == "beam":
        result, pool = beam_search(model, prompt, config, return_all=True)
        expected = oracle.beam_search(model, prompt, config)
        assert (result.tokens.ids, result.score) == (expected[0].ids, expected[0].log_prob)
        assert pool[0] == expected[0]
        assert pool == oracle.beam_search(model, prompt, config, early_stop=True)
    else:
        reference = oracle.greedy_decode if config.method == "greedy" else oracle.sample_decode
        result = decode(model, prompt, config)
        assert (result.tokens.ids, result.score) == reference(model, prompt, config)


def renorm_table():
    """From id 1 or 2 the top successor is id 0 at 3/6, from 0 it is id 1.
    Their softmax rows sum to just under 1, so dividing a row by its sum
    changes the bits: a ban-stage row with no banned id is not the row
    before the ban stage, though both share one context."""
    sixths = np.array([[1, 3, 1, 1], [3, 1, 1, 1], [3, 1, 1, 1], [1, 1, 1, 3]]) / 6
    return table(3, [0.25] * 4, dict(enumerate(sixths)))


GREEDY_BAN_2 = DecodeConfig(method="greedy", no_repeat_ngram_size=2, max_length=4)


def test_renormalizing_a_renorm_table_row_changes_its_bits():
    p = softmax(renorm_table().next_logits((1,)))
    assert (p / p.sum())[0] != p[0]


@settings(max_examples=60, deadline=None)
@given(model=models, runs=config_runs)
# prompt (1,) meets context (1,) before the ban stage at step 0 and in it,
# with no banned id, at step 2 (ids 0, 1); prompt (2,) meets the ban-stage
# key first, and prompt (1,) after it the other
@example(model=renorm_table(), runs=[(GREEDY_BAN_2, [1])])
@example(model=renorm_table(), runs=[(GREEDY_BAN_2, [2]), (GREEDY_BAN_2, [1])])
# a one-wide sampled beam draws without replacement, plain sampling by the
# inverse CDF: they share one shaping, so each must draw its own way from
# records the other shaped
@example(model=TIED_TWO, runs=[(DecodeConfig(method="sample", max_length=3), []),
                               (DecodeConfig(method="beam", sample_within_beam=True,
                                             max_length=3), [])])
def test_warm_memo_equals_cold_and_the_oracle(model, runs):
    runs = fitted(model, runs)
    # the first pass fills the memo as it goes, the second reads it warm
    for _ in range(2):
        for config, prompt in runs:
            assert_equals_oracle(model, prompt, config)
    assert model in decode_module._MEMO


BEAM_BAN_2 = DecodeConfig(method="beam", beam_size=3, no_repeat_ngram_size=2, max_length=8)


def test_memo_goes_with_its_model():
    model = random_ngram_model(3, 4, 3, 0.3)
    decode(model, (0, 1), BEAM_BAN_2)
    assert decode_module._MEMO[model]
    before = len(decode_module._MEMO)
    gone = weakref.ref(model)
    del model
    gc.collect()
    assert gone() is None
    assert len(decode_module._MEMO) < before


def test_whole_prefix_models_store_nothing():
    vocab = make_vocab(2)
    logits = LogitTable(vocab, [0.0, -1.0, -2.0], {t: [-1.0, 0.0, -0.5] for t in range(3)})
    counted = CountingModel(random_table_model(4, 2))
    for model in (logits, counted):
        assert model.context_width is None
        for config in (BEAM_BAN_2, GREEDY_BAN_2, replace(BEAM_BAN_2, sample_within_beam=True)):
            decode(model, (0,), config)
        assert model not in decode_module._MEMO


def test_unseen_context_stores_nothing_and_raises_again():
    vocab = make_vocab(2)
    # context (1,) was never counted, and alpha=0 leaves it undefined
    model = train_ngram([TokenSequence((0, 0), vocab)], 2, 0.0)
    config = replace(GREEDY_BAN_2, no_repeat_ngram_size=None)
    for _ in range(2):
        with pytest.raises(UnseenContextError):
            decode(model, (1,), config)
        assert not any(key[0] == (1,) for records in decode_module._MEMO.get(model, {}).values()
                       for key in records)
    errors = []
    results = batch_decode(model, [(0,), (1,), (0,)], config, errors=errors)
    assert results[0] == results[2] == decode(model, (0,), config)
    assert results[1] is None
    assert [i for i, _ in errors] == [1]
    assert "UnseenContextError" in errors[0][1]


def test_a_failed_prompt_changes_no_later_one_in_a_worker():
    # a worker keeps its memo across the chunks it decodes, so a prompt
    # that fails must leave the prompts after it as serial decoding has them
    model = train_ngram([TokenSequence((0, 0), make_vocab(2))], 2, 0.0)
    config = replace(GREEDY_BAN_2, no_repeat_ngram_size=None)
    prompts = [(0,), (1,), (0,)] * 4
    serial_errors, parallel_errors = [], []
    serial = batch_decode(model, prompts, config, errors=serial_errors)
    parallel = batch_decode(model, prompts, config, workers=2, errors=parallel_errors)
    assert parallel == serial
    assert parallel_errors == serial_errors
    assert [i for i, _ in serial_errors] == [1, 4, 7, 10]
    assert all(message.startswith("UnseenContextError: ") for _, message in parallel_errors)
    # a worker sends back ids, not a copy of the vocabulary per chunk
    assert all(result.tokens.vocab is model.vocab for result in parallel if result is not None)


def large_vocabulary_records(config):
    """The records one decode of a bigram model over 4,001 ids leaves."""
    vocab = make_vocab(4000)
    rng = np.random.default_rng(5)
    streams = [TokenSequence(tuple(int(t) for t in rng.integers(0, 4000, 30)), vocab)
               for _ in range(4)]
    model = train_ngram(streams, 2, 0.5)
    decode(model, streams[0].ids[:3], replace(config, max_length=20))
    records = [record for shaped in decode_module._MEMO[model].values()
               for record in shaped.values()]
    assert records
    return records


def test_greedy_records_hold_one_successor_on_a_large_vocabulary():
    for eos_log, tokens, logs in large_vocabulary_records(GREEDY_BAN_2):
        assert (eos_log is not None) + len(tokens) == 1
        assert len(logs) == len(tokens)


def test_top_k_sampling_records_hold_k_ids_on_a_large_vocabulary():
    sample = replace(GREEDY_BAN_2, method="sample", top_k=5)
    for ids, probs, cumulative, _ in large_vocabulary_records(sample):
        assert 1 <= np.count_nonzero(probs) <= 5
        assert len(ids) == probs.size == cumulative.size
        # the support's ids, probabilities and sums, or no more floats
        assert sum(a.size for a in (ids, probs, cumulative) if isinstance(a, np.ndarray)) <= 15


def test_sampling_and_a_sampled_beam_share_one_shaping():
    model = random_ngram_model(3, 4, 3, 0.3)
    sample = DecodeConfig(method="sample", top_k=3, top_p=0.9, temperature=0.5,
                          no_repeat_ngram_size=2, max_length=8)
    for config in (sample, replace(sample, method="beam", beam_size=3, sample_within_beam=True),
                   replace(sample, method="beam", beam_size=2, sample_within_beam=True)):
        assert_equals_oracle(model, (0, 1), config)
    assert len(decode_module._MEMO[model]) == 1


@settings(max_examples=40, deadline=None)
@given(model=models, runs=config_runs)
def test_a_memo_cap_of_one_changes_no_output(model, runs):
    runs = fitted(model, runs)

    def outputs():
        return [beam_search(model, prompt, config, return_all=True) if config.method == "beam"
                else decode(model, prompt, config) for config, prompt in runs]

    uncapped = outputs()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decode_module, "_MEMO_CAP", 1)
        assert outputs() == uncapped
    # each step that found a record cleared its shaping first, so at most
    # one step's keys, one per live hypothesis, are left
    assert all(len(records) <= 4 for records in decode_module._MEMO[model].values())


class WidthCountingModel(CountingModel):
    """A :class:`CountingModel` that declares its inner model's context
    width, so its decodes keep records."""

    @property
    def context_width(self):
        return self.inner.context_width


BEAM_4_BAN_2 = replace(BEAM_BAN_2, beam_size=4)


@settings(max_examples=60, deadline=None)
@given(model=models, runs=config_runs)
# width 0: every row of a step has one context, so only bans tell keys apart
@example(model=random_ngram_model(1, 3, 1, 0.3),
         runs=[(BEAM_4_BAN_2, [0, 1]), (replace(BEAM_4_BAN_2, no_repeat_ngram_size=None), [])])
# width 2 reaches past a prompt of 0 or 1 ids into the generated ids
@example(model=random_ngram_model(2, 3, 3, 0.3), runs=[(BEAM_4_BAN_2, []), (BEAM_4_BAN_2, [1])])
def test_each_missing_key_is_scored_once_and_a_warm_rerun_scores_none(model, runs):
    counted = WidthCountingModel(model)
    runs = fitted(model, runs)
    cold = [decode(counted, prompt, config) for config, prompt in runs]
    # runs of at most 10 steps of 4 rows stay under the cap, so every
    # record stored is still there: one row scored per key, shared or not
    assert counted.rows == sum(map(len, decode_module._MEMO[counted].values()))
    counted.rows = 0
    assert [decode(counted, prompt, config) for config, prompt in runs] == cold
    assert counted.rows == 0


@PROPERTY_SETTINGS
@given(prompt=st.lists(st.integers(0, 4), max_size=4).map(tuple),
       ids=st.lists(st.integers(0, 4), max_size=40).map(tuple),
       n=st.integers(1, 4), width=st.none() | st.integers(0, 6))
@example(prompt=(), ids=(0, 1, 0, 1, 0), n=2, width=0)  # one id banned twice
@example(prompt=(), ids=(0, 3, 0, 1, 0), n=2, width=0)  # bans found out of order
@example(prompt=(2,), ids=(0, 0), n=1, width=3)  # a unigram ban of one id, met twice
@example(prompt=(1, 2), ids=(3,), n=2, width=2)  # a context of one prompt id and the ids
def test_a_key_is_the_oracle_context_and_sorted_set_of_bans(prompt, ids, n, width):
    eos = 5  # never among the ids, so the oracle never collapses the row to it
    model = SimpleNamespace(context_width=width, vocab=SimpleNamespace(eos_id=eos),
                            next_logits_batch=lambda contexts: np.zeros((len(contexts), 6)))
    memo = {}
    config = DecodeConfig(no_repeat_ngram_size=n)
    decode_module._step(model, prompt, [(0.0, ids)], config, 1, False, memo)
    ((context, bans, stage),) = memo
    whole = prompt + ids
    assert context == (whole if width is None else whole[max(len(whole) - width, 0):])
    banned = oracle.block_repeated_ngrams(ids, np.ones(6), n, eos) == 0
    assert bans == tuple(np.flatnonzero(banned).tolist())
    assert stage == (len(ids) >= n)


@st.composite
def sparse_logits(draw):
    """Logit rows of 9-300 ids, most of them -inf, so most of the shaped row
    is exactly zero; the positive ids spread over the row or crowd its head."""
    size = draw(st.integers(9, 300))
    span = draw(st.integers(1, size))
    support = draw(st.lists(st.integers(0, span - 1), min_size=1,
                            max_size=max(1, min(span, size // 3)), unique=True))
    logits = np.full(size, -np.inf)
    logits[support] = draw(st.lists(st.floats(-20, 20), min_size=len(support),
                                    max_size=len(support)))
    return logits


def record_of(logits):
    """The sampling record ``_shape`` builds from one unfiltered, unbanned row."""
    model = SimpleNamespace(vocab=SimpleNamespace(eos_id=-1),
                            next_logits_batch=lambda contexts: logits[None])
    (record,) = decode_module._shape(model, [((), (), False)], DecodeConfig(), 1, True)
    return record


class ChoiceSpy:
    """A seeded generator that keeps the weights each draw without
    replacement is given."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.weights = []

    def random(self):
        return self.rng.random()

    def choice(self, *args, p, **kwargs):
        self.weights.append(p)
        return self.rng.choice(*args, p=p, **kwargs)


@settings(max_examples=300, deadline=None)
@given(logits=sparse_logits(), width=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@example(logits=np.array([0.0, -0.7, -0.7] + [-np.inf] * 6), width=3, seed=1)  # a full head
@example(logits=np.array([-np.inf] * 8 + [0.0]), width=2, seed=1)  # one id, the last
def test_sampling_record_draws_equal_the_full_row_oracle(logits, width, seed):
    row = softmax_rows(logits[None])[0]
    record = record_of(logits)
    for beam in (False, True):
        spy, oracle_rng = ChoiceSpy(seed), np.random.default_rng(seed)
        ((_, tokens, logs),) = decode_module._draws([record], spy, beam, width, -1)
        if beam:
            expected = oracle._sampled_successors(row, width, oracle_rng)
            assert sorted(tokens) == expected
            assert list(tokens) == sorted(expected, key=lambda t: (-row[t], t))
            # the oracle's weights at the record's ids, bit for bit: both
            # divide by the whole row's sum
            (weights,) = spy.weights
            assert weights.tobytes() == (row / row.sum())[list(record[0])].tobytes()
        else:
            assert tokens == (oracle._sample_index(row, oracle_rng),)
        assert logs == tuple(math.log(row[t]) for t in tokens)
        assert spy.rng.random() == oracle_rng.random()


# --- batches: each distinct search runs once ---------------------------------


def one_by_one(model, prompts, config):
    """The results and errors of decoding each prompt alone, prompt i with
    seed ``config.seed + i``: what a batch must equal."""
    results, errors = [], []
    for i, prompt in enumerate(prompts):
        try:
            results.append(decode(model, prompt, replace(config, seed=config.seed + i)))
        except Exception as err:  # noqa: BLE001 - recorded as batch_decode records it
            results.append(None)
            errors.append((i, f"{type(err).__name__}: {err}"))
    return results, errors


# ids 0 and 1 lie in every model's vocabulary, 9 and -1 in none; with so few,
# model-visible tails repeat within a batch
batch_prompts = st.lists(st.lists(st.sampled_from([0, 1, 0, 1, 9, -1]), max_size=4).map(tuple),
                         min_size=1, max_size=8)
# a model that reads the whole prefix: only equal prompts may share a search
whole_prefix_models = st.builds(CountingModel, models)


@settings(max_examples=150, deadline=None)
@given(model=models | whole_prefix_models, config=any_configs, prompts=batch_prompts,
       workers=st.sampled_from([1, 2]))
# unseen contexts fail at some tails and not at others
@example(model=train_ngram([TokenSequence((0, 0), make_vocab(2))], 2, 0.0),
         config=DecodeConfig(max_length=3), prompts=[(0,), (1,), (1, 0), (0, 1), (9, 1)],
         workers=2)
@example(model=CountingModel(TIED_TWO), config=DecodeConfig(method="beam", beam_size=2),
         prompts=[(0, 1), (1, 1), (0, 1), (-1, 1)], workers=1)
def test_a_batch_equals_its_prompts_decoded_one_by_one(model, config, prompts, workers):
    expected, expected_errors = one_by_one(model, prompts, config)
    errors = []
    with in_process_pool():
        assert batch_decode(model, prompts, config, workers=workers, errors=errors) == expected
    assert errors == expected_errors


class CountingSearches:
    """Wraps the module's ``decode``, which batch_decode runs once per search."""

    def __init__(self):
        self.prompts = []
        self.original = decode_module.decode

    def __call__(self, model, prompt, config):
        self.prompts.append(prompt)
        return self.original(model, prompt, config)


@pytest.mark.parametrize("order, searches", [
    # the search keys of the prompts below: their last max(order - 1, 1) ids
    (1, [(1,), ()]),
    (2, [(1,), ()]),
    (3, [(0, 1), (1, 1), (), (1,)]),
    (4, [(0, 1), (1, 1), (2, 0, 1), (), (1,)]),
])
@pytest.mark.parametrize("config", [
    DecodeConfig(method="greedy", max_length=4),
    DecodeConfig(method="beam", beam_size=3, no_repeat_ngram_size=2, max_length=4),
    DecodeConfig(method="sample", max_length=4, seed=7),
    DecodeConfig(method="beam", beam_size=3, sample_within_beam=True, max_length=4, seed=7),
])
def test_one_search_per_distinct_key(order, searches, config):
    model = random_ngram_model(2, 3, order, 0.3)
    prompts = [(0, 1), (1, 1), (0, 1), (2, 0, 1), (), (1,)]
    sampling = config.method == "sample" or config.sample_within_beam
    # a sampling search reads its own seed, so it never shares
    keys = prompts if sampling else searches
    with in_process_pool() as pools:
        for workers in (1, 5000):
            counting = CountingSearches()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(decode_module, "decode", counting)
                results = batch_decode(model, prompts, config, workers=workers)
            assert results == one_by_one(model, prompts, config)[0]
            assert [prompt[-len(key):] if key else prompt
                    for prompt, key in zip(counting.prompts, keys)] == keys
            assert len(counting.prompts) == len(keys)
    # the pool is sized by the searches, not the prompts
    assert pools == [len(keys)]


def test_whole_prefix_models_share_only_equal_prompts():
    model = CountingModel(random_table_model(3, 2))
    prompts = [(0, 1), (1, 1), (0, 1), (1,), (1, 1)]
    counting = CountingSearches()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decode_module, "decode", counting)
        results = batch_decode(model, prompts, DecodeConfig(method="greedy", max_length=4))
    assert counting.prompts == [(0, 1), (1, 1), (1,)]
    assert results == one_by_one(model, prompts, DecodeConfig(method="greedy", max_length=4))[0]
