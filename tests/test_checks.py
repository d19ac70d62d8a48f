"""One rule for numeric option values: every config field, model order and
smoothing, public function argument and RunConfig count refuses a bool, a
string, a non-finite number and (for a count) a non-integral one with an
error that starts with the parameter's name, and accepts numpy numbers."""

import json
import math
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from santrauka._checks import count, real
from santrauka.cli import RunConfig, run
from santrauka.corpus import FilterConfig, split_validation
from santrauka.decode import DecodeConfig, block_repeated_ngrams, top_k_filter, top_p_filter
from santrauka.lm import NGramModel, apply_temperature, train_ngram
from santrauka.metrics import rouge_n
from santrauka.tokenizer import Vocabulary, ngrams

VOCAB = Vocabulary(["a", "b", "<eos>"], [-1.0, -1.0, 0.0], eos="<eos>")
DIST = np.array([0.5, 0.3, 0.2])


class Target(NamedTuple):
    """A numeric parameter: the name its errors start with, whether it is a
    count, whether None is a valid value, a call that passes ``value`` to it,
    and where the built object keeps it (None when nothing keeps it)."""

    name: str
    is_count: bool
    optional: bool
    build: Callable
    stored: Callable | None = None


def _decode_field(name, is_count, optional=False):
    return Target(name, is_count, optional, lambda v: DecodeConfig(**{name: v}),
                  lambda c: getattr(c, name))


def _run_field(name):
    return Target(name, True, False,
                  lambda v: RunConfig("pipeline", input="i", output="o", **{name: v}),
                  lambda c: getattr(c, name))


TARGETS = [
    _decode_field("beam_size", True),
    _decode_field("max_length", True),
    _decode_field("seed", True),
    _decode_field("top_k", True, optional=True),
    _decode_field("no_repeat_ngram_size", True, optional=True),
    _decode_field("temperature", False),
    _decode_field("top_p", False, optional=True),
    *(Target(name, False, False, lambda v, name=name: FilterConfig(**{name: v}),
             lambda c, name=name: getattr(c, name))
      for name in ("min_summary_chars", "min_body_chars", "min_body_to_summary_ratio",
                   "max_overlap_ratio")),
    Target("order", True, False, lambda v: NGramModel(VOCAB, v, 1.0, {}), lambda m: m.order),
    Target("alpha", False, False, lambda v: NGramModel(VOCAB, 2, v, {})),
    Target("order", True, False, lambda v: train_ngram([[0, 1]], v, 1.0, VOCAB),
           lambda m: m.order),
    Target("alpha", False, False, lambda v: train_ngram([[0, 1]], 2, v, VOCAB)),
    Target("temperature", False, False, lambda v: apply_temperature([0.0, 1.0], v)),
    Target("k", True, False, lambda v: top_k_filter(DIST, v)),
    Target("p", False, False, lambda v: top_p_filter(DIST, v)),
    Target("n", True, False, lambda v: block_repeated_ngrams([0, 1, 0], DIST, v, 2)),
    Target("n-gram order", True, False, lambda v: ngrams(["a", "b"], v)),
    Target("n", True, False, lambda v: rouge_n(["a"], ["a"], v)),
    Target("n_validation", True, False, lambda v: split_validation(range(5), v, 0)),
    _run_field("workers"),
    _run_field("n_validation"),
]

_NOT_REAL = st.booleans() | st.text(max_size=3) | st.builds(object)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf]).flatmap(
    lambda x: st.sampled_from([x, np.float64(x), np.float32(x)]))
# a count refuses every float, an integral one too
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.just(np.float64(2.0))


@st.composite
def _bad_values(draw):
    target = draw(st.sampled_from(TARGETS))
    bad = _NOT_REAL | _NON_FINITE
    if target.is_count:
        bad |= _FLOATS
    if not target.optional:
        bad |= st.none()
    return target, draw(bad)


@settings(max_examples=300, deadline=None)
@given(case=_bad_values())
def test_a_bad_value_is_refused_by_name(case):
    target, value = case
    with pytest.raises((TypeError, ValueError)) as err:
        target.build(value)
    assert str(err.value).startswith(target.name + " must be ")


@st.composite
def _numpy_values(draw):
    target = draw(st.sampled_from(TARGETS))
    # 1..5 and 0.25..1 lie in every target's range
    if target.is_count:
        kind = draw(st.sampled_from([np.int8, np.int64, np.uint16, np.intp]))
        return target, kind(draw(st.integers(1, 5)))
    kind = draw(st.sampled_from([np.float16, np.float32, np.float64, np.int64]))
    return target, kind(draw(st.floats(0.25, 1.0) if kind is not np.int64 else st.just(1)))


@settings(max_examples=200, deadline=None)
@given(case=_numpy_values())
def test_numpy_numbers_are_accepted_and_counts_stored_as_ints(case):
    target, value = case
    built = target.build(value)
    if target.stored is not None:
        stored = target.stored(built)
        if target.is_count:
            assert type(stored) is int and stored == value
        else:  # a real is kept as given
            assert stored is value


def test_none_turns_an_optional_field_off():
    for target in TARGETS:
        if target.optional:
            assert target.stored(target.build(None)) is None


def test_real_returns_its_value_unconverted():
    assert type(real("x", 2)) is int and real("x", 2) == 2
    # a float32 or float16 is compared with the infinities, which it holds,
    # not with the largest double, whose cast to it overflows
    for kind in (np.float16, np.float32):
        assert type(real("x", kind(0.5))) is kind
        with pytest.raises(ValueError, match="^x must be a finite number, got -inf$"):
            real("x", kind(-np.inf))


def test_count_words_its_range_error_by_its_least_value():
    with pytest.raises(ValueError, match="^x must be nonnegative$"):
        count("x", -1, 0)
    with pytest.raises(ValueError, match="^x must be at least 2$"):
        count("x", 1, 2)
    with pytest.raises(TypeError, match="^x must be an integer, not bool$"):
        count("x", True, 0)


@pytest.mark.parametrize("build, error", [
    pytest.param(lambda: DecodeConfig(temperature=math.inf), ValueError, id="temperature-inf"),
    pytest.param(lambda: DecodeConfig(temperature=True), TypeError, id="temperature-bool"),
    pytest.param(lambda: DecodeConfig(top_p=True), TypeError, id="top_p-bool"),
    pytest.param(lambda: DecodeConfig(temperature="2"), TypeError, id="temperature-str"),
    pytest.param(lambda: FilterConfig(min_body_to_summary_ratio=math.inf), ValueError,
                 id="ratio-inf"),
    pytest.param(lambda: FilterConfig(max_overlap_ratio=True), TypeError, id="overlap-bool"),
    pytest.param(lambda: FilterConfig(min_body_chars="3"), TypeError, id="body-chars-str"),
    pytest.param(lambda: train_ngram([[0, 1]], True, 1.0, VOCAB), TypeError,
                 id="train-order-bool"),
    pytest.param(lambda: rouge_n(["a"], ["a"], True), TypeError, id="rouge-n-bool"),
    pytest.param(lambda: apply_temperature([0.0, 1.0], math.inf), ValueError,
                 id="apply-temperature-inf"),
])
def test_values_once_accepted_are_refused(build, error):
    with pytest.raises(error):
        build()


def test_numpy_order_saves_and_reloads(tmp_path):
    model = train_ngram([[0, 1, 0]], np.int64(3), np.float64(0.5), VOCAB)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = NGramModel.load(path)
    assert type(loaded.order) is int and loaded.order == 3
    assert loaded.counts == model.counts


@pytest.mark.parametrize("kwargs, message", [
    ({"command": "filter"}, "filter requires --input"),
    ({"command": "filter", "input": "i"}, "filter requires --output"),
    ({"command": "decode", "input": "i", "output": "o"}, "decode requires --model"),
    ({"command": "pipeline", "input": "i", "output": "o", "workers": 0},
     "workers must be at least 1"),
    ({"command": "pipeline", "input": "i", "output": "o", "temperature": math.inf},
     "temperature must be a finite number, got inf"),
])
def test_run_config_checks_itself(kwargs, message):
    # run() once met these as a TypeError traceback deep inside a command
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(RunConfig(**kwargs))


def test_run_config_keeps_plain_int_counts():
    config = RunConfig("train-lm", input="i", output="o", ngram_order=np.int64(4),
                       seed=np.uint8(3), beam_size=np.int32(2))
    assert [type(v) for v in (config.ngram_order, config.seed, config.beam_size)] == [int] * 3


#: The RunConfig fields that go through ``real``, each with a value of its range.
_RUN_REALS = {"temperature": 1, "top_p": 1, "alpha": 1, "min_summary_chars": 5,
              "min_body_chars": 5, "min_ratio": 1, "max_overlap_ratio": 1}


@pytest.mark.parametrize("name", _RUN_REALS)
@pytest.mark.parametrize("kind, plain", [(np.int64, int), (np.float64, float),
                                         (np.float32, float)])
def test_run_config_stores_numpy_reals_as_plain_numbers(name, kind, plain):
    value = kind(_RUN_REALS[name] if kind is np.int64 else 0.3)
    config = RunConfig("pipeline", input="i", output="o", **{name: value})
    stored = getattr(config, name)
    assert type(stored) is plain and stored == value
    json.dumps(asdict(config))  # what every report echoes


def test_run_config_keeps_plain_reals_as_given():
    config = RunConfig("pipeline", input="i", output="o", temperature=2, alpha=0.5)
    assert type(config.temperature) is int and config.temperature == 2
    assert type(config.alpha) is float


def test_a_numpy_real_echoes_in_a_report(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"source": "a.lt", "url": "u", "published_at": "2020-01-01",
                                  "summary": "s" * 20, "body": "b" * 200}) + "\n")
    config = RunConfig("filter", input=str(corpus), output=str(tmp_path / "kept.jsonl"),
                       min_summary_chars=np.int64(5))
    assert run(config) == 0
    assert json.loads(capsys.readouterr().out)["config"]["min_summary_chars"] == 5


_HUGE = 10**400


@pytest.mark.parametrize("build, name", [
    pytest.param(lambda v: train_ngram([[0, 1]], 2, v, VOCAB), "alpha", id="train_ngram"),
    pytest.param(lambda v: NGramModel(VOCAB, 2, v, {}), "alpha", id="NGramModel"),
    pytest.param(lambda v: FilterConfig(min_body_chars=v), "min_body_chars", id="FilterConfig"),
])
@pytest.mark.parametrize("sign", [1, -1])
def test_an_integer_too_large_for_a_float_is_refused(build, name, sign):
    # it once passed the check and then overflowed at float(alpha)
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, got "):
        build(sign * _HUGE)
