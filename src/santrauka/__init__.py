"""Decoding and evaluation toolkit for abstractive news summarization.

Pipeline stages, each usable on its own:

- :mod:`santrauka.corpus` ingests, filters, and splits article corpora
- :mod:`santrauka.tokenizer` handles words, n-grams, and subword pieces
- :mod:`santrauka.lm` defines the model interface and an n-gram model
- :mod:`santrauka.decode` searches or samples output sequences
- :mod:`santrauka.metrics` scores summaries and aggregates reports
- :mod:`santrauka.cli` wires everything into reproducible batch runs

The package loads lazily, by one rule. ``import santrauka.<module>`` loads
that module and what it imports, no more: ``import santrauka.metrics``
followed by ``from santrauka.metrics import evaluate_pair`` scores without
numpy. The first read of a name from the package itself (``santrauka.X``,
``from santrauka import X`` or ``import santrauka.X as m``, where ``X`` is
a re-exported name or one of the six submodules above that supply them)
loads every re-export, as an eager import of the package would.

The package re-exports the function :func:`~santrauka.decode.decode`, and
that name shadows the submodule: ``santrauka.decode`` is the function, and
so is ``import santrauka.decode as m``, whatever was imported first. Reach
the module itself with ``importlib.import_module("santrauka.decode")`` or
``sys.modules["santrauka.decode"]``.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

#: Each submodule and the names the package re-exports from it.
_EXPORTS = {
    "corpus": (
        "Article",
        "FilterConfig",
        "FilterReport",
        "corpus_stats",
        "filter_article",
        "ingest",
        "longest_common_substring_len",
        "overlap_ratio",
        "split_validation",
    ),
    "decode": (
        "DecodeConfig",
        "DecodeResult",
        "Hypothesis",
        "batch_decode",
        "beam_search",
        "block_repeated_ngrams",
        "decode",
        "greedy_decode",
        "sample_decode",
        "top_k_filter",
        "top_p_filter",
    ),
    "fixtures": ("greedy_trap_model",),
    "lm": (
        "LanguageModel",
        "NGramModel",
        "TableModel",
        "UnseenContextError",
        "apply_temperature",
        "negative_log_likelihood",
        "softmax",
        "train_ngram",
    ),
    "metrics": (
        "EvalRecord",
        "EvalSummary",
        "RougeScore",
        "aggregate",
        "evaluate_pair",
        "is_repetitive",
        "length_fraction",
        "register_stemmer",
        "render_table",
        "rouge_l",
        "rouge_n",
        "stem_normalize",
    ),
    "tokenizer": (
        "TokenSequence",
        "Vocabulary",
        "char_vocabulary",
        "detokenize",
        "ngrams",
        "viterbi_segment",
        "word_tokenize",
    ),
}

#: The submodules, then the names, with ``decode`` once: it is the function.
__all__ = list(dict.fromkeys([*_EXPORTS, *(n for names in _EXPORTS.values() for n in names)]))


def _load() -> None:
    """Import every submodule of the table and bind it and its re-exports.

    Idempotent, so a second thread that calls it meanwhile binds the same
    objects; the import system serializes the imports themselves.
    """
    modules = {sub: _import_module(f"{__name__}.{sub}") for sub in _EXPORTS}
    bound = dict(modules)
    for sub, names in _EXPORTS.items():
        bound.update((name, getattr(modules[sub], name)) for name in names)
    # in one update, so no other thread reads santrauka.decode as the module
    globals().update(bound)
    _sys.modules[__name__].__class__ = _ModuleType


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Unloaded(_ModuleType):
    """The package's class until :func:`_load` runs.

    Importing a submodule binds it on the package, which would let a read
    of ``santrauka.metrics`` or ``santrauka.decode`` find it without
    :func:`__getattr__`, and so without loading the re-exports. Until they
    are loaded, the binding is held back; :func:`_load` makes it.
    """

    def __setattr__(self, name: str, value) -> None:
        if name in _EXPORTS and value is _sys.modules.get(f"{__name__}.{name}"):
            return
        # not super(): another thread's _load may have changed the class
        _ModuleType.__setattr__(self, name, value)


_sys.modules[__name__].__class__ = _Unloaded
