"""Decoding and evaluation toolkit for abstractive news summarization.

Pipeline stages, each usable on its own:

- :mod:`santrauka.corpus` ingests, filters, and splits article corpora
- :mod:`santrauka.tokenizer` handles words, n-grams, and subword pieces
- :mod:`santrauka.lm` defines the model interface and an n-gram model
- :mod:`santrauka.decode` searches or samples output sequences
- :mod:`santrauka.metrics` scores summaries and aggregates reports
- :mod:`santrauka.cli` wires everything into reproducible batch runs

The package re-exports the function :func:`~santrauka.decode.decode`, and
that name shadows the submodule: ``santrauka.decode`` is the function, and
so is ``import santrauka.decode as m``. Reach the module itself with
``importlib.import_module("santrauka.decode")`` or
``sys.modules["santrauka.decode"]``.
"""

from santrauka.corpus import (
    Article,
    FilterConfig,
    FilterReport,
    corpus_stats,
    filter_article,
    ingest,
    longest_common_substring_len,
    overlap_ratio,
    split_validation,
)
from santrauka.decode import (
    DecodeConfig,
    DecodeResult,
    Hypothesis,
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
from santrauka.lm import (
    LanguageModel,
    NGramModel,
    TableModel,
    UnseenContextError,
    apply_temperature,
    negative_log_likelihood,
    softmax,
    train_ngram,
)
from santrauka.metrics import (
    EvalRecord,
    EvalSummary,
    RougeScore,
    aggregate,
    evaluate_pair,
    is_repetitive,
    length_fraction,
    register_stemmer,
    render_table,
    rouge_l,
    rouge_n,
    stem_normalize,
)
from santrauka.tokenizer import (
    TokenSequence,
    Vocabulary,
    char_vocabulary,
    detokenize,
    ngrams,
    viterbi_segment,
    word_tokenize,
)

__version__ = "0.1.0"
