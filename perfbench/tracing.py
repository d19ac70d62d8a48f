"""Spans and counters recorded around calls into santrauka's layers.

Nothing here changes the program. For a traced run, :func:`patched`
swaps each public layer function for a wrapper that records a span and
calls the original, everywhere a santrauka module binds that function,
and puts every original back on exit. Spans and counters stay in memory
until :meth:`Tracer.write` dumps them at the end of the run.

A span is ``[name, start, end, parent, trace_id]``; spans of one prompt
or one evaluated pair share a trace id. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from santrauka import corpus, lm, metrics, tokenizer
from santrauka.tokenizer import token_ids

decode_module = sys.modules["santrauka.decode"]  # the package attribute is the function


class CountingModel(lm.LanguageModel):
    """Delegates to a model and counts the calls made into it.

    Records the number of ``next_logits`` calls, the time spent inside
    them, and the longest prefix seen since :meth:`start_prompt`.
    """

    def __init__(self, inner: lm.LanguageModel):
        self._inner = inner
        self.calls = 0
        self.call_seconds = 0.0
        self.longest = 0

    @property
    def vocab(self):
        return self._inner.vocab

    def next_logits(self, prefix):
        started = perf_counter()
        logits = self._inner.next_logits(prefix)
        self.call_seconds += perf_counter() - started
        self.calls += 1
        if len(prefix) > self.longest:
            self.longest = len(prefix)
        return logits

    def start_prompt(self) -> None:
        self.longest = -1

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.models: list[CountingModel] = []
        #: (prompt ids, config, result) of every decode seen
        self.decodes: list[tuple] = []
        #: (args, kwargs, record) of every evaluate_pair call seen
        self.pairs: list[tuple] = []
        self._stack: list[int] = []
        self._last_trace = 0

    @contextmanager
    def span(self, name: str, new_trace: bool = False):
        parent = self._stack[-1] if self._stack else -1
        if new_trace:
            self._last_trace += 1
            trace_id = self._last_trace
        else:
            trace_id = self.spans[parent][4] if parent >= 0 else 0
        record = [name, perf_counter(), None, parent, trace_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def counting(self, model: lm.LanguageModel) -> CountingModel:
        wrapped = CountingModel(model)
        self.models.append(wrapped)
        return wrapped

    def self_seconds(self) -> Counter:
        """Self time summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return totals

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trace_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trace": trace_id}) + "\n")

    def wrappers(self) -> dict:
        """Original layer function -> tracing wrapper.

        Each wrapper calls the original it was built from, so it stays
        correct while :func:`patched` has rebound the module attribute.
        """
        span = self.span
        counts = self.counts
        ingest_fn = corpus.ingest
        filter_fn = corpus.filter_article
        segment_fn = tokenizer.viterbi_segment
        train_fn = lm.train_ngram
        decode_fn = decode_module.decode
        evaluate_fn = metrics.evaluate_pair
        rouge_l_fn = metrics.rouge_l

        def simple(fn, name):
            def traced(*args, **kwargs):
                with span(name):
                    return fn(*args, **kwargs)
            return traced

        def ingest(path, errors=None):
            with span("corpus.ingest"):
                articles = list(ingest_fn(path, errors))
            counts["corpus.articles"] += len(articles)
            return iter(articles)

        def filter_article(article, config):
            with span("corpus.filter"):
                decision = filter_fn(article, config)
            counts["corpus.kept"] += decision is None
            return decision

        def viterbi_segment(text, vocab):
            with span("tokenizer.segment"):
                seq = segment_fn(text, vocab)
            counts["tokenizer.tokens_out"] += len(seq.ids)
            counts["tokenizer.unk"] += seq.ids.count(vocab.unk_id)
            return seq

        def train_ngram(*args, **kwargs):
            with span("lm.train"):
                model = train_fn(*args, **kwargs)
            counts["lm.contexts"] += len(model.counts)
            return self.counting(model)

        def decode(model, prompt, config):
            ids = token_ids(prompt)
            if isinstance(model, CountingModel):
                model.start_prompt()
            with span("decode.prompt", new_trace=True):
                try:
                    result = decode_fn(model, prompt, config)
                except Exception:
                    counts["decode.errors"] += 1
                    raise
            if isinstance(model, CountingModel) and model.longest >= 0:
                counts["decode.steps_run"] += model.longest - len(ids) + 1
            counts["decode.step_budget"] += config.max_length
            counts["decode.output_tokens"] += result.steps
            counts["decode.empty_outputs"] += result.text == ""
            self.decodes.append((ids, config, result))
            return result

        def evaluate_pair(*args, **kwargs):
            with span("metrics.evaluate", new_trace=True):
                record = evaluate_fn(*args, **kwargs)
            counts["metrics.pairs"] += 1
            self.pairs.append((args, kwargs, record))
            return record

        def rouge_l(candidate, reference):
            with span("metrics.rouge_l"):
                score = rouge_l_fn(candidate, reference)
            counts["metrics.lcs_cells"] += len(candidate) * len(reference)
            return score

        return {
            ingest_fn: ingest,
            filter_fn: filter_article,
            corpus.corpus_stats: simple(corpus.corpus_stats, "corpus.filter"),
            corpus.split_validation: simple(corpus.split_validation, "corpus.split"),
            tokenizer.char_vocabulary: simple(tokenizer.char_vocabulary, "tokenizer.vocab"),
            segment_fn: viterbi_segment,
            train_fn: train_ngram,
            decode_module.batch_decode: simple(decode_module.batch_decode, "decode.batch"),
            decode_fn: decode,
            evaluate_fn: evaluate_pair,
            metrics.aggregate: simple(metrics.aggregate, "metrics.aggregate"),
            metrics.render_table: simple(metrics.render_table, "metrics.aggregate"),
            tokenizer.word_tokenize: simple(tokenizer.word_tokenize, "metrics.tokenize"),
            metrics.stem_normalize: simple(metrics.stem_normalize, "metrics.tokenize"),
            metrics.rouge_n: simple(metrics.rouge_n, "metrics.rouge_n"),
            rouge_l_fn: rouge_l,
        }

    def layer_metrics(self, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics of this run, tracing overhead included."""
        ms = {name: seconds * 1e3 for name, seconds in self.self_seconds().items()}
        c = self.counts
        calls = sum(m.calls for m in self.models)
        call_ms = sum(m.call_seconds for m in self.models) * 1e3
        decode_ms = sum(v for name, v in ms.items() if name.startswith("decode."))
        output_tokens = c["decode.output_tokens"]
        overhead_ms = (traced_s - untraced_s) * 1e3
        return {
            "corpus.ingest_ms": ms.get("corpus.ingest", 0.0),
            "corpus.filter_ms": ms.get("corpus.filter", 0.0),
            "corpus.split_ms": ms.get("corpus.split", 0.0),
            "corpus.articles": c["corpus.articles"],
            "corpus.kept": c["corpus.kept"],
            "tokenizer.segment_ms": ms.get("tokenizer.segment", 0.0),
            "tokenizer.vocab_ms": ms.get("tokenizer.vocab", 0.0),
            "tokenizer.tokens_out": c["tokenizer.tokens_out"],
            "tokenizer.unk_share": _ratio(c["tokenizer.unk"], c["tokenizer.tokens_out"]),
            "lm.train_ms": ms.get("lm.train", 0.0),
            "lm.load_ms": ms.get("lm.load", 0.0),
            "lm.contexts": c["lm.contexts"],
            "lm.calls": calls,
            "lm.call_ms": call_ms,
            "lm.us_per_call": _ratio(call_ms * 1e3, calls),
            "decode.self_ms": decode_ms - call_ms if decode_ms else 0.0,
            "decode.steps_run": c["decode.steps_run"],
            "decode.step_budget": c["decode.step_budget"],
            "decode.steps_per_budget": _ratio(c["decode.steps_run"], c["decode.step_budget"]),
            "decode.calls_per_output_token": _ratio(calls, output_tokens),
            "decode.output_tokens": output_tokens,
            "decode.empty_outputs": c["decode.empty_outputs"],
            "decode.errors": c["decode.errors"],
            "metrics.tokenize_ms": ms.get("metrics.tokenize", 0.0),
            "metrics.rouge_n_ms": ms.get("metrics.rouge_n", 0.0),
            "metrics.rouge_l_ms": ms.get("metrics.rouge_l", 0.0),
            "metrics.self_ms": ms.get("metrics.evaluate", 0.0) + ms.get("metrics.aggregate", 0.0),
            "metrics.lcs_cells": c["metrics.lcs_cells"],
            "metrics.pairs": c["metrics.pairs"],
            "cli.overhead_ms": ms.get("cli.main", 0.0),
            "trace.overhead_ms": overhead_ms,
            "trace.overhead_share": _ratio(overhead_ms, untraced_s * 1e3),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _santrauka_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "santrauka" or name.startswith("santrauka.")
    ]


@contextmanager
def patched(replacements: dict):
    """Bind each replacement wherever a santrauka module binds the original.

    The originals are restored on exit, whatever happens inside.
    """
    by_id = {id(original): (original, new) for original, new in replacements.items()}
    undo = []
    try:
        for module in _santrauka_modules():
            for attr, value in list(vars(module).items()):
                original, new = by_id.get(id(value), (None, None))
                if original is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, new)
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


def capturing_batch_decode(sink: list) -> dict:
    """A replacement that records every batch_decode's inputs and results."""
    original = decode_module.batch_decode

    def capture(model, prompts, config, *args, **kwargs):
        results = original(model, prompts, config, *args, **kwargs)
        sink.append((list(prompts), config, results))
        return results

    return {original: capture}
