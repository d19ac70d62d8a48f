"""Language-model interface, count-based n-gram model, probability shaping.

Any next-token model can drive the decoders as long as it maps a prefix
of token ids to a logit vector over the vocabulary. The bundled
implementation is a count-and-normalize n-gram model with additive
smoothing: P(w | ctx) = (count(ctx, w) + alpha) / (total(ctx) + alpha * V).

Sequence boundaries: training left-pads each sequence with n-1 begin
markers (internal only, never predicted) and appends one terminal eos,
so a trained model can always halt a decode. Likelihoods are summed in
natural log, including the terminal eos event of every sequence.

Training counts its windows in numpy, a few thousand ids at a time: each
window is coded as one integer and the codes are grouped by a stable
sort, so the counts, and their order, are those of a per-token loop.
``train-lm`` and ``pipeline`` without ``--vocab`` train on texts with the
character vocabulary built from them, and those texts are not segmented:
the tokenizer maps their code points to ids with one ``np.searchsorted``
and lays them out with their pads in arrays of whole texts, which the
same window counter counts.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from abc import ABC, abstractmethod
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from santrauka._checks import count, real
from santrauka.tokenizer import TokenSequence, Vocabulary, _CharCorpus, token_ids

__all__ = [
    "BEGIN",
    "LanguageModel",
    "NGramModel",
    "TableModel",
    "UnseenContextError",
    "apply_temperature",
    "negative_log_likelihood",
    "softmax",
    "softmax_rows",
    "train_ngram",
]

#: Context padding marker for positions before the sequence start.
#: Not a vocabulary id and never part of the predicted distribution.
BEGIN = -1

MODEL_FORMAT_VERSION = 1


class UnseenContextError(ValueError):
    """Raised when an unsmoothed model meets a context it never counted."""


def softmax(logits) -> np.ndarray:
    """Normalized exponentials, stabilized by subtracting the max logit.

    Entries of -inf act as hard bans and map to probability 0. A vector
    with no finite entry has no distribution and raises ValueError.
    """
    y = np.asarray(logits, dtype=float)
    if y.size == 0:
        raise ValueError("empty logit vector")
    return softmax_rows(y.reshape(1, -1)).reshape(y.shape)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise :func:`softmax` of a 2-D array, each row bit-identical to
    the softmax of that row alone; errors if any row has no distribution."""
    y = np.asarray(logits, dtype=float)
    m = y.max(axis=1, keepdims=True)
    # a NaN or +inf entry makes its row's max non-finite, as does a row of -inf
    if not np.isfinite(m).all():
        if not (y < np.inf).all():
            raise ValueError("logits must be finite or -inf")
        raise ValueError("all logits are -inf")
    z = np.exp(y - m)
    return z / z.sum(axis=1, keepdims=True)


def apply_temperature(logits, tau: float) -> np.ndarray:
    """Distribution of logits scaled by 1/tau; tau=1 is plain softmax.

    Larger tau flattens the distribution, smaller tau sharpens it; the
    argmax never moves.
    """
    if not real("temperature", tau) > 0:
        raise ValueError("temperature must be positive")
    return softmax(np.asarray(logits, dtype=float) / tau)


class LanguageModel(ABC):
    """Next-token model over a fixed vocabulary.

    ``next_logits`` must be deterministic for a fixed model and prefix and
    return one score per vocabulary id. Models are immutable once built
    and safe to share across workers.

    ``context_width`` is how many trailing prefix ids the logits read:
    ``next_logits`` and ``next_distribution`` of a prefix must equal, bit
    for bit, those of its last ``context_width`` ids (all of a shorter
    prefix), and :func:`negative_log_likelihood` passes only those ids.
    Decoders key what they shape from a row by those ids and keep it while
    the model lives, so such a model must be hashable and weakly
    referenceable. None, the default, means the whole prefix, and decoders
    keep nothing.
    """

    context_width: int | None = None

    @property
    @abstractmethod
    def vocab(self) -> Vocabulary: ...

    @abstractmethod
    def next_logits(self, prefix) -> np.ndarray: ...

    def next_logits_batch(self, prefixes: Sequence) -> np.ndarray:
        """Logits of every prefix as an (n x V) matrix, row i for prefix i.

        Row i must equal ``next_logits(prefixes[i])`` bit for bit. This
        default stacks those calls; a model with a real batched forward
        pass overrides it.
        """
        rows = [np.asarray(self.next_logits(p), dtype=float) for p in prefixes]
        # the reshape gives an empty batch its (0 x V) shape
        return np.array(rows).reshape(len(rows), len(self.vocab))

    def next_distribution(self, prefix) -> np.ndarray:
        return softmax(self.next_logits(prefix))


def _check_order_alpha(order: int, alpha: float) -> int:
    order = count("order", order, 1)
    if not real("alpha", alpha) >= 0:
        raise ValueError("alpha must be finite and nonnegative")
    return order


class NGramModel(LanguageModel):
    """Count-based conditional model of fixed order with additive smoothing.

    Each row is computed from the counts on every call and nothing is
    kept; decoders keep what they shape from a row. With ``alpha=0`` a
    context without counts has no distribution and raises
    :class:`UnseenContextError`.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        alpha: float,
        counts: dict[tuple[int, ...], dict[int, int]],
    ):
        order = _check_order_alpha(order, alpha)
        self._vocab = vocab
        self._order = order
        self._alpha = float(alpha)
        size = len(vocab)
        # one pass checks every bucket; only a fault sends them through
        # _check_bucket one by one, which raises the first bucket's error
        try:
            tokens = np.fromiter(chain.from_iterable(counts.values()), np.intp)
            values = np.fromiter(chain.from_iterable(b.values() for b in counts.values()), float)
            sound = (all(len(ctx) == order - 1 for ctx in counts)
                     and all(x == BEGIN or 0 <= x < size for x in set(chain.from_iterable(counts)))
                     and not (tokens.size and (tokens.min() < 0 or tokens.max() >= size))
                     and not (values < 0).any())
        except Exception:  # noqa: BLE001 - _check_bucket raises it again, in bucket order
            sound = False
        if not sound:
            for ctx, bucket in counts.items():
                _check_bucket(ctx, bucket, order, size)
        self._counts = {ctx: dict(bucket) for ctx, bucket in counts.items()}
        self._totals = {ctx: sum(bucket.values()) for ctx, bucket in self._counts.items()}
        #: context -> (token ids, counts) as arrays, for filling a row
        ends = accumulate(map(len, self._counts.values()))
        self._rows = {ctx: (tokens[end - len(bucket) : end], values[end - len(bucket) : end])
                      for (ctx, bucket), end in zip(self._counts.items(), ends)}

    @property
    def vocab(self) -> Vocabulary:
        return self._vocab

    @property
    def order(self) -> int:
        return self._order

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def counts(self) -> dict[tuple[int, ...], dict[int, int]]:
        return self._counts

    @property
    def context_width(self) -> int:
        return self._order - 1

    def context_of(self, prefix) -> tuple[int, ...]:
        """Last order-1 prefix ids, left-padded with BEGIN markers.

        Each id read must be an integer (TypeError on a float) in [0, V);
        BEGIN is the model's own padding, never a prefix id.
        """
        width = self._order - 1
        if width == 0:
            return ()
        ids = prefix if isinstance(prefix, (tuple, list)) else token_ids(prefix)
        tail = tuple(map(operator.index, ids[-width:]))
        size = len(self._vocab)
        for x in tail:
            if not 0 <= x < size:
                raise ValueError(f"prefix id {x} outside [0, {size})")
        return (BEGIN,) * (width - len(tail)) + tail

    def _probs(self, ctx: tuple[int, ...]) -> np.ndarray:
        size = len(self._vocab)
        total = self._totals.get(ctx, 0)
        denom = total + self._alpha * size
        if denom == 0:
            raise UnseenContextError(
                f"context {ctx} never observed and alpha=0 leaves it undefined"
            )
        row = np.full(size, self._alpha)
        if total:
            tokens, values = self._rows[ctx]
            row[tokens] += values
        row /= denom
        return row

    def next_distribution(self, prefix) -> np.ndarray:
        return self._probs(self.context_of(prefix))

    def next_logits(self, prefix) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self._probs(self.context_of(prefix)))

    def to_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "order": self._order,
            "alpha": self._alpha,
            "vocab_hash": self._vocab.content_hash(),
            "vocab": self._vocab.to_dict(),
            "counts": {
                " ".join(map(str, ctx)): {str(t): c for t, c in sorted(bucket.items())}
                for ctx, bucket in sorted(self._counts.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: dict, vocab: Vocabulary | None = None) -> "NGramModel":
        """The model of a :meth:`to_dict` payload; a payload of another shape
        raises ValueError naming the key, or KeyError for a missing one."""
        if not isinstance(payload, dict):
            raise ValueError("model payload must be a JSON object")
        version = payload.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {version!r}")
        order, alpha, counts = payload["order"], payload["alpha"], payload["counts"]
        if type(order) is not int:
            raise ValueError("key 'order' must be an integer")
        # rejects bool, NaN, the infinities and ints too large for a float
        if type(alpha) not in (int, float) or not abs(alpha) <= sys.float_info.max:
            raise ValueError("key 'alpha' must be a finite number")
        if not isinstance(counts, dict) or not all(
            isinstance(bucket, dict) and all(type(c) is int for c in bucket.values())
            for bucket in counts.values()
        ):
            raise ValueError("key 'counts' must map contexts to objects of integer counts")
        if vocab is None:
            vocab = Vocabulary.from_dict(payload["vocab"])
        if vocab.content_hash() != payload["vocab_hash"]:
            raise ValueError("vocabulary hash mismatch: model was trained on a different vocabulary")
        counts = {
            tuple(int(x) for x in ctx.split()) if ctx else (): {
                int(t): c for t, c in bucket.items()
            }
            for ctx, bucket in counts.items()
        }
        return cls(vocab, order, alpha, counts)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, ensure_ascii=False)

    @classmethod
    def load(cls, path, vocab: Vocabulary | None = None) -> "NGramModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), vocab=vocab)


#: Flat ids :func:`train_ngram` gathers before counting their windows: few
#: enough that a generator of streams trains in bounded memory.
_CHUNK = 4096

_INT64_MAX = np.iinfo(np.int64).max


def _check_bucket(ctx, bucket: dict, order: int, size: int) -> None:
    """Raise ValueError naming ``ctx`` if its bucket cannot be counts of an
    ``order``-gram model over ``size`` ids."""
    if len(ctx) != order - 1:
        raise ValueError(f"context {ctx}: width {len(ctx)}, expected order - 1 = {order - 1}")
    if any(x != BEGIN and not 0 <= x < size for x in ctx):
        raise ValueError(f"context {ctx}: ids must be BEGIN or in [0, {size})")
    try:
        tokens = np.fromiter(bucket.keys(), dtype=np.intp, count=len(bucket))
        in_range = not tokens.size or 0 <= tokens.min() and tokens.max() < size
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValueError(f"context {ctx}: token ids must lie in [0, {size})")
    if (np.fromiter(bucket.values(), dtype=float, count=len(bucket)) < 0).any():
        raise ValueError(f"context {ctx}: negative count")


def train_ngram(
    streams: Iterable, order: int, alpha: float, vocab: Vocabulary | None = None
) -> NGramModel:
    """Collect n-gram counts from token streams and build the model.

    Streams may be TokenSequence objects (the vocabulary is taken from
    them) or plain id sequences with ``vocab`` passed explicitly; an id of
    a plain stream outside ``[0, V)`` raises ValueError naming the first.
    Every sequence contributes one window per token plus a terminal eos
    event. Each stream, padded with begin markers in front and eos at the
    end, joins one flat id list, whose ``order``-wide windows are counted
    by :func:`_count_windows` every ``_CHUNK`` ids; the windows are then
    grouped by context, both in first-occurrence order.

    Texts with the character vocabulary built from them (the tokenizer's
    ``_CharCorpus``) are not segmented: the tokenizer lays their ids out,
    padded the same way, in arrays of whole texts about ``_CHUNK`` long,
    and those are counted. The model is the one their segmented streams
    give.
    """
    order = _check_order_alpha(order, alpha)
    windows: dict[tuple[int, ...], int] = {}
    if isinstance(streams, _CharCorpus):
        if vocab is not None and vocab != streams.vocab:
            raise ValueError("streams mix different vocabularies")
        vocab = streams.vocab
        for ids in streams.id_groups(BEGIN, order - 1, _CHUNK):
            _count_windows(ids, order, len(vocab), windows)
    else:
        vocab = _count_streams(streams, order, vocab, windows)
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for window, count in windows.items():
        counts.setdefault(window[:-1], {})[window[-1]] = count
    return NGramModel(vocab, order, alpha, counts)


def _count_streams(streams: Iterable, order: int, vocab: Vocabulary | None,
                   windows: dict) -> Vocabulary:
    """Count the windows of :func:`train_ngram`'s token streams into
    ``windows``; the streams' vocabulary."""
    carry = order - 1
    begin = (BEGIN,) * carry
    buffer: list[int] = []
    seen_any = False
    for stream in streams:
        if isinstance(stream, TokenSequence):
            if vocab is None:
                vocab = stream.vocab
            elif stream.vocab != vocab:
                raise ValueError("streams mix different vocabularies")
            ids = stream.ids  # checked when the sequence was built
        elif vocab is None:
            raise ValueError("vocab is required when streams are plain id sequences")
        else:
            ids = token_ids(stream)
            if ids and not (0 <= min(ids) and max(ids) < len(vocab)):
                bad = next(i for i in ids if not 0 <= i < len(vocab))
                raise ValueError(f"token id {bad} outside [0, {len(vocab)})")
        seen_any = True
        buffer += begin
        buffer += ids
        buffer.append(vocab.eos_id)
        start = 0
        # a chunk's last windows begin in the order - 1 ids after it
        while len(buffer) - start >= _CHUNK + carry:
            chunk = np.fromiter(buffer[start : start + _CHUNK + carry], np.int64,
                                _CHUNK + carry)
            _count_windows(chunk, order, len(vocab), windows)
            start += _CHUNK
        del buffer[:start]
    if not seen_any:
        raise ValueError("cannot train on an empty corpus")
    if len(buffer) > carry:
        _count_windows(np.fromiter(buffer, np.int64, len(buffer)), order, len(vocab), windows)
    return vocab


def _count_windows(ids: np.ndarray, order: int, size: int, windows: dict) -> None:
    """Add each ``order``-wide window of the int64 array ``ids`` (ids in
    ``[0, size)`` or BEGIN) that ends on an id, not a begin pad, to
    ``windows``, new windows in first-occurrence order.

    A window's code is its ids shifted by one (BEGIN is 0), read in base
    ``size + 1``. Where the next digit could overflow int64, the partial
    codes are first replaced by their ranks.
    """
    ids = ids + 1
    n = len(ids) - order + 1
    base = size + 1
    code, top = ids[:n], size
    for k in range(1, order):
        if top * base + size > _INT64_MAX:
            _, code = np.unique(code, return_inverse=True)
            top = int(code.max())
        code = code * base + ids[k : k + n]
        top = top * base + size
    # one stable sort (numpy radix-sorts up to 16 bits, so in the narrowest
    # dtype that holds the codes): each run of equal codes starts at its
    # first occurrence
    rank = np.argsort(code.astype(np.min_scalar_type(top)), kind="stable")
    ranked = code[rank]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    # each window's tally at its first occurrence, read back in position order
    tallies = np.zeros(n, np.int64)
    tallies[rank[starts]] = np.diff(np.append(starts, n))
    first = np.flatnonzero(tallies)
    # a window that runs from one stream into the next ends on a begin pad
    first = first[ids[first + order - 1] != 0]
    rows = ids[first[:, None] + np.arange(order)] - 1
    for window, tally in zip(map(tuple, rows.tolist()), tallies[first].tolist()):
        windows[window] = windows.get(window, 0) + tally


def negative_log_likelihood(model: LanguageModel, dataset: Iterable) -> float:
    """Total -ln p of every next-token event in the dataset, in nats.

    Each sequence is scored token by token, then its terminal eos. The sum
    is additive over dataset concatenation. A zero-probability event makes
    the likelihood undefined and raises ValueError naming the position.
    """
    eos = model.vocab.eos_id
    width = model.context_width
    total = 0.0
    for k, stream in enumerate(dataset):
        ids = token_ids(stream) + (eos,)
        for i, tok in enumerate(ids):
            start = 0 if width is None else max(i - width, 0)
            p = float(model.next_distribution(ids[start:i])[tok])
            if p <= 0.0:
                raise ValueError(
                    f"zero probability for token {tok} at sequence {k}, position {i}"
                )
            total -= math.log(p)
    return total


class TableModel(LanguageModel):
    """First-order lookup model: one distribution per last prefix token.

    Useful for fixtures and demos where exact next-token probabilities
    must be dictated rather than estimated. An empty prefix reads the
    start row.
    """

    context_width = 1

    def __init__(
        self,
        vocab: Vocabulary,
        start: Sequence[float],
        transitions: dict[int, Sequence[float]] | None = None,
    ):
        self._vocab = vocab
        self._start = self._check_row(np.asarray(start, dtype=float))
        self._transitions = {
            int(t): self._check_row(np.asarray(row, dtype=float))
            for t, row in (transitions or {}).items()
        }

    def _check_row(self, row: np.ndarray) -> np.ndarray:
        if row.shape != (len(self._vocab),):
            raise ValueError("distribution length does not match vocabulary size")
        if not (row >= 0).all() or not abs(row.sum() - 1.0) <= 1e-9:
            raise ValueError("rows must be probability distributions")
        row.flags.writeable = False
        return row

    @property
    def vocab(self) -> Vocabulary:
        return self._vocab

    def next_distribution(self, prefix) -> np.ndarray:
        ids = token_ids(prefix)
        if not ids:
            return self._start
        last = ids[-1]
        if last not in self._transitions:
            raise KeyError(f"no transition row for token id {last}")
        return self._transitions[last]

    def next_logits(self, prefix) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.next_distribution(prefix))
