"""Language-model interface, count-based n-gram model, probability shaping.

Any next-token model can drive the decoders as long as it maps a prefix
of token ids to a logit vector over the vocabulary. The bundled
implementation is a count-and-normalize n-gram model with additive
smoothing: P(w | ctx) = (count(ctx, w) + alpha) / (total(ctx) + alpha * V).

Sequence boundaries: training left-pads each sequence with n-1 begin
markers (internal only, never predicted) and appends one terminal eos,
so a trained model can always halt a decode. Likelihoods are summed in
natural log, including the terminal eos event of every sequence.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

import numpy as np

from santrauka.tokenizer import TokenSequence, Vocabulary, token_ids

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
    if tau <= 0:
        raise ValueError("temperature must be positive")
    return softmax(np.asarray(logits, dtype=float) / tau)


class LanguageModel(ABC):
    """Next-token model over a fixed vocabulary.

    ``next_logits`` must be deterministic for a fixed model and prefix and
    return one score per vocabulary id. Models are immutable once built
    and safe to share across workers.
    """

    @property
    @abstractmethod
    def vocab(self) -> Vocabulary: ...

    @abstractmethod
    def next_logits(self, prefix) -> np.ndarray: ...

    def next_logits_batch(self, prefixes: Sequence) -> np.ndarray:
        """Logits of every prefix as an (n x V) matrix, row i for prefix i.

        Row i must equal ``next_logits(prefixes[i])`` bit for bit; this
        default stacks those calls, and models override it to do one call.
        """
        return np.stack([np.asarray(self.next_logits(p), dtype=float) for p in prefixes])

    def next_distribution(self, prefix) -> np.ndarray:
        return softmax(self.next_logits(prefix))


class NGramModel(LanguageModel):
    """Count-based conditional model of fixed order with additive smoothing."""

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        alpha: float,
        counts: dict[tuple[int, ...], dict[int, int]],
    ):
        if order < 1:
            raise ValueError("order must be at least 1")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self._vocab = vocab
        self._order = order
        self._alpha = float(alpha)
        self._counts = {}
        self._totals = {}
        #: context -> (token ids, counts) as arrays, for the batched fill
        self._rows = {}
        size = len(vocab)
        for ctx, bucket in counts.items():
            if len(ctx) != order - 1:
                raise ValueError(
                    f"context {ctx}: width {len(ctx)}, expected order - 1 = {order - 1}"
                )
            if any(x != BEGIN and not 0 <= x < size for x in ctx):
                raise ValueError(f"context {ctx}: ids must be BEGIN or in [0, {size})")
            try:
                tokens = np.fromiter(bucket.keys(), dtype=np.intp, count=len(bucket))
                in_range = not tokens.size or 0 <= tokens.min() and tokens.max() < size
            except OverflowError:
                in_range = False
            if not in_range:
                raise ValueError(f"context {ctx}: token ids must lie in [0, {size})")
            values = np.fromiter(bucket.values(), dtype=float, count=len(bucket))
            if (values < 0).any():
                raise ValueError(f"context {ctx}: negative count")
            self._counts[ctx] = dict(bucket)
            self._totals[ctx] = sum(bucket.values())
            self._rows[ctx] = (tokens, values)

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

    def context_of(self, prefix) -> tuple[int, ...]:
        """Last order-1 prefix ids, left-padded with BEGIN markers."""
        width = self._order - 1
        if width == 0:
            return ()
        ids = prefix if isinstance(prefix, (tuple, list)) else token_ids(prefix)
        tail = tuple(map(int, ids[-width:]))
        return (BEGIN,) * (width - len(tail)) + tail

    def _probs_batch(self, prefixes: Sequence) -> np.ndarray:
        size = len(self._vocab)
        smoothing = self._alpha * size
        probs = np.full((len(prefixes), size), self._alpha, dtype=float)
        denoms = []
        for row, prefix in zip(probs, prefixes):
            ctx = self.context_of(prefix)
            total = self._totals.get(ctx, 0)
            if total:
                tokens, values = self._rows[ctx]
                row[tokens] += values
            denom = total + smoothing
            if denom == 0:
                raise UnseenContextError(
                    f"context {ctx} never observed and alpha=0 leaves it undefined"
                )
            denoms.append(denom)
        probs /= np.array(denoms)[:, None]
        return probs

    def next_distribution(self, prefix) -> np.ndarray:
        return self._probs_batch([prefix])[0]

    def next_logits_batch(self, prefixes: Sequence) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self._probs_batch(prefixes))

    def next_logits(self, prefix) -> np.ndarray:
        return self.next_logits_batch([prefix])[0]

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
        version = payload.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {version!r}")
        if vocab is None:
            vocab = Vocabulary.from_dict(payload["vocab"])
        if vocab.content_hash() != payload["vocab_hash"]:
            raise ValueError("vocabulary hash mismatch: model was trained on a different vocabulary")
        counts = {
            tuple(int(x) for x in ctx.split()) if ctx else (): {
                int(t): int(c) for t, c in bucket.items()
            }
            for ctx, bucket in payload["counts"].items()
        }
        return cls(vocab, payload["order"], payload["alpha"], counts)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, ensure_ascii=False)

    @classmethod
    def load(cls, path, vocab: Vocabulary | None = None) -> "NGramModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), vocab=vocab)


def train_ngram(
    streams: Iterable, order: int, alpha: float, vocab: Vocabulary | None = None
) -> NGramModel:
    """Collect n-gram counts from token streams and build the model.

    Streams may be TokenSequence objects (the vocabulary is taken from
    them) or plain id sequences with ``vocab`` passed explicitly. Every
    sequence contributes one window per token plus a terminal eos event.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    seen_any = False
    for stream in streams:
        if isinstance(stream, TokenSequence):
            if vocab is None:
                vocab = stream.vocab
            elif stream.vocab != vocab:
                raise ValueError("streams mix different vocabularies")
        elif vocab is None:
            raise ValueError("vocab is required when streams are plain id sequences")
        seen_any = True
        ids = token_ids(stream)
        context = (BEGIN,) * (order - 1)
        for tok in ids + (vocab.eos_id,):
            bucket = counts.setdefault(context, {})
            bucket[tok] = bucket.get(tok, 0) + 1
            if order > 1:
                context = context[1:] + (tok,)
    if not seen_any:
        raise ValueError("cannot train on an empty corpus")
    return NGramModel(vocab, order, alpha, counts)


def negative_log_likelihood(model: LanguageModel, dataset: Iterable) -> float:
    """Total -ln p of every next-token event in the dataset, in nats.

    Each sequence is scored token by token, then its terminal eos. The sum
    is additive over dataset concatenation. A zero-probability event makes
    the likelihood undefined and raises ValueError naming the position.
    """
    eos = model.vocab.eos_id
    total = 0.0
    for k, stream in enumerate(dataset):
        ids = token_ids(stream)
        prefix: list[int] = []
        for i, tok in enumerate(ids + (eos,)):
            p = float(model.next_distribution(tuple(prefix))[tok])
            if p <= 0.0:
                raise ValueError(
                    f"zero probability for token {tok} at sequence {k}, position {i}"
                )
            total -= math.log(p)
            prefix.append(tok)
    return total


class TableModel(LanguageModel):
    """First-order lookup model: one distribution per last prefix token.

    Useful for fixtures and demos where exact next-token probabilities
    must be dictated rather than estimated.
    """

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
        if (row < 0).any() or abs(row.sum() - 1.0) > 1e-9:
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
