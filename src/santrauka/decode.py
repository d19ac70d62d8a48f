"""Sequence decoding over any language model: greedy, beam, and sampling.

Every step turns the model's logits into the distribution it uses, and
that into successors, by the rules of one ``_Shaping``, decided once per
search from its ``DecodeConfig`` and vocabulary.

Scores are raw cumulative log-probabilities of the selected tokens under
each step's shaped distribution; no length normalization is applied.
Ties anywhere resolve toward the lower token id, which makes every
decoder deterministic. Sampling draws from numpy's seeded PCG64 stream
through inverse-CDF lookup, so outputs are reproducible bit for bit.

``DecodeConfig.method`` selects the search, and all three run one loop:
greedy and sampling keep one hypothesis, beam search keeps ``beam_size``.
Each step keys every live hypothesis by its context (the last
``model.context_width`` ids of prompt plus generated ids), its banned ids
and whether the ban stage has begun. Only keys the model's memo lacks
under the shaping's key are scored, by one ``next_logits_batch`` call, and
shaped together into records, each bit-identical to shaping its row alone.
They stay until the model goes or the shaping key holds ``_MEMO_CAP``. A
model whose ``context_width`` is None reads the whole prefix, so its keys
never repeat and it keeps no records.

A search therefore sees its prompt only through the last
``model.context_width`` ids, and through its last id, which ends it at
once if it is eos; ``batch_decode`` runs one search for all the prompts
that no search could tell apart.

Selection never sorts a step's candidates. Each row's successors come
ranked most probable first, so their scores never rise along the row; a
heap merges the rows and stops once ``width`` are live, so only the
candidates it reaches are scored, each from its record's log. A run of
equal scores is sorted by id only where its ids descend. Steps add
log p <= 0, so a hypothesis strictly below the best finished score can
never win: the merge stops at the first such candidate, and a search
that does not sample drops such an eos successor too. At the merge's
head this is beam search's early stop, so a stopping step builds none;
further down, it prunes the beam. The pruned search returns the unpruned
one's result bit for bit from no more model rows. ``beam_search``'s
``return_all`` pool and the sampling paths, whose every row draws from
the seeded stream, keep every hypothesis, and that pool equals the pool of
a full sort tested after each step.
"""

from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from santrauka._checks import count, real
from santrauka.lm import LanguageModel, softmax_rows
from santrauka.tokenizer import TokenSequence, Vocabulary, token_ids

__all__ = [
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
]

METHODS = ("greedy", "beam", "sample")

#: A hypothesis inside the search, ``(-log_prob, ids)``: its order is the search order.
_Pair = tuple[float, tuple[int, ...]]

#: A row's ranked successors: the eos successor's log-probability, or None
#: when eos is not among them, then the other ids, most probable first,
#: with their ``math.log``s.
_Successors = tuple[float | None, tuple[int, ...], tuple[float, ...]]

#: model -> ``_Shaping.key`` -> (context, banned ids, ban stage begun) -> record;
#: a model's records go with it, a key's when a step finds ``_MEMO_CAP`` there.
_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_MEMO_CAP = 512


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding parameters shared by all methods.

    ``top_k``/``top_p``/``no_repeat_ngram_size`` are off when None. The
    ``sample_within_beam`` flag turns beam search stochastic: successor
    candidates are sampled from the filtered distribution instead of
    taken greedily.
    """

    method: str = "greedy"
    beam_size: int = 1
    top_k: int | None = None
    top_p: float | None = None
    temperature: float = 1.0
    no_repeat_ngram_size: int | None = None
    max_length: int = 128
    seed: int = 0
    sample_within_beam: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        for name, least in (("beam_size", 1), ("max_length", 1), ("seed", 0),
                            ("top_k", 1), ("no_repeat_ngram_size", 1)):
            value = getattr(self, name)
            if value is not None or name not in ("top_k", "no_repeat_ngram_size"):
                object.__setattr__(self, name, count(name, value, least))
        if not real("temperature", self.temperature) > 0:
            raise ValueError("temperature must be positive")
        if self.top_p is not None and not 0 < real("top_p", self.top_p) <= 1:
            raise ValueError("top_p must lie in (0, 1]")
        if not isinstance(self.sample_within_beam, bool):
            # a truthy string such as "no" would turn the beam stochastic
            kind = type(self.sample_within_beam).__name__
            raise TypeError(f"sample_within_beam must be a bool, not {kind}")


@dataclass(frozen=True)
class Hypothesis:
    """A ``return_all`` pool entry: generated ids (no prompt), their
    cumulative log-probability, and ``finished``, True in every returned pool."""

    ids: tuple[int, ...]
    log_prob: float
    finished: bool


@dataclass(frozen=True)
class DecodeResult:
    """A finished decode: generated ids, their text, score, step count."""

    tokens: TokenSequence
    text: str
    score: float
    steps: int


def top_k_filter(dist: np.ndarray, k: int) -> np.ndarray:
    """Keep the k most probable tokens, zero the rest, renormalize.

    Ties on probability resolve toward the lower id. k >= vocabulary
    size returns the input unchanged.
    """
    k = count("k", k, 1)
    dist = np.array(dist, dtype=float)
    return _top_k_rows(dist.reshape(1, -1), k)[0]


def top_p_filter(dist: np.ndarray, p: float) -> np.ndarray:
    """Keep the largest head of the sorted distribution with mass <= p.

    At least the single most probable token always survives, even when
    its probability alone exceeds p. p=1 returns the input unchanged.
    """
    if not 0 < real("p", p) <= 1:
        raise ValueError("p must lie in (0, 1]")
    dist = np.array(dist, dtype=float)
    return _top_p_rows(dist.reshape(1, -1), p)[0]


def block_repeated_ngrams(
    ids: Sequence[int], dist: np.ndarray, n: int, eos_id: int
) -> np.ndarray:
    """Zero out tokens that would repeat an n-gram already in ``ids``.

    ``ids`` are the generated ids only; decoders never pass the prompt. A
    token t is banned when the last n-1 ids followed by t form an n-gram
    that already occurs in ``ids``. If every token would be banned, the
    distribution collapses to eos so decoding can always halt.
    """
    n = count("n", n, 1)
    dist = np.asarray(dist, dtype=float)
    ids = tuple(ids)
    if len(ids) < n:
        return dist.copy()
    return _ban_rows(dist.reshape(1, -1).copy(), [_banned(ids, n)], eos_id)[0]


def _by_probability(dist: np.ndarray) -> np.ndarray:
    """Each row's ids, most probable first, ties toward the lower id."""
    return (-dist).argsort(axis=1, kind="stable")


def _ranked(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A column of row indices, each row's ids ordered by
    :func:`_by_probability`, and the row's probabilities in that order."""
    rows = np.arange(len(dist))[:, None]
    order = _by_probability(dist)
    return rows, order, dist[rows, order]


def _unrank(rows: np.ndarray, order: np.ndarray, ranked: np.ndarray) -> np.ndarray:
    """Put ranked probabilities back at their ids and renormalize each row."""
    out = np.empty_like(ranked)
    out[rows, order] = ranked
    return out / out.sum(axis=1, keepdims=True)


def _top_k_rows(dist: np.ndarray, k: int) -> np.ndarray:
    if k >= dist.shape[1]:
        return dist
    rows, order, ranked = _ranked(dist)
    ranked[:, k:] = 0.0
    return _unrank(rows, order, ranked)


def _top_p_rows(dist: np.ndarray, p: float) -> np.ndarray:
    if p == 1:
        return dist
    rows, order, ranked = _ranked(dist)
    # the mass only grows along a ranked row, so this zeroes the tail after
    # the head that searchsorted(side="right") would find; the top id stays
    beyond = ranked.cumsum(axis=1) > p
    beyond[:, 0] = False
    ranked[beyond] = 0.0
    return _unrank(rows, order, ranked)


def _banned(ids: tuple[int, ...], n: int) -> list[int]:
    """The ids that followed earlier occurrences of the last n-1 of ``ids``:
    emitting any of them would repeat an n-gram of ``ids``."""
    if n == 1:
        return list(ids)
    key = ids[len(ids) - n + 1 :]
    # an earlier occurrence starts by len(ids) - n, so an id follows it;
    # tuple.index finds each candidate start in C
    stop, banned, i = len(ids) - n + 1, [], -1
    try:
        while True:
            i = ids.index(key[0], i + 1, stop)
            if ids[i : i + n - 1] == key:
                banned.append(ids[i + n - 1])
    except ValueError:
        return banned


def _ban_rows(dist: np.ndarray, banned: list, eos_id: int) -> np.ndarray:
    """Zero each row's banned ids and renormalize, in place; a row left
    with no mass becomes eos."""
    rows = [i for i, tokens in enumerate(banned) for _ in tokens]
    dist[rows, [t for tokens in banned for t in tokens]] = 0.0
    totals = dist.sum(axis=1, keepdims=True)
    if totals.min() <= 0.0:
        empty = totals[:, 0] <= 0.0
        dist[empty] = 0.0
        dist[empty, eos_id] = 1.0
        totals[empty] = 1.0
    dist /= totals
    return dist


def _step(model: LanguageModel, prompt_ids: tuple[int, ...], live: list[_Pair],
          shaping: _Shaping, memo: dict | None) -> list:
    """The record of every live ``(neg, ids)`` pair, one each.

    A row's key is its context, the last ``model.context_width`` ids of
    prompt plus ids, with the banned ids and ban stage ``shaping.keys``
    adds. The memo is probed once per row; keys it lacks are scored with
    one batched model call, shaped together and stored.
    """
    # live hypotheses share one length, so every context keeps one head of
    # the prompt before its ids, or, past the prompt, its ids from one cut
    w = model.context_width
    start = 0 if w is None else len(prompt_ids) + len(live[0][1]) - w
    head, cut = prompt_ids[max(start, 0):], max(start - len(prompt_ids), 0)
    contexts = [head + ids for _, ids in live] if head else [ids[cut:] for _, ids in live]
    keys = shaping.keys(contexts, live)
    records = {} if memo is None else memo
    if len(records) >= _MEMO_CAP:
        records.clear()  # records equal rows shaped afresh: no output changes
    found = list(map(records.get, keys))
    if None in found:  # records are tuples, never None
        missing = list(dict.fromkeys(k for k, record in zip(keys, found) if record is None))
        logits = model.next_logits_batch([context for context, _, _ in missing])
        records.update(zip(missing, shaping.shape(logits, missing)))
        found = [records[key] for key in keys]
    return found


def _successors(tokens: list[int], probs: list[float], eos: int) -> _Successors:
    """Ranked successors and their probabilities as a record: eos split out
    as its log-probability, the rest with their logs."""
    eos_log = None
    if eos in tokens:
        k = tokens.index(eos)
        del tokens[k]
        eos_log = math.log(probs.pop(k))
    return eos_log, tuple(tokens), tuple(map(math.log, probs))


def _best_successors(dist: np.ndarray, width: int, eos: int) -> list[_Successors]:
    """Each row's ``width`` most probable ids of positive probability."""
    if width == 1:
        # argmax also takes the lowest id among ties, at a fraction of the
        # cost, and a distribution's top entry is always positive
        order = dist.argmax(axis=1)[:, None]
    else:
        order = _by_probability(dist)[:, :width]
    ranked = np.take_along_axis(dist, order, axis=1)
    # positive entries sort first, so each row keeps a head of its order
    support = (ranked > 0.0).sum(axis=1).tolist()
    return [_successors(ids[:count], probs[:count], eos)
            for ids, probs, count in zip(order.tolist(), ranked.tolist(), support)]


@dataclass(frozen=True)
class _Shaping:
    """Every rule by which one search turns a model row into its step's
    successors, decided once from its ``DecodeConfig`` and vocabulary.

    A row is shaped in a fixed order: temperature, then top-k, then top-p,
    then the repeated-n-gram ban, renormalizing along the way. Only
    sampling paths hold top-k and top-p, so greedy and plain beam search
    ignore them. The ban begins once ``ban`` ids are generated and reads
    those ids only, so n-grams of the prompt never ban a token. A greedy or
    beam record holds the shaped row's ranked successors cut at the width,
    with their ``math.log``s and the eos successor split out; a sampling
    record, read by both draws, holds the row's positive ids with their
    probabilities and running sums.
    """

    temperature: float
    top_k: int | None
    top_p: float | None
    width: int
    ban: int | None
    sampling: bool
    sampled_beam: bool
    eos: int

    @classmethod
    def of(cls, config: DecodeConfig, vocab: Vocabulary) -> _Shaping:
        beam = config.method == "beam"
        sampling = config.method == "sample" or (beam and config.sample_within_beam)
        return cls(config.temperature, config.top_k if sampling else None,
                   config.top_p if sampling else None, config.beam_size if beam else 1,
                   config.no_repeat_ngram_size, sampling, beam and sampling, vocab.eos_id)

    @property
    def key(self) -> tuple:
        """What a record depends on besides its row key (ban stage, banned
        ids): no ban size, and no width on sampling paths, whose widths all
        draw from one record, so sampling and sampled beams share records."""
        if self.sampling:
            return self.temperature, self.top_k, self.top_p
        return self.temperature, self.width

    def keys(self, contexts: list[tuple[int, ...]], live: list[_Pair]) -> list[tuple]:
        """Each live pair's row key: its context, its banned ids, sorted and
        each once, and whether the ban stage has begun; live ids share one length."""
        n = self.ban
        if n is None or len(live[0][1]) < n:
            return [(context, (), False) for context in contexts]
        bans = [_banned(ids, n) for _, ids in live]
        # fewer than two banned ids are already sorted and distinct
        return [(context, tuple(b) if len(b) < 2 else tuple(sorted(set(b))), True)
                for context, b in zip(contexts, bans)]

    def shape(self, logits, keys: list) -> list:
        """The records of row keys ``(context, banned ids, stage)`` from their logits."""
        dist = softmax_rows(np.asarray(logits, dtype=float) / self.temperature)
        if self.top_k is not None:
            dist = _top_k_rows(dist, self.top_k)
        if self.top_p is not None:
            dist = _top_p_rows(dist, self.top_p)
        # a step's keys share its ban stage
        if keys[0][2]:
            dist = _ban_rows(dist, [banned for _, banned, _ in keys], self.eos)
        if not self.sampling:
            return _best_successors(dist, self.width, self.eos)
        records = []
        for row in dist:
            ids = np.flatnonzero(row)
            stop = ids.item(-1) + 1
            # (ids, probabilities, running sums, whole row's sum) over the support, or
            # up to its last id when that holds fewer floats; copied, freeing the batch
            kept = (ids, row[ids]) if 3 * ids.size < 2 * stop else (range(stop), row[:stop].copy())
            records.append((*kept, kept[1].cumsum(), row.sum()))
        return records

    def draws(self, records: list, rng: np.random.Generator) -> list[_Successors]:
        """Each sampling record's seeded draws, in live order, as successors: a
        sampled beam's ``width`` without replacement, most probable first (ids
        ascend, so an index tie breaks as the id would), or plain sampling's one
        inverse-CDF lookup, which never lands on a zero, where sums are flat."""
        drawn = []
        for ids, probs, cumulative, total in records:
            if self.sampled_beam:
                size = min(self.width, np.count_nonzero(probs))
                picks = rng.choice(len(ids), size, replace=False, p=probs / total)
                picks = sorted(picks.tolist(), key=lambda j: (-probs.item(j), j))
            else:
                u = rng.random() * cumulative.item(-1)
                picks = [min(int(cumulative.searchsorted(u, "right")), len(ids) - 1)]
            drawn.append(_successors([int(ids[j]) for j in picks], list(map(probs.item, picks)),
                                     self.eos))
        return drawn


def _run_end(
    neg_base: float, tokens: tuple[int, ...], logs: tuple[float, ...], start: int,
    neg_score: float,
) -> tuple[int, float, bool]:
    """End of the run of successors from ``start`` that share its negated
    score, the negated score after the run, and whether the run's ids
    ever descend.

    Successors are ranked most probable first, so scores never rise along
    them, and ids of equal probability already ascend. Yet unequal
    probabilities can round to one score, where the lower id must go
    first, so a run whose ids descend must be sorted by id.
    """
    stop, log, descends, following = start + 1, logs[start], False, neg_score
    while stop < len(logs):
        if logs[stop] != log:
            log = logs[stop]
            following = neg_base - log
            if following != neg_score:
                break
        descends = descends or tokens[stop] < tokens[stop - 1]
        stop += 1
    return stop, following, descends


def _select(live: list[_Pair], successors: list[_Successors], shaping: _Shaping,
            finished: list[_Pair], prune: bool) -> list[_Pair]:
    """The ``shaping.width`` best unfinished successors in search order, or
    none if the best finished score beats the best of them, and with
    ``prune`` none it beats; eos successors go onto ``finished``.

    Search order is the order of ``(neg, ids)`` pairs: by score, then by
    ids. Live ids share one length, so (parent ids, token) orders as the
    successor's ids would, without building them. Each row's successors
    come ranked, so a heap over the rows' next successors yields them in
    that order, and only the successors it reaches pay for a tuple.

    Steps add log p <= 0, so a hypothesis scoring strictly below the best
    finished one can never win, nor can any of its descendants. With
    ``prune`` the merge stops at its first such candidate and such an eos
    successor is not kept; without it only the merge's head is tested,
    which is the early stop, and every eos successor is kept. A tie keeps
    decoding, as id order may favour it.
    """
    # the negated score a kept candidate may not exceed
    cut = finished[0][0] if finished else math.inf
    heap, runs = [], []
    for i, ((neg, ids), (eos_log, tokens, logs)) in enumerate(zip(live, successors)):
        if eos_log is not None and not (prune and neg - eos_log > cut):
            heapq.heappush(finished, (neg - eos_log, ids + (shaping.eos,)))
            cut = finished[0][0]
        if tokens:
            heap.append((neg - logs[0], ids, tokens[0], i, 0))
        # the row's tokens, the end of its measured run, the score after it
        runs.append([tokens, 0, 0.0])
    heapq.heapify(heap)
    selected = []
    while heap:
        neg_score, ids, token, i, j = heap[0]
        if neg_score > cut:
            break
        if not prune:
            cut = math.inf  # only the head is tested: the early stop
        run = runs[i]
        tokens = run[0]
        if j == run[1]:
            # token j starts a run of equal scores: measure the run before
            # taking any of it, as sorting it may put a lower token first
            stop, run[2], descends = _run_end(live[i][0], tokens, successors[i][2], j, neg_score)
            run[1] = stop
            if descends:
                # records are shared, so the sorted run is a new tuple
                tokens = run[0] = tokens[:j] + tuple(sorted(tokens[j:stop])) + tokens[stop:]
                if tokens[j] != token:
                    heapq.heapreplace(heap, (neg_score, ids, tokens[j], i, j))
                    continue
        selected.append((neg_score, ids + (token,)))
        if len(selected) == shaping.width:
            break
        j += 1
        if j < len(tokens):
            heapq.heapreplace(heap, (neg_score if j < run[1] else run[2], ids, tokens[j], i, j))
        else:
            heapq.heappop(heap)
    return selected


def _prompt_ids(prompt, size: int) -> tuple[int, ...]:
    """The prompt's ids, each checked to lie in ``[0, size)``."""
    prompt_ids = token_ids(prompt)
    if prompt_ids and not (0 <= min(prompt_ids) and max(prompt_ids) < size):
        bad = next(i for i in prompt_ids if not 0 <= i < size)
        raise ValueError(f"prompt token id {bad} outside [0, {size})")
    return prompt_ids


def _search(
    model: LanguageModel, prompt, config: DecodeConfig, pool: bool = False
) -> tuple[DecodeResult, list[_Pair]]:
    """Search as ``config.method`` selects; the best result and the pool of
    ``(-log_prob, ids)`` pairs, sorted, the best first.

    Each step extends every live hypothesis from its record, by its most
    probable ids or by seeded draws on sampling paths, and keeps the
    ``width`` best unfinished candidates. A pair's natural order is the
    search order: by score, then by lexicographically smaller ids. Every
    eos successor goes onto the ``finished`` heap at once; the rest meet
    in :func:`_select`'s lazy merge, which stops as soon as ``width`` are
    live, or takes none once the best finished score beats its head.

    A search that does not sample prunes: it keeps no hypothesis, live or
    finished, that scores strictly below the best finished one. None of
    them could win, so the kept live set is the unpruned one less those,
    and the result, its score and steps are the unpruned search's. The
    pool then lacks them, so ``pool`` keeps every hypothesis, as does a
    sampling search, whose every row draws from the seeded stream.
    """
    vocab = model.vocab
    shaping = _Shaping.of(config, vocab)
    rng = np.random.default_rng(config.seed) if shaping.sampling else None
    prune = not (pool or shaping.sampling)
    # a model whose logits read the whole prefix never repeats a key: no memo
    memo = (None if model.context_width is None
            else _MEMO.setdefault(model, {}).setdefault(shaping.key, {}))
    prompt_ids = _prompt_ids(prompt, len(vocab))
    # -0.0, so that a decode of probability 1 scores 0.0, not -0.0
    start = (-0.0, ())
    finished, live = (([start], []) if prompt_ids and prompt_ids[-1] == shaping.eos
                      else ([], [start]))
    for _ in range(config.max_length):
        if not live:
            break
        records = _step(model, prompt_ids, live, shaping, memo)
        successors = shaping.draws(records, rng) if shaping.sampling else records
        live = _select(live, successors, shaping, finished, prune)
    # anything still alive ran out of budget and counts as finished
    finished.extend(live)
    finished.sort()
    neg, ids = finished[0]
    text = "".join(vocab.tokens[t] for t in ids if not vocab.is_special(t))
    result = DecodeResult(tokens=TokenSequence._issued(ids, vocab), text=text,
                          score=-neg, steps=len(ids))
    return result, finished


def greedy_decode(model: LanguageModel, prompt, config: DecodeConfig) -> DecodeResult:
    """Follow the argmax of each step's shaped distribution until eos."""
    return _search(model, prompt, replace(config, method="greedy"))[0]


def beam_search(
    model: LanguageModel, prompt, config: DecodeConfig, return_all: bool = False
):
    """Keep the beam_size best partial sequences per step, return the best.

    Hypotheses that emit eos (or hit max_length) are set aside as
    finished; the winner is the finished hypothesis with the highest raw
    log-probability, ties toward the lexicographically smaller id
    sequence. Search stops early once the best finished score is
    strictly greater than the best live score: scores never rise, so no
    live hypothesis could still win, and the winner is the one a search
    over the full max_length budget would return. For the same reason a
    beam that does not sample drops every hypothesis, live or finished,
    scoring strictly below the best finished one; the result is the same.
    With ``return_all`` nothing is dropped: the finished pool collected up
    to the stop is returned alongside the best result, sorted, the winner
    first.
    """
    result, finished = _search(model, prompt, replace(config, method="beam"), return_all)
    if not return_all:
        return result
    return result, [Hypothesis(ids, -neg, True) for neg, ids in finished]


def sample_decode(model: LanguageModel, prompt, config: DecodeConfig) -> DecodeResult:
    """Draw each token from the shaped distribution, seeded and repeatable."""
    return _search(model, prompt, replace(config, method="sample"))[0]


def decode(model: LanguageModel, prompt, config: DecodeConfig) -> DecodeResult:
    """Decode with the search ``config.method`` selects.

    Every decoder checks the prompt first: an id outside ``[0, V)`` raises
    ValueError naming the first such id, and a non-integer id TypeError.
    """
    return _search(model, prompt, config)[0]


def _isolated(call, *args) -> tuple:
    """``(call(*args), None)``, or ``(None, message)`` if it raises."""
    try:
        return call(*args), None
    except Exception as err:  # noqa: BLE001 - per-prompt fault isolation
        return None, f"{type(err).__name__}: {err}"


def _decode_one(model: LanguageModel, ids: tuple[int, ...], config: DecodeConfig):
    # the module's decode, looked up at each call: a wrapper bound in its place runs
    return _isolated(decode, model, ids, config)


#: A decode worker's model, set once when the worker starts.
_WORKER_MODEL: LanguageModel | None = None


def _start_worker(model: LanguageModel) -> None:
    global _WORKER_MODEL
    _WORKER_MODEL = model


def _decode_task(task) -> tuple[tuple | None, str | None]:
    """A worker's decode of one ``(prompt ids, seeded config)`` task: the
    result's ``(ids, text, score, steps)``, so no vocabulary is sent back."""
    result, message = _decode_one(_WORKER_MODEL, *task)
    if result is None:
        return None, message
    return (result.tokens.ids, result.text, result.score, result.steps), None


def batch_decode(
    model: LanguageModel,
    prompts: Sequence,
    config: DecodeConfig,
    workers: int = 1,
    errors: list[tuple[int, str]] | None = None,
) -> list[DecodeResult | None]:
    """Decode prompts independently, results in prompt order.

    Prompt i runs with seed ``config.seed + i``, so a batch equals the
    corresponding independent calls. A failing prompt leaves None in its
    slot and, when ``errors`` is a list, records (index, message) there;
    the rest of the batch continues. A prompt whose ids cannot be read, or
    fall outside the vocabulary, fails alone in the same way.

    Each distinct search runs once. Greedy and beam search are
    deterministic and see a prompt only through its last
    ``model.context_width`` ids (and its last id, to stop on eos), so
    prompts that share their last ``max(context_width, 1)`` ids, or are
    equal when ``context_width`` is None, share one search, and its result
    or error message fills each of their slots. A sampling search reads its
    own seed as well, so it never shares.

    ``workers`` > 1 fans the distinct searches out across at most one
    process each; ordering is unaffected. Each worker gets the model once,
    when it starts (pickled under ``spawn``, inherited under ``fork``), and
    keeps its memo across the chunks it decodes; a task is only a prompt's
    ids and its seeded config, and a worker sends back only each result's
    ids, text, score and steps, whose sequence is rebuilt here on
    ``model.vocab``. Chunks are about a quarter of a worker's share, so no
    worker is left with a long tail.
    """
    # each prompt is read to a plain, range-checked id tuple here, inside
    # its own isolation, so a worker receives ints and never an iterator or
    # a sequence's vocabulary, and a bad id never reaches a shared search
    read = [_isolated(_prompt_ids, p, len(model.vocab)) for p in prompts]
    tail = None if model.context_width is None else max(model.context_width, 1)
    sampling = _Shaping.of(config, model.vocab).sampling
    # search key -> index of its task; each read prompt's task index
    searches: dict[tuple, int] = {}
    tasks, slots = [], []
    for i, (ids, _) in enumerate(read):
        if ids is None:
            slots.append(None)
            continue
        key = ids if tail is None else ids[-tail:]
        if sampling:
            key = (key, i)  # its seed, config.seed + i, is its own
        if key not in searches:
            searches[key] = len(tasks)
            tasks.append((ids, replace(config, seed=config.seed + i)))
        slots.append(searches[key])
    workers = count("workers", workers, 1)
    if workers <= 1 or len(tasks) <= 1:
        decoded = [_decode_one(model, *task) for task in tasks]
    else:
        # imported here: a run that never fans out never loads the pool
        from concurrent.futures import ProcessPoolExecutor

        workers = min(workers, len(tasks))
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=(model,)) as pool:
            chunksize = max(1, len(tasks) // (workers * 4))
            returned = list(pool.map(_decode_task, tasks, chunksize=chunksize))
        vocab = model.vocab
        decoded = [
            (None if values is None else
             DecodeResult(TokenSequence._issued(values[0], vocab), *values[1:]), message)
            for values, message in returned
        ]
    results: list[DecodeResult | None] = []
    for i, ((_, message), task) in enumerate(zip(read, slots)):
        result, message = (None, message) if task is None else decoded[task]
        results.append(result)
        if message is not None and errors is not None:
            errors.append((i, message))
    return results
