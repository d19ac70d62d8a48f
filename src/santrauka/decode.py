"""Sequence decoding over any language model: greedy, beam, and sampling.

Every step starts from the model's logits and shapes them into the
distribution the step actually uses, in a fixed composition order:
temperature, then top-k, then top-p (sampling paths only), then the
repeated-n-gram ban, renormalizing along the way. Greedy and plain beam
search ignore the top-k/top-p filters.

Scores are raw cumulative log-probabilities of the selected tokens under
each step's shaped distribution; no length normalization is applied.
Ties anywhere resolve toward the lower token id, which makes every
decoder deterministic. Sampling draws from numpy's seeded PCG64 stream
through inverse-CDF lookup, so outputs are reproducible bit for bit.

All three decoders run one search loop: greedy and sampling keep one
hypothesis, beam search keeps ``beam_size``. Each step scores every live
hypothesis with one ``next_logits_batch`` call and shapes the rows
together; every row is bit-identical to shaping that hypothesis alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from santrauka.lm import LanguageModel, softmax_rows
from santrauka.tokenizer import TokenSequence, detokenize, token_ids

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
        if self.beam_size < 1:
            raise ValueError("beam_size must be at least 1")
        if self.max_length < 1:
            raise ValueError("max_length must be at least 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be at least 1")
        if self.top_p is not None and not 0 < self.top_p <= 1:
            raise ValueError("top_p must lie in (0, 1]")
        if self.no_repeat_ngram_size is not None and self.no_repeat_ngram_size < 1:
            raise ValueError("no_repeat_ngram_size must be at least 1")


@dataclass(frozen=True)
class Hypothesis:
    """A partial output with its cumulative log-probability."""

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
    if k < 1:
        raise ValueError("k must be at least 1")
    dist = np.array(dist, dtype=float)
    return _top_k_rows(dist.reshape(1, -1), k)[0]


def top_p_filter(dist: np.ndarray, p: float) -> np.ndarray:
    """Keep the largest head of the sorted distribution with mass <= p.

    At least the single most probable token always survives, even when
    its probability alone exceeds p. p=1 returns the input unchanged.
    """
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    dist = np.array(dist, dtype=float)
    return _top_p_rows(dist.reshape(1, -1), p)[0]


def block_repeated_ngrams(
    ids: Sequence[int], dist: np.ndarray, n: int, eos_id: int
) -> np.ndarray:
    """Zero out tokens that would repeat an n-gram already in ``ids``.

    A token t is banned when the last n-1 generated ids followed by t
    form an n-gram that already occurs in the sequence. If every token
    would be banned, the distribution collapses to eos so decoding can
    always halt.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    dist = np.asarray(dist, dtype=float)
    ids = tuple(ids)
    if len(ids) < n:
        return dist.copy()
    bans: dict = {}
    for end in range(n, len(ids) + 1):
        bans = _extend_bans(bans, ids[:end], n)
    banned = bans.get(ids[len(ids) - n + 1 :], ())
    return _ban_rows(dist.reshape(1, -1).copy(), [banned], eos_id)[0]


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


def _extend_bans(bans: dict, prefix: tuple[int, ...], n: int) -> dict:
    """``bans`` plus the n-gram that ends ``prefix``.

    ``bans`` maps each (n-1)-gram seen so far to the ids that followed it.
    """
    key = prefix[len(prefix) - n : -1]
    return {**bans, key: bans.get(key, ()) + (prefix[-1],)}


def _ban_rows(dist: np.ndarray, banned: list, eos_id: int) -> np.ndarray:
    """Zero each row's banned ids and renormalize, in place; a row left
    with no mass becomes eos."""
    for row, tokens in zip(dist, banned):
        row[list(tokens)] = 0.0
    totals = dist.sum(axis=1, keepdims=True)
    if totals.min() <= 0.0:
        empty = totals[:, 0] <= 0.0
        dist[empty] = 0.0
        dist[empty, eos_id] = 1.0
        totals[empty] = 1.0
    dist /= totals
    return dist


class _Live(NamedTuple):
    """An unfinished hypothesis: prompt + generated ids, score, ban index."""

    prefix: tuple[int, ...]
    log_prob: float
    bans: dict


def _step(
    model: LanguageModel,
    live: list[_Live],
    length: int,
    config: DecodeConfig,
    sampling: bool,
) -> np.ndarray:
    """The shaped next-token distribution of every live hypothesis, one row
    each, from one batched model call; ``length`` ids are generated so far."""
    logits = model.next_logits_batch([hyp.prefix for hyp in live])
    dist = softmax_rows(np.asarray(logits, dtype=float) / config.temperature)
    if sampling:
        if config.top_k is not None:
            dist = _top_k_rows(dist, config.top_k)
        if config.top_p is not None:
            dist = _top_p_rows(dist, config.top_p)
    n = config.no_repeat_ngram_size
    if n is not None and length >= n:
        banned = [hyp.bans.get(hyp.prefix[len(hyp.prefix) - n + 1 :], ()) for hyp in live]
        dist = _ban_rows(dist, banned, model.vocab.eos_id)
    return dist


def _result(
    model: LanguageModel, generated: tuple[int, ...], score: float
) -> DecodeResult:
    vocab = model.vocab
    surface = tuple(t for t in generated if not vocab.is_special(t))
    text = detokenize(TokenSequence(surface, vocab))
    return DecodeResult(
        tokens=TokenSequence(generated, vocab),
        text=text,
        score=score,
        steps=len(generated),
    )


def _prompt_finished(model: LanguageModel, prompt_ids: tuple[int, ...]) -> bool:
    return bool(prompt_ids) and prompt_ids[-1] == model.vocab.eos_id


#: Chooses the successors of each live hypothesis: (step distributions,
#: width) -> a list of ids per row, possibly empty.
_Picker = Callable[[np.ndarray, int], list[list[int]]]


def _best_successors(dist: np.ndarray, width: int) -> list[list[int]]:
    if width == 1:
        # argmax also takes the lowest id among ties, at a fraction of the
        # cost, and a distribution's top entry is always positive
        return [[token] for token in dist.argmax(axis=1).tolist()]
    order = _by_probability(dist)[:, :width].tolist()
    # positive entries sort first, so each row keeps a head of its order
    support = (dist > 0.0).sum(axis=1).tolist()
    return [ids[:count] for ids, count in zip(order, support)]


def _sampled_successors(
    dist: np.ndarray, count: int, rng: np.random.Generator
) -> list[int]:
    support = int(np.count_nonzero(dist))
    size = min(count, support)
    picks = rng.choice(dist.size, size=size, replace=False, p=dist / dist.sum())
    return sorted(int(t) for t in picks)


def _sample_index(dist: np.ndarray, rng: np.random.Generator) -> int:
    cumulative = np.cumsum(dist)
    u = rng.random() * cumulative[-1]
    idx = int(np.searchsorted(cumulative, u, side="right"))
    idx = min(idx, dist.size - 1)
    while idx > 0 and dist[idx] == 0.0:
        idx -= 1
    return idx


def _search(
    model: LanguageModel,
    prompt,
    config: DecodeConfig,
    width: int,
    pick: _Picker,
    sampling: bool,
) -> tuple[Hypothesis, list[Hypothesis]]:
    """Search with ``width`` live hypotheses; the best and the sorted pool.

    Each step scores every live hypothesis with one batched model call,
    extends each by the ids ``pick`` chooses, and keeps the ``width``
    best unfinished candidates. Ordering is by score, then by
    lexicographically smaller ids.
    """
    prompt_ids = token_ids(prompt)
    start = len(prompt_ids)
    eos = model.vocab.eos_id
    n = config.no_repeat_ngram_size
    finished: list[Hypothesis] = []
    best_finished = -math.inf
    if _prompt_finished(model, prompt_ids):
        finished.append(Hypothesis((), 0.0, True))
        live: list[_Live] = []
    else:
        live = [_Live(prompt_ids, 0.0, {})]
    for length in range(config.max_length):
        if not live:
            break
        dist = _step(model, live, length, config, sampling)
        # live prefixes share one length, so (parent prefix, token) orders
        # as the candidate's ids would, without building them
        candidates = sorted(
            (-(hyp.log_prob + math.log(row[token])), hyp.prefix, token, i)
            for i, (hyp, row, tokens) in enumerate(zip(live, dist.tolist(), pick(dist, width)))
            for token in tokens
        )
        parents, live = live, []
        for neg_log_prob, _, token, i in candidates:
            if token == eos:
                ids = parents[i].prefix[start:] + (token,)
                finished.append(Hypothesis(ids, -neg_log_prob, True))
                best_finished = max(best_finished, -neg_log_prob)
            elif len(live) < width:
                prefix = parents[i].prefix + (token,)
                bans = parents[i].bans
                if n is not None and length + 1 >= n:
                    bans = _extend_bans(bans, prefix, n)
                live.append(_Live(prefix, -neg_log_prob, bans))
        if live and best_finished > live[0].log_prob:
            # every step adds log p <= 0, so no live hypothesis can reach
            # the best finished score; on a tie the id order could still
            # favour one, so ties keep decoding
            live = []
    # anything still alive ran out of budget and counts as finished
    finished.extend(Hypothesis(h.prefix[start:], h.log_prob, True) for h in live)
    finished.sort(key=lambda h: (-h.log_prob, h.ids))
    return finished[0], finished


def greedy_decode(model: LanguageModel, prompt, config: DecodeConfig) -> DecodeResult:
    """Follow the argmax of each step's shaped distribution until eos."""
    best, _ = _search(model, prompt, config, 1, _best_successors, sampling=False)
    return _result(model, best.ids, best.log_prob)


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
    over the full max_length budget would return. With ``return_all``
    the finished pool collected up to the stop is returned alongside the
    best result, sorted, the winner first.
    """
    if config.sample_within_beam:
        rng = np.random.default_rng(config.seed)

        def pick(dist: np.ndarray, width: int) -> list[list[int]]:
            return [_sampled_successors(row, width, rng) for row in dist]
    else:
        pick = _best_successors
    best, finished = _search(
        model, prompt, config, config.beam_size, pick, config.sample_within_beam
    )
    result = _result(model, best.ids, best.log_prob)
    if return_all:
        return result, finished
    return result


def sample_decode(model: LanguageModel, prompt, config: DecodeConfig) -> DecodeResult:
    """Draw each token from the shaped distribution, seeded and repeatable."""
    rng = np.random.default_rng(config.seed)

    def pick(dist: np.ndarray, width: int) -> list[list[int]]:
        return [[_sample_index(row, rng)] for row in dist]

    best, _ = _search(model, prompt, config, 1, pick, sampling=True)
    return _result(model, best.ids, best.log_prob)


def decode(model: LanguageModel, prompt, config: DecodeConfig) -> DecodeResult:
    """Dispatch to the decoder selected by ``config.method``."""
    if config.method == "greedy":
        return greedy_decode(model, prompt, config)
    if config.method == "beam":
        return beam_search(model, prompt, config)
    return sample_decode(model, prompt, config)


def _decode_task(task) -> tuple[DecodeResult | None, str | None]:
    model, prompt, config = task
    try:
        return decode(model, prompt, config), None
    except Exception as err:  # noqa: BLE001 - per-prompt fault isolation
        return None, f"{type(err).__name__}: {err}"


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
    the rest of the batch continues. ``workers`` > 1 fans out across
    processes; ordering is unaffected.
    """
    tasks = [
        (model, token_ids(p), replace(config, seed=config.seed + i))
        for i, p in enumerate(prompts)
    ]
    if workers <= 1 or len(tasks) <= 1:
        outcomes = [_decode_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (workers * 4))
            outcomes = list(pool.map(_decode_task, tasks, chunksize=chunk))
    results: list[DecodeResult | None] = []
    for i, (result, message) in enumerate(outcomes):
        results.append(result)
        if message is not None and errors is not None:
            errors.append((i, message))
    return results
