"""Reference decoders: one model call per hypothesis, full step budget.

These are the straightforward loops the fast decoders in
``santrauka.decode`` must match exactly, ids and scores alike. Each
hypothesis gets its own ``next_logits`` call and its own distribution
shaping, the repeated-n-gram ban rebuilds its n-gram set at every step,
and every step sorts all of its candidates. Beam search runs until every
hypothesis has finished or ``max_length`` is spent, or, with
``early_stop``, until a step ends with a finished hypothesis scoring
strictly above the best live one. Nothing here is shared with the package
beyond the model itself.
"""

from __future__ import annotations

import math

import numpy as np

from santrauka.decode import Hypothesis
from santrauka.tokenizer import token_ids


def softmax(logits) -> np.ndarray:
    y = np.asarray(logits, dtype=float)
    if y.size == 0:
        raise ValueError("empty logit vector")
    if np.isnan(y).any() or np.isposinf(y).any():
        raise ValueError("logits must be finite or -inf")
    m = y.max()
    if np.isneginf(m):
        raise ValueError("all logits are -inf")
    z = np.exp(y - m)
    return z / z.sum()


def top_k_filter(dist: np.ndarray, k: int) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    if k >= dist.size:
        return dist.copy()
    order = np.lexsort((np.arange(dist.size), -dist))
    out = np.zeros_like(dist)
    keep = order[:k]
    out[keep] = dist[keep]
    return out / out.sum()


def top_p_filter(dist: np.ndarray, p: float) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    if p == 1:
        return dist.copy()
    order = np.lexsort((np.arange(dist.size), -dist))
    cumulative = np.cumsum(dist[order])
    keep_count = int(np.searchsorted(cumulative, p, side="right"))
    if keep_count == 0:
        keep_count = 1
    out = np.zeros_like(dist)
    keep = order[:keep_count]
    out[keep] = dist[keep]
    return out / out.sum()


def block_repeated_ngrams(ids, dist: np.ndarray, n: int, eos_id: int) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    ids = tuple(ids)
    if len(ids) < n:
        return dist.copy()
    seen = {ids[i : i + n] for i in range(len(ids) - n + 1)}
    context = ids[len(ids) - (n - 1) :] if n > 1 else ()
    out = dist.copy()
    for gram in seen:
        if gram[:-1] == context:
            out[gram[-1]] = 0.0
    total = out.sum()
    if total <= 0.0:
        out[:] = 0.0
        out[eos_id] = 1.0
        return out
    return out / total


def shaped_distribution(model, prompt_ids, generated, config, sampling) -> np.ndarray:
    logits = model.next_logits(prompt_ids + generated)
    dist = softmax(np.asarray(logits, dtype=float) / config.temperature)
    if sampling:
        if config.top_k is not None:
            dist = top_k_filter(dist, config.top_k)
        if config.top_p is not None:
            dist = top_p_filter(dist, config.top_p)
    if config.no_repeat_ngram_size is not None:
        dist = block_repeated_ngrams(
            generated, dist, config.no_repeat_ngram_size, model.vocab.eos_id
        )
    return dist


def _prompt_finished(model, prompt_ids) -> bool:
    return bool(prompt_ids) and prompt_ids[-1] == model.vocab.eos_id


def _successors(dist: np.ndarray, count: int) -> list[int]:
    order = np.lexsort((np.arange(dist.size), -dist))
    return [int(t) for t in order[:count] if dist[t] > 0.0]


def _sampled_successors(dist: np.ndarray, count: int, rng) -> list[int]:
    support = int(np.count_nonzero(dist))
    size = min(count, support)
    picks = rng.choice(dist.size, size=size, replace=False, p=dist / dist.sum())
    return sorted(int(t) for t in picks)


def _sample_index(dist: np.ndarray, rng) -> int:
    cumulative = np.cumsum(dist)
    u = rng.random() * cumulative[-1]
    idx = int(np.searchsorted(cumulative, u, side="right"))
    idx = min(idx, dist.size - 1)
    while idx > 0 and dist[idx] == 0.0:
        idx -= 1
    return idx


def greedy_decode(model, prompt, config) -> tuple[tuple[int, ...], float]:
    """(ids, score) of following each step's argmax until eos."""
    prompt_ids = token_ids(prompt)
    if _prompt_finished(model, prompt_ids):
        return (), 0.0
    eos = model.vocab.eos_id
    generated: tuple[int, ...] = ()
    score = 0.0
    for _ in range(config.max_length):
        dist = shaped_distribution(model, prompt_ids, generated, config, sampling=False)
        token = int(np.argmax(dist))
        score += math.log(dist[token])
        generated = generated + (token,)
        if token == eos:
            break
    return generated, score


def sample_decode(model, prompt, config) -> tuple[tuple[int, ...], float]:
    """(ids, score) of drawing each token by inverse-CDF lookup."""
    prompt_ids = token_ids(prompt)
    if _prompt_finished(model, prompt_ids):
        return (), 0.0
    eos = model.vocab.eos_id
    rng = np.random.default_rng(config.seed)
    generated: tuple[int, ...] = ()
    score = 0.0
    for _ in range(config.max_length):
        dist = shaped_distribution(model, prompt_ids, generated, config, sampling=True)
        token = _sample_index(dist, rng)
        score += math.log(dist[token])
        generated = generated + (token,)
        if token == eos:
            break
    return generated, score


def beam_search(model, prompt, config, early_stop=False) -> list[Hypothesis]:
    """The finished pool, sorted best first: of the full budget, or with
    ``early_stop`` of the steps up to the first that ends with a finished
    score strictly above every live one."""
    prompt_ids = token_ids(prompt)
    eos = model.vocab.eos_id
    rng = np.random.default_rng(config.seed) if config.sample_within_beam else None
    finished: list[Hypothesis] = []
    if _prompt_finished(model, prompt_ids):
        finished.append(Hypothesis((), 0.0, True))
        live: list[Hypothesis] = []
    else:
        live = [Hypothesis((), 0.0, False)]
    for _ in range(config.max_length):
        if not live:
            break
        candidates: list[Hypothesis] = []
        for hyp in live:
            dist = shaped_distribution(
                model, prompt_ids, hyp.ids, config, sampling=config.sample_within_beam
            )
            if rng is not None:
                picks = _sampled_successors(dist, config.beam_size, rng)
            else:
                picks = _successors(dist, config.beam_size)
            for token in picks:
                candidates.append(
                    Hypothesis(
                        hyp.ids + (token,),
                        hyp.log_prob + math.log(dist[token]),
                        token == eos,
                    )
                )
        candidates.sort(key=lambda h: (-h.log_prob, h.ids))
        live = []
        for hyp in candidates:
            if hyp.finished:
                finished.append(hyp)
            elif len(live) < config.beam_size:
                live.append(hyp)
        if early_stop and live and finished:
            if max(h.log_prob for h in finished) > live[0].log_prob:
                live = []
    finished.extend(Hypothesis(h.ids, h.log_prob, True) for h in live)
    finished.sort(key=lambda h: (-h.log_prob, h.ids))
    return finished
