"""Word tokenization, n-gram extraction, and unigram subword segmentation.

Two tokenization levels live here. Word tokens (whitespace split, edge
punctuation stripped) feed the overlap metrics and the repetition check.
Subword tokens come from segmenting text against a fixed vocabulary of
scored pieces: the segmenter picks, by dynamic programming, the token
sequence with the highest total log-probability.

Vocabulary files are UTF-8, one ``token<TAB>log_prob`` entry per line,
ids assigned in file order. Special tokens are declared either by an
optional JSON object on the first line (``{"eos": "</s>", ...}``) or by
the reserved surface forms ``<eos>``, ``<unk>``, ``<pad>``.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TokenSequence",
    "Vocabulary",
    "char_vocabulary",
    "detokenize",
    "ngrams",
    "token_ids",
    "viterbi_segment",
    "word_tokenize",
]

RESERVED_SPECIALS = {"eos": "<eos>", "unk": "<unk>", "pad": "<pad>"}

_UNCOVERED = "text cannot be segmented: uncovered characters and no unk token defined"


def _is_punct(ch: str) -> bool:
    # no alphanumeric code point has a P* category; skip the lookup for them
    return not ch.isalnum() and unicodedata.category(ch).startswith("P")


def word_tokenize(text: str, lowercase: bool = False) -> list[str]:
    """Split on whitespace and strip punctuation from word edges.

    Internal punctuation (hyphens, apostrophes) is kept; words that are
    all punctuation disappear. Idempotent on its own output.
    """
    tokens = []
    for chunk in text.split():
        # alphanumeric edges are never punctuation: most words skip the scan
        if not (chunk[0].isalnum() and chunk[-1].isalnum()):
            start, end = 0, len(chunk)
            while start < end and _is_punct(chunk[start]):
                start += 1
            while end > start and _is_punct(chunk[end - 1]):
                end -= 1
            if start == end:
                continue
            chunk = chunk[start:end]
        tokens.append(chunk.lower() if lowercase else chunk)
    return tokens


def ngrams(tokens: Sequence, n: int) -> Counter:
    """All contiguous windows of length ``n``, with multiplicities."""
    if n < 1:
        raise ValueError("n-gram order must be at least 1")
    if n > len(tokens):
        return Counter()
    # the i-th shifted copy supplies each window's i-th item; zip stops at
    # the shortest copy, so every window is whole
    return Counter(zip(*[tokens[i:] for i in range(n)]))


class Vocabulary:
    """Immutable token inventory with per-token log-probabilities.

    Ids form the dense range [0, V) in construction order. An end-of-
    sequence token is mandatory; unknown and padding tokens are optional.
    Special tokens never match raw text during segmentation.
    """

    def __init__(
        self,
        tokens: Sequence[str],
        log_probs: Sequence[float],
        eos: str,
        unk: str | None = None,
        pad: str | None = None,
    ):
        if len(tokens) != len(log_probs):
            raise ValueError("tokens and log_probs must have equal length")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        lp = np.asarray(log_probs, dtype=float)
        if lp.size and not lp.max() <= 0:
            raise ValueError("log probabilities must be <= 0 and not NaN")
        self._tokens = tuple(tokens)
        self._log_probs = lp
        self._log_probs.flags.writeable = False
        self._index = {tok: i for i, tok in enumerate(self._tokens)}

        def resolve(name: str | None, role: str) -> int | None:
            if name is None:
                return None
            if name not in self._index:
                raise ValueError(f"{role} token {name!r} not in vocabulary")
            return self._index[name]

        eos_id = resolve(eos, "eos")
        if eos_id is None:
            raise ValueError("an eos token is required")
        self._eos_id = eos_id
        self._unk_id = resolve(unk, "unk")
        self._pad_id = resolve(pad, "pad")
        self._special_ids = frozenset(
            i for i in (self._eos_id, self._unk_id, self._pad_id) if i is not None
        )
        self._surface_index = {
            tok: i for tok, i in self._index.items() if i not in self._special_ids
        }
        self._max_token_len = max(
            (len(tok) for tok in self._surface_index), default=0
        )

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return (
            self._tokens == other._tokens
            and np.array_equal(self._log_probs, other._log_probs)
            and (self._eos_id, self._unk_id, self._pad_id)
            == (other._eos_id, other._unk_id, other._pad_id)
        )

    def __hash__(self) -> int:
        return hash((self._tokens, self._eos_id, self._unk_id, self._pad_id))

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    @property
    def log_probs(self) -> np.ndarray:
        return self._log_probs

    @property
    def eos_id(self) -> int:
        return self._eos_id

    @property
    def unk_id(self) -> int | None:
        return self._unk_id

    @property
    def pad_id(self) -> int | None:
        return self._pad_id

    @property
    def special_ids(self) -> frozenset[int]:
        return self._special_ids

    @property
    def max_token_len(self) -> int:
        return self._max_token_len

    def id_of(self, token: str, default=None):
        return self._index.get(token, default)

    def id_to_token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise ValueError(f"token id {token_id} outside [0, {len(self._tokens)})")
        return self._tokens[token_id]

    def surface_id(self, piece: str) -> int | None:
        """Id of a non-special token matching ``piece``, if any."""
        return self._surface_index.get(piece)

    def is_special(self, token_id: int) -> bool:
        return token_id in self._special_ids

    def to_dict(self) -> dict:
        return {
            "tokens": list(self._tokens),
            "log_probs": [float(x) for x in self._log_probs],
            "specials": {
                "eos": self._tokens[self._eos_id],
                "unk": self._tokens[self._unk_id] if self._unk_id is not None else None,
                "pad": self._tokens[self._pad_id] if self._pad_id is not None else None,
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocabulary":
        """The vocabulary of a :meth:`to_dict` payload; a payload of another
        shape raises ValueError naming the key, or KeyError for a missing one."""
        if not isinstance(payload, dict):
            raise ValueError("vocabulary payload must be a JSON object")
        tokens, log_probs = payload["tokens"], payload["log_probs"]
        specials = payload.get("specials", {})
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ValueError("key 'tokens' must be a list of strings")
        # a float or an int a float holds; the constructor checks the values
        if not isinstance(log_probs, list) or not all(
            type(x) is float or type(x) is int and abs(x) <= sys.float_info.max
            for x in log_probs
        ):
            raise ValueError("key 'log_probs' must be a list of numbers")
        if not isinstance(specials, dict) or not all(
            name is None or isinstance(name, str) for name in specials.values()
        ):
            raise ValueError("key 'specials' must map roles to token strings or null")
        return cls(
            tokens,
            log_probs,
            eos=specials.get("eos"),
            unk=specials.get("unk"),
            pad=specials.get("pad"),
        )

    def content_hash(self) -> str:
        """Stable hex digest of tokens, scores, and special assignments."""
        blob = json.dumps(self.to_dict(), ensure_ascii=False, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            specials = self.to_dict()["specials"]
            fh.write(json.dumps(specials, ensure_ascii=False) + "\n")
            for token, lp in zip(self._tokens, self._log_probs):
                if "\t" in token or "\n" in token:
                    raise ValueError(f"token {token!r} not representable in the file format")
                fh.write(f"{token}\t{float(lp)!r}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """The vocabulary of a :meth:`save` file; a malformed line, a duplicate
        or empty token, or a log-prob that is positive or NaN raises
        ValueError naming its line."""
        declared: dict | None = None
        entries: dict[str, float] = {}
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if line_no == 1 and line.startswith("{"):
                    try:
                        declared = json.loads(line)
                    except (ValueError, RecursionError) as err:
                        raise ValueError(f"line 1: {err}") from None
                    unknown = set(declared) - set(RESERVED_SPECIALS)
                    if unknown:
                        raise ValueError(f"line 1: unknown special roles: {sorted(unknown)}")
                    if not all(name is None or isinstance(name, str)
                               for name in declared.values()):
                        raise ValueError(
                            "line 1: key 'specials' must map roles to token strings or null")
                    continue
                if not line:
                    continue
                token, sep, lp = line.partition("\t")
                if not sep:
                    raise ValueError(f"line {line_no}: expected token<TAB>log_prob")
                if not token:
                    raise ValueError(f"line {line_no}: empty token")
                if token in entries:
                    raise ValueError(f"line {line_no}: duplicate token {token!r}")
                try:
                    value = float(lp)
                except ValueError:
                    message = f"line {line_no}: log_prob {lp!r} is not a number"
                    raise ValueError(message) from None
                if not value <= 0:
                    raise ValueError(f"line {line_no}: log_prob {lp!r} must be <= 0 and not NaN")
                entries[token] = value
        if declared is None:
            declared = {role: name for role, name in RESERVED_SPECIALS.items() if name in entries}
        return cls.from_dict(
            {"tokens": list(entries), "log_probs": list(entries.values()), "specials": declared}
        )


@dataclass(frozen=True)
class TokenSequence:
    """An encoded text: ordered token ids plus their vocabulary.

    The constructor checks every id: one that is not an integer raises
    TypeError (a float id is refused, not truncated), and one outside
    ``[0, len(vocab))`` raises ValueError naming the first such id. Ids the
    vocabulary issued itself, as :func:`viterbi_segment` and the decoders
    return them, are not checked again.
    """

    ids: tuple[int, ...]
    vocab: Vocabulary

    def __post_init__(self):
        size = len(self.vocab)
        for i in self.ids:
            if not 0 <= operator.index(i) < size:
                raise ValueError(f"token id {i} outside [0, {size})")

    @classmethod
    def _issued(cls, ids: tuple[int, ...], vocab: Vocabulary) -> "TokenSequence":
        """A sequence of ids that ``vocab`` issued, built without the per-id
        check: each is a plain int in ``[0, len(vocab))`` by construction."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "ids", ids)
        object.__setattr__(seq, "vocab", vocab)
        return seq

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)


def token_ids(seq) -> tuple[int, ...]:
    """Plain id tuple from a TokenSequence or any id sequence.

    Each id of a plain sequence must be an integer (numpy integers become
    plain ints); a float id raises TypeError rather than being truncated.
    Ranges are not checked here: a TokenSequence's ids were checked when it
    was built, and decoders check a prompt against their vocabulary.
    """
    if isinstance(seq, TokenSequence):
        return seq.ids
    return tuple(map(operator.index, seq))


def viterbi_segment(text: str, vocab: Vocabulary) -> TokenSequence:
    """Segment ``text`` into the highest-scoring vocabulary token sequence.

    The score of a segmentation is the sum of its tokens' log-probs.
    Characters that no vocabulary token can cover are emitted as one
    unknown token each (scored with unk's log-prob); unknown emissions
    are used only where unavoidable. Ties are broken toward fewer
    tokens, then the lexicographically smallest id sequence.

    A vocabulary whose surface tokens are single characters (such as
    :func:`char_vocabulary` builds) takes a direct per-character map to
    its token, else unk. That is the lattice's answer: options rank by
    unk count first, so a covered character's own token always beats
    unk, and no other option exists.
    """
    if not text:
        return TokenSequence._issued((), vocab)
    unk = vocab.unk_id
    if vocab.max_token_len <= 1:
        lookup = vocab._surface_index.get
        # a list, not a generator: a tuple grown from an iterator is resized
        # as it grows, which fragments the heap and raises peak memory
        ids = tuple([lookup(ch, unk) for ch in text])
        if unk is None and None in ids:
            raise ValueError(_UNCOVERED)
        return TokenSequence._issued(ids, vocab)
    n = len(text)
    log_probs = vocab.log_probs
    unk_lp = float(log_probs[unk]) if unk is not None else 0.0
    max_len = vocab.max_token_len

    # tails[i] describes the best segmentation of text[i:] by the tuple
    # (unk_count, -score, token_count, first_token_id, next_position),
    # which is also its rank: the least tuple wins
    tails: list[tuple | None] = [None] * (n + 1)
    tails[n] = (0, 0.0, 0, -1, n)
    for i in range(n - 1, -1, -1):
        best = None
        for length in range(1, min(max_len, n - i) + 1):
            tid = vocab.surface_id(text[i : i + length])
            if tid is None:
                continue
            nxt = tails[i + length]
            if nxt is None:
                continue
            option = (nxt[0], nxt[1] - float(log_probs[tid]), nxt[2] + 1, tid, i + length)
            if best is None or option < best:
                best = option
        nxt = tails[i + 1]
        if unk is not None and nxt is not None:
            option = (nxt[0] + 1, nxt[1] - unk_lp, nxt[2] + 1, unk, i + 1)
            if best is None or option < best:
                best = option
        tails[i] = best
    if tails[0] is None:
        raise ValueError(_UNCOVERED)
    ids = []
    pos = 0
    while pos < n:
        entry = tails[pos]
        ids.append(entry[3])
        pos = entry[4]
    return TokenSequence._issued(tuple(ids), vocab)


def detokenize(seq: TokenSequence) -> str:
    """Concatenate token surface strings; inverse of segmentation up to unk."""
    vocab = seq.vocab
    return "".join(vocab.id_to_token(i) for i in seq.ids)


def char_vocabulary(
    texts: Iterable[str], eos_token: str = "<eos>", unk_token: str = "<unk>"
) -> Vocabulary:
    """Build a character-level vocabulary from a text sample.

    Every distinct character becomes a token scored by its log relative
    frequency. Handy as a self-contained fallback when no trained subword
    vocabulary is available.
    """
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(text)
    if not counts:
        raise ValueError("cannot build a vocabulary from empty text")
    total = sum(counts.values())
    chars = sorted(counts)
    tokens = [eos_token, unk_token] + chars
    log_probs = [0.0, 0.0] + [math.log(counts[c] / total) for c in chars]
    return Vocabulary(tokens, log_probs, eos=eos_token, unk=unk_token)
