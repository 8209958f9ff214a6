"""Long-text sequence construction for the token encoder.

Each user's nickname, profile and tweet texts are concatenated into one
token sequence (oldest tweet first, so the timeline reads in narrative
order).

Tokenizer rule: split the text on whitespace (``str.split()``). A chunk
holding at least one codepoint of the CJK ranges U+3400-U+4DBF (extension
A), U+4E00-U+9FFF (unified ideographs) or U+F900-U+FAFF (compatibility
ideographs) becomes one token per codepoint, each lowercased on its own
(``"ΑΣ我"`` gives ``α``, ``σ``, ``我``: no final-sigma rule). Any other chunk
is one token, lowercased as a whole.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, TextIO, Tuple

import numpy as np

from .corpus import UserRecord
from .errors import ConfigError, DataFormatError

PAD = 0
UNK = 1
CLS = 2
SEP = 3

_SPECIALS = ("<pad>", "<unk>", "<cls>", "<sep>")
N_SPECIALS = len(_SPECIALS)

DEFAULT_MIN_FREQ = 1

_CJK_RANGES = (
    (0x3400, 0x4DBF),  # CJK extension A
    (0x4E00, 0x9FFF),  # CJK unified ideographs
    (0xF900, 0xFAFF),  # CJK compatibility ideographs
)

_find_cjk = re.compile(
    "[" + "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES) + "]"
).search


def tokenize(text: str) -> List[str]:
    """Tokens of one text, by the rule in the module docstring."""
    tokens: List[str] = []
    append, extend = tokens.append, tokens.extend
    for chunk in text.split():
        if _find_cjk(chunk):
            # Per codepoint: str.lower() on the whole chunk would apply
            # final-sigma rules across the codepoints.
            extend(map(str.lower, chunk))
        else:
            append(chunk.lower())
    return tokens


@dataclass(frozen=True)
class Vocab:
    """Dense token-id map with fixed specials PAD=0, UNK=1, CLS=2, SEP=3."""

    token_to_id: Dict[str, int]
    min_freq: int

    def __len__(self) -> int:
        return len(self.token_to_id) + N_SPECIALS

    def encode(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)


def check_min_freq(min_freq: int) -> None:
    if min_freq < 1:
        raise ConfigError(f"min_freq must be >= 1, got {min_freq}")


def build_vocab(records: Iterable[UserRecord], min_freq: int = DEFAULT_MIN_FREQ) -> Vocab:
    """Count tokens over nicknames, profiles and tweet texts; keep tokens with
    frequency >= min_freq. Ids are assigned from 4 in descending-frequency
    order with lexicographic tiebreak, so a fixed corpus yields a fixed map."""
    check_min_freq(min_freq)
    counts: Counter = Counter()
    for record in records:
        streams = [record.nickname, record.profile] + [t.text for t in record.tweets]
        for text in streams:
            counts.update(tokenize(text))
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocab(
        token_to_id={tok: i + N_SPECIALS for i, tok in enumerate(kept)},
        min_freq=min_freq,
    )


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length id sequence: ids[0] is CLS, PAD-filled to max_len."""

    ids: Tuple[int, ...]
    true_len: int


def build_user_sequence(user: UserRecord, vocab: Vocab, max_len: int) -> TokenSequence:
    """Token stream: CLS, nickname tokens, SEP, profile tokens, SEP, then the
    tweet texts in chronological order with SEP between consecutive tweets;
    truncated to max_len and padded with PAD."""
    if max_len < 8:
        raise ConfigError(f"max_len must be >= 8, got {max_len}")
    encode = vocab.token_to_id.get
    ids: List[int] = [CLS]
    ids.extend([encode(t, UNK) for t in tokenize(user.nickname)])
    ids.append(SEP)
    ids.extend([encode(t, UNK) for t in tokenize(user.profile)])
    ids.append(SEP)
    for i, tweet in enumerate(user.tweets):
        if i > 0:
            ids.append(SEP)
        ids.extend([encode(t, UNK) for t in tokenize(tweet.text)])
    ids = ids[:max_len]
    true_len = len(ids)
    ids.extend([PAD] * (max_len - true_len))
    return TokenSequence(ids=tuple(ids), true_len=true_len)


def load_precomputed(stream: TextIO) -> Dict[str, np.ndarray]:
    """Load per-user precomputed embedding matrices.

    Format, repeated per user: a header line ``user_id d1 L`` followed by L
    lines of d1 whitespace-separated decimals. All users must share d1;
    non-finite values are rejected. An empty stream yields an empty map with
    a warning on stderr.
    """
    out: Dict[str, np.ndarray] = {}
    width: int | None = None
    lines = [ln.rstrip("\n") for ln in stream]
    pos = 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        header = lines[pos].split()
        if len(header) != 3:
            raise DataFormatError(
                f"line {pos + 1}: expected header 'user_id d1 L', got {lines[pos]!r}"
            )
        user_id = header[0]
        try:
            d1, n_rows = int(header[1]), int(header[2])
        except ValueError:
            raise DataFormatError(f"line {pos + 1}: non-integer dimensions in header") from None
        if d1 < 1 or n_rows < 1:
            raise DataFormatError(f"line {pos + 1}: dimensions must be >= 1")
        if user_id in out:
            raise DataFormatError(f"line {pos + 1}: duplicate user_id {user_id}")
        if width is None:
            width = d1
        elif d1 != width:
            raise DataFormatError(
                f"user {user_id}: embedding width {d1} does not match corpus width {width}"
            )
        pos += 1
        rows = []
        for r in range(n_rows):
            if pos >= len(lines):
                raise DataFormatError(f"user {user_id}: truncated matrix (row {r})")
            values = lines[pos].split()
            if len(values) != d1:
                raise DataFormatError(
                    f"user {user_id}: row {r} has {len(values)} values, expected {d1}"
                )
            try:
                rows.append([float(v) for v in values])
            except ValueError:
                raise DataFormatError(f"user {user_id}: non-numeric value in row {r}") from None
            pos += 1
        matrix = np.asarray(rows, dtype=np.float64)
        if not np.isfinite(matrix).all():
            raise DataFormatError(f"user {user_id}: non-finite embedding value")
        out[user_id] = matrix
    if not out:
        print("warning: precomputed embedding file is empty", file=sys.stderr)
    return out
