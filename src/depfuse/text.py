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
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, Iterable, List, Sequence, Tuple

from .corpus import UserRecord
from .errors import ConfigError

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
        if chunk.isascii() or not _find_cjk(chunk):
            append(chunk.lower())
        elif chunk.lower() == chunk:
            # Every codepoint lowercases to itself: only a sigma lowercases
            # by context, and it never maps to itself.
            extend(chunk)
        else:
            # Per codepoint: str.lower() on the whole chunk would apply
            # final-sigma rules across the codepoints.
            extend(map(str.lower, chunk))
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


def check_max_len(max_len: int) -> None:
    if max_len < 8:
        raise ConfigError(f"max_len must be >= 8, got {max_len}")


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


def build_user_sequence(
    nickname: Sequence[str],
    profile: Sequence[str],
    tweets: Iterable[Sequence[str]],
    vocab: Vocab,
    max_len: int,
) -> TokenSequence:
    """Id sequence from the tokens of a user's texts (``tokenize`` of the
    nickname, of the profile and of each tweet text, oldest tweet first):
    CLS, nickname tokens, SEP, profile tokens, SEP, then the tweets with SEP
    between consecutive tweets; truncated to max_len and padded with PAD.
    Tokens past max_len are not looked up."""
    check_max_len(max_len)
    encode = vocab.token_to_id.get
    ids: List[int] = [CLS]
    for i, tokens in enumerate(chain((nickname, profile), tweets)):
        if i > 2:
            ids.append(SEP)
        room = max_len - len(ids)
        if room <= 0:
            break
        ids.extend(map(encode, tokens[:room], repeat(UNK)))
        if i < 2:
            ids.append(SEP)
    del ids[max_len:]
    true_len = len(ids)
    ids.extend([PAD] * (max_len - true_len))
    return TokenSequence(ids=tuple(ids), true_len=true_len)
