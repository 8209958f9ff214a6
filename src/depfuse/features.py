"""The six per-user behavioral statistics and their normalization.

The fields of StatFeatureVector fix the feature order: FEATURE_NAMES, the
model's statistic rows and the featurize CSV columns all follow it.

A user with an empty timeline maps to the all-zero vector: no posts, no
behavioral signal (this deliberately bypasses the one-day observation floor
of posts_per_week).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from importlib import resources
from typing import Iterable, Protocol, Sequence, Set

import numpy as np

from .corpus import Tweet, UserRecord
from .errors import ConfigError, FeatureError
from .text import tokenize

LATE_NIGHT_END_SECONDS = 6 * 3600  # window is [00:00:00, 06:00:00)

DEFAULT_NEGATIVITY_THRESHOLD = 0.5

STD_FLOOR = 1e-8


@dataclass(frozen=True)
class StatFeatureVector:
    p_original: float  # fraction of original (non-retweet) posts
    p_late_night: float  # fraction of posts in the [00:00, 06:00) window
    posts_per_week: float  # posting frequency, posts / week
    posting_time_sd: float  # population SD of time-of-day, in minutes
    p_negative: float  # fraction of posts a sentiment scorer flags negative
    image_freq: float  # fraction of posts carrying images

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in FEATURE_NAMES], dtype=np.float64)


FEATURE_NAMES = tuple(f.name for f in fields(StatFeatureVector))

N_FEATURES = len(FEATURE_NAMES)


class SentimentScorer(Protocol):
    """Deterministic, total map from a tweet's tokens to negativity in [0, 1].

    The tokens are ``text.tokenize`` of the tweet text, the same list the
    tweet contributes to the user's token sequence; a tweet with empty text
    gives an empty list."""

    def score(self, tokens: Sequence[str]) -> float: ...


class LexiconScorer:
    """Token-ratio negativity: lexicon hits / token count.

    Lexicon terms pass through the shared tokenizer when the scorer is built,
    so a multi-character CJK entry matches the per-codepoint tokens that a
    tweet's CJK text gives.
    """

    def __init__(self, lexicon: Iterable[str]):
        terms: Set[str] = set()
        for term in lexicon:
            terms.update(tokenize(term))
        if not terms:
            raise ConfigError("lexicon is empty after tokenization")
        self.tokens = frozenset(terms)

    def score(self, tokens: Sequence[str]) -> float:
        return lexicon_score(tokens, self.tokens)


def lexicon_score(tokens: Sequence[str], lexicon: Set[str]) -> float:
    """hits / tokens for a pre-tokenized lexicon term set; no tokens -> 0."""
    if not tokens:
        return 0.0
    return sum(map(lexicon.__contains__, tokens)) / len(tokens)


def load_lexicon(stream) -> Set[str]:
    """Read a lexicon file: UTF-8, one term per line, '#' comments."""
    terms: Set[str] = set()
    for raw in stream:
        line = raw.split("#", 1)[0].strip()
        if line:
            terms.add(line)
    return terms


def default_lexicon() -> Set[str]:
    text = resources.files("depfuse").joinpath("data/negative_lexicon.txt").read_text("utf-8")
    return load_lexicon(text.splitlines())


def default_scorer() -> LexiconScorer:
    return LexiconScorer(default_lexicon())


def proportion_original(tweets: Sequence[Tweet]) -> float:
    if not tweets:
        return 0.0
    return sum(1 for t in tweets if t.is_original) / len(tweets)


def proportion_late_night(tweets: Sequence[Tweet]) -> float:
    if not tweets:
        return 0.0
    count = 0
    for t in tweets:
        when = t.posting_time
        seconds = when.hour * 3600 + when.minute * 60 + when.second
        if seconds < LATE_NIGHT_END_SECONDS:
            count += 1
    return count / len(tweets)


def posts_per_week(tweets: Sequence[Tweet]) -> float:
    """Total posts / observed weeks.

    The observation span is (last - first) posting time in fractional days,
    floored at one day so short bursts do not blow up; 0.43 weeks for a
    3-day span falls out of the exact 3/7 fraction. A single tweet therefore
    scores 7.0 (one post over the one-day floor)."""
    if not tweets:
        return 0.0
    first = min(t.posting_time for t in tweets)
    last = max(t.posting_time for t in tweets)
    span_days = (last - first).total_seconds() / 86400.0
    weeks = max(span_days, 1.0) / 7.0
    return len(tweets) / weeks


def posting_time_sd(tweets: Sequence[Tweet]) -> float:
    """Population standard deviation of time-of-day in minutes since midnight.

    Sums use math.fsum (exactly rounded), so the result is independent of
    tweet order down to the last bit."""
    if len(tweets) <= 1:
        return 0.0
    minutes = [
        t.posting_time.hour * 60.0 + t.posting_time.minute + t.posting_time.second / 60.0
        for t in tweets
    ]
    mean = math.fsum(minutes) / len(minutes)
    variance = math.fsum((m - mean) ** 2 for m in minutes) / len(minutes)
    return math.sqrt(variance)


def check_threshold(threshold: float) -> None:
    if not (0.0 <= threshold <= 1.0):
        raise ConfigError(f"negativity threshold must be in [0, 1], got {threshold}")


def proportion_negative(
    tweet_tokens: Sequence[Sequence[str]],
    scorer: SentimentScorer,
    threshold: float = DEFAULT_NEGATIVITY_THRESHOLD,
) -> float:
    """Fraction of tweets, given as their token lists, whose negativity score
    strictly exceeds threshold."""
    check_threshold(threshold)
    if not tweet_tokens:
        return 0.0
    count = 0
    for i, tokens in enumerate(tweet_tokens):
        try:
            value = scorer.score(tokens)
        except Exception as exc:
            raise FeatureError(f"sentiment scorer failed on tweet {i}: {exc}") from exc
        if value > threshold:
            count += 1
    return count / len(tweet_tokens)


def image_frequency(tweets: Sequence[Tweet]) -> float:
    if not tweets:
        return 0.0
    return sum(1 for t in tweets if t.has_images) / len(tweets)


def stat_features(
    tweets: Sequence[Tweet],
    tweet_tokens: Sequence[Sequence[str]],
    scorer: SentimentScorer,
    threshold: float = DEFAULT_NEGATIVITY_THRESHOLD,
) -> StatFeatureVector:
    """Compose the six statistics in their fixed order, from a timeline and
    the ``tokenize`` token list of each of its tweets, in the same order."""
    if not tweets:
        return StatFeatureVector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return StatFeatureVector(
        p_original=proportion_original(tweets),
        p_late_night=proportion_late_night(tweets),
        posts_per_week=posts_per_week(tweets),
        posting_time_sd=posting_time_sd(tweets),
        p_negative=proportion_negative(tweet_tokens, scorer, threshold),
        image_freq=image_frequency(tweets),
    )


def extract_features(
    user: UserRecord,
    scorer: SentimentScorer,
    threshold: float = DEFAULT_NEGATIVITY_THRESHOLD,
) -> StatFeatureVector:
    """The six statistics of a user, tokenizing each tweet text afresh."""
    return stat_features(
        user.tweets, [tokenize(t.text) for t in user.tweets], scorer, threshold
    )


@dataclass(frozen=True)
class FeatureNormalizer:
    """Per-component z-score parameters, fitted on training records only."""

    mean: np.ndarray  # shape (6,)
    std: np.ndarray  # shape (6,), floored at STD_FLOOR


def fit_normalizer(train_vectors: Sequence[StatFeatureVector]) -> FeatureNormalizer:
    if len(train_vectors) < 2:
        raise ConfigError(f"normalizer needs >= 2 vectors, got {len(train_vectors)}")
    matrix = np.stack([v.as_array() for v in train_vectors])
    mean = matrix.mean(axis=0)
    std = np.maximum(matrix.std(axis=0), STD_FLOOR)
    return FeatureNormalizer(mean=mean, std=std)


def apply_normalizer(vector: StatFeatureVector, norm: FeatureNormalizer) -> np.ndarray:
    return (vector.as_array() - norm.mean) / norm.std

