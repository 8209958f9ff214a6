"""Timeline corpus: data model, strict JSONL ingestion, deterministic splits.

A corpus is UTF-8 JSON Lines, one user per line:

    {"user_id": str, "nickname": str, "gender": "m"|"f"|"unknown",
     "profile": str, "birthday": str|null, "num_followers": int,
     "num_followings": int, "label": 0|1,
     "tweets": [{"text": str, "posting_time": "YYYY-MM-DD HH:MM:SS",
                 "has_images": bool, "num_likes": int, "num_forwards": int,
                 "num_comments": int, "is_original": bool}]}

Crawled data is dirty, so malformed lines are skipped and reported as
ParseIssue entries instead of aborting the whole file. Unknown keys are
ignored (forward compatibility); all schema keys above are required,
``birthday`` may be null. A string field holding a lone surrogate (JSON's
``\\ud800`` escape) is malformed: no UTF-8 output could hold it.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import BinaryIO, Iterable, List, NamedTuple, Tuple, Union

from .errors import ConfigError, DataFormatError
from .rng import STREAM_SPLIT, SplitMix64, derive_seed

LABEL_NORMAL = 0
LABEL_DEPRESSED = 1

_TIME_RE = re.compile(r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}$")
_TIME_FORMAT = "%Y-%m-%d %H:%M:%S"

_GENDERS = ("m", "f", "unknown")

_TWEET_FIELDS = (
    ("text", str),
    ("posting_time", str),
    ("has_images", bool),
    ("num_likes", int),
    ("num_forwards", int),
    ("num_comments", int),
    ("is_original", bool),
)

_USER_FIELDS = (
    ("user_id", str),
    ("nickname", str),
    ("gender", str),
    ("profile", str),
    # birthday is validated separately (nullable)
    ("num_followers", int),
    ("num_followings", int),
    ("label", int),
    ("tweets", list),
)


def parse_posting_time(value: str) -> datetime:
    """Parse the canonical second-precision local timestamp.

    Accepts exactly what ``datetime.strptime(value, _TIME_FORMAT)`` accepts
    among strings of the ``_TIME_RE`` shape, and returns the same datetime.
    """
    if not _TIME_RE.match(value):
        raise ValueError(f"not in YYYY-MM-DD HH:MM:SS form: {value!r}")
    if value.isascii():
        return datetime.fromisoformat(value)
    # \d also matches non-ASCII decimal digits, which strptime reads in some
    # fields (the year, a second digit) and fromisoformat never does.
    return datetime.strptime(value, _TIME_FORMAT)


def format_posting_time(dt: datetime) -> str:
    return dt.strftime(_TIME_FORMAT)


class Tweet(NamedTuple):
    """One post in a user's timeline. A NamedTuple, not a frozen dataclass:
    parsing builds one per tweet, and a frozen dataclass's __init__, which
    sets each field through object.__setattr__, costs several times more."""

    text: str
    posting_time: datetime
    has_images: bool
    num_likes: int
    num_forwards: int
    num_comments: int
    is_original: bool


@dataclass(frozen=True)
class UserRecord:
    """One social-media user: profile fields plus a time-sorted timeline."""

    user_id: str
    nickname: str
    gender: str
    profile: str
    birthday: Union[str, None]
    num_followers: int
    num_followings: int
    label: int
    tweets: Tuple[Tweet, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/validation split: same (ratio, seed, corpus) in,
    same partition out."""

    ratio: float = 0.8
    seed: int = 0


@dataclass(frozen=True)
class ParseIssue:
    """One skipped corpus line: 1-based line number plus the reason."""

    line: int
    reason: str


def _check_int(value, name: str) -> int:
    # bool is an int subclass; reject it for count fields.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {name} must be an integer")
    return value


def _tweet_from_obj(obj: dict, index: int) -> Tweet:
    # One combined check accepts a well-formed tweet. JSON gives exact types,
    # so `type(x) is int` rejects a bool as _check_int does. A tweet it does
    # not accept goes through the field table, which names the first fault.
    if type(obj) is dict:
        get = obj.get
        text, posting_time, has_images = get("text"), get("posting_time"), get("has_images")
        likes, forwards, comments = get("num_likes"), get("num_forwards"), get("num_comments")
        is_original = get("is_original")
        if (
            type(text) is str and type(posting_time) is str
            and type(has_images) is bool and type(is_original) is bool
            and type(likes) is int and type(forwards) is int and type(comments) is int
            and likes >= 0 and forwards >= 0 and comments >= 0
            and (has_images or text != "")
        ):
            try:
                when = parse_posting_time(posting_time)
            except ValueError:
                pass
            else:
                return Tweet(text, when, has_images, likes, forwards, comments, is_original)
    return _tweet_by_field_table(obj, index)


def _tweet_by_field_table(obj: dict, index: int) -> Tweet:
    """Each field in table order, then the timestamp, the counts and the
    text; the first fault is the one raised."""
    if not isinstance(obj, dict):
        raise ValueError(f"tweet {index} is not an object")
    for name, typ in _TWEET_FIELDS:
        if name not in obj:
            raise ValueError(f"tweet {index}: missing field: {name}")
        if typ is int:
            _check_int(obj[name], f"tweet {index}.{name}")
        elif typ is bool:
            if not isinstance(obj[name], bool):
                raise ValueError(f"tweet {index}: field {name} must be a boolean")
        elif not isinstance(obj[name], typ):
            raise ValueError(f"tweet {index}: field {name} must be {typ.__name__}")
    try:
        when = parse_posting_time(obj["posting_time"])
    except ValueError as exc:
        raise ValueError(f"tweet {index}: bad posting_time: {exc}") from None
    for name in ("num_likes", "num_forwards", "num_comments"):
        if obj[name] < 0:
            raise ValueError(f"tweet {index}: field {name} must be >= 0")
    if obj["text"] == "" and not obj["has_images"]:
        raise ValueError(f"tweet {index}: empty text on a tweet without images")
    return Tweet(
        text=obj["text"],
        posting_time=when,
        has_images=obj["has_images"],
        num_likes=obj["num_likes"],
        num_forwards=obj["num_forwards"],
        num_comments=obj["num_comments"],
        is_original=obj["is_original"],
    )


def _record_from_obj(obj: dict) -> UserRecord:
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    for name, typ in _USER_FIELDS:
        if name not in obj:
            raise ValueError(f"missing field: {name}")
        if typ is int:
            _check_int(obj[name], name)
        elif not isinstance(obj[name], typ):
            raise ValueError(f"field {name} must be {typ.__name__}")
    if "birthday" not in obj:
        raise ValueError("missing field: birthday")
    if obj["birthday"] is not None and not isinstance(obj["birthday"], str):
        raise ValueError("field birthday must be a string or null")
    if obj["gender"] not in _GENDERS:
        raise ValueError(f"field gender must be one of {_GENDERS}")
    if obj["label"] not in (LABEL_NORMAL, LABEL_DEPRESSED):
        raise ValueError("field label must be 0 or 1")
    for name in ("num_followers", "num_followings"):
        if obj[name] < 0:
            raise ValueError(f"field {name} must be >= 0")
    tweets = [_tweet_from_obj(t, i) for i, t in enumerate(obj["tweets"])]
    # Stable sort: equal timestamps keep input order.
    tweets.sort(key=lambda t: t.posting_time)
    return UserRecord(
        user_id=obj["user_id"],
        nickname=obj["nickname"],
        gender=obj["gender"],
        profile=obj["profile"],
        birthday=obj["birthday"],
        num_followers=obj["num_followers"],
        num_followings=obj["num_followings"],
        label=obj["label"],
        tweets=tuple(tweets),
    )


def _check_encodable(obj: dict) -> None:
    """Reject a lone surrogate in any string a record keeps. No surrogate
    passes the gender or posting_time checks, and unknown keys are dropped,
    so the free-text fields are the ones to check."""
    named = [(f"field {name}", obj[name]) for name in ("user_id", "nickname", "profile")]
    if obj["birthday"] is not None:
        named.append(("field birthday", obj["birthday"]))
    named += [(f"tweet {i}: field text", t["text"]) for i, t in enumerate(obj["tweets"])]
    for name, value in named:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{name} holds a lone surrogate, which UTF-8 cannot encode") from None


def parse_corpus(source: Union[bytes, BinaryIO]) -> Tuple[List[UserRecord], List[ParseIssue]]:
    """Parse a JSON Lines corpus from a byte stream.

    Every well-formed line becomes a UserRecord (tweets sorted by
    posting_time); every malformed line becomes a ParseIssue and is skipped.
    Record order follows file order. Raises DataFormatError only if the
    source itself cannot be read.
    """
    if isinstance(source, bytes):
        stream: BinaryIO = io.BytesIO(source)
    else:
        stream = source
    records: List[UserRecord] = []
    issues: List[ParseIssue] = []
    seen_ids: set = set()
    try:
        raw_lines = stream.readlines()
    except OSError as exc:
        raise DataFormatError(f"unreadable corpus source: {exc}") from exc
    for lineno, raw in enumerate(raw_lines, start=1):
        if not raw.strip():
            continue
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            issues.append(ParseIssue(lineno, f"invalid UTF-8: {exc}"))
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            issues.append(ParseIssue(lineno, f"invalid JSON: {exc.msg}"))
            continue
        except (ValueError, RecursionError) as exc:
            # Valid JSON past the decoder's limits: an integer literal longer
            # than int's digit limit, or nesting deeper than the recursion limit.
            issues.append(ParseIssue(lineno, f"invalid JSON: {exc}"))
            continue
        try:
            record = _record_from_obj(obj)
            # Strict UTF-8 decoding rejects encoded surrogates, so a lone
            # one can only come from a \u escape.
            if b"\\u" in raw:
                _check_encodable(obj)
        except ValueError as exc:
            issues.append(ParseIssue(lineno, str(exc)))
            continue
        if record.user_id in seen_ids:
            issues.append(ParseIssue(lineno, f"duplicate user_id: {record.user_id}"))
            continue
        seen_ids.add(record.user_id)
        records.append(record)
    return records, issues


def tweet_to_obj(tweet: Tweet) -> dict:
    return {
        "text": tweet.text,
        "posting_time": format_posting_time(tweet.posting_time),
        "has_images": tweet.has_images,
        "num_likes": tweet.num_likes,
        "num_forwards": tweet.num_forwards,
        "num_comments": tweet.num_comments,
        "is_original": tweet.is_original,
    }


def record_to_obj(record: UserRecord) -> dict:
    return {
        "user_id": record.user_id,
        "nickname": record.nickname,
        "gender": record.gender,
        "profile": record.profile,
        "birthday": record.birthday,
        "num_followers": record.num_followers,
        "num_followings": record.num_followings,
        "label": record.label,
        "tweets": [tweet_to_obj(t) for t in record.tweets],
    }


def serialize_records(records: Iterable[UserRecord]) -> bytes:
    """Encode records as canonical JSONL (UTF-8, compact separators)."""
    lines = [
        json.dumps(record_to_obj(r), ensure_ascii=False, separators=(",", ":"))
        for r in records
    ]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def check_ratio(ratio: float) -> None:
    if not (0.0 < ratio < 1.0):
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")


def split_dataset(
    records: List[UserRecord], spec: SplitSpec
) -> Tuple[List[UserRecord], List[UserRecord]]:
    """Stratified seeded split.

    Each label class is shuffled by an independent seeded permutation and cut
    at floor(ratio * class_size); the per-class parts are then concatenated
    (label 0 first). The same (ratio, seed, corpus) always yields the
    identical partition.
    """
    if not records:
        raise ConfigError("split_dataset requires a non-empty record list")
    check_ratio(spec.ratio)
    train: List[UserRecord] = []
    validation: List[UserRecord] = []
    for label in (LABEL_NORMAL, LABEL_DEPRESSED):
        group = [r for r in records if r.label == label]
        if not group:
            continue
        rng = SplitMix64(derive_seed(spec.seed, STREAM_SPLIT, label))
        rng.shuffle(group)
        cut = int(spec.ratio * len(group))
        train.extend(group[:cut])
        validation.extend(group[cut:])
    return train, validation
