import json
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_user
from depfuse.corpus import (
    _TIME_RE,
    ParseIssue,
    SplitSpec,
    parse_corpus,
    parse_posting_time,
    record_to_obj,
    serialize_records,
    split_dataset,
)
from depfuse.errors import ConfigError, DataFormatError


def valid_line(user_id="u1", label=0, tweets=None, **overrides):
    if tweets is None:
        tweets = [
            {
                "text": "hi",
                "posting_time": "2020-03-02 08:00:00",
                "has_images": False,
                "num_likes": 1,
                "num_forwards": 0,
                "num_comments": 0,
                "is_original": True,
            },
            {
                "text": "bye",
                "posting_time": "2020-03-01 09:00:00",
                "has_images": False,
                "num_likes": 0,
                "num_forwards": 2,
                "num_comments": 1,
                "is_original": False,
            },
        ]
    obj = {
        "user_id": user_id,
        "nickname": "nick",
        "gender": "f",
        "profile": "",
        "birthday": None,
        "num_followers": 3,
        "num_followings": 4,
        "label": label,
        "tweets": tweets,
    }
    obj.update(overrides)
    return obj


def as_bytes(*objs):
    return ("\n".join(json.dumps(o, ensure_ascii=False) for o in objs) + "\n").encode()


# Strings of the strict timestamp shape that name no valid second.
OUT_OF_RANGE_TIMES = [
    "2020-00-01 00:00:00",
    "2020-13-01 00:00:00",
    "2020-01-00 00:00:00",
    "2020-02-30 00:00:00",
    "2021-02-29 00:00:00",
    "2020-01-01 24:00:00",
    "2020-01-01 00:60:00",
    "2020-01-01 00:00:60",
    "0000-01-01 00:00:00",
]


class TestParse:
    def test_tweets_sorted_by_posting_time(self):
        records, issues = parse_corpus(as_bytes(valid_line()))
        assert issues == []
        assert [t.posting_time for t in records[0].tweets] == [
            datetime(2020, 3, 1, 9, 0, 0),
            datetime(2020, 3, 2, 8, 0, 0),
        ]

    def test_missing_label_reported(self):
        obj = valid_line()
        del obj["label"]
        records, issues = parse_corpus(as_bytes(obj))
        assert records == []
        assert issues == [ParseIssue(1, "missing field: label")]

    def test_invalid_json_line_skipped(self):
        payload = (
            json.dumps(valid_line("a")) + "\n" + "{not json}\n" + json.dumps(valid_line("b")) + "\n"
        ).encode()
        records, issues = parse_corpus(payload)
        assert [r.user_id for r in records] == ["a", "b"]
        assert len(issues) == 1 and issues[0].line == 2

    @pytest.mark.parametrize("field", ["user_id", "nickname", "profile", "birthday", "text"])
    def test_lone_surrogate_reported_where_it_enters(self, field):
        bad = valid_line("bad", birthday="1990")
        holder = bad["tweets"][1] if field == "text" else bad
        holder[field] += "\ud800"
        payload = (json.dumps(valid_line("a")) + "\n" + json.dumps(bad) + "\n").encode()
        records, issues = parse_corpus(payload)
        assert [r.user_id for r in records] == ["a"]
        assert len(issues) == 1 and issues[0].line == 2
        assert f"field {field} holds a lone surrogate" in issues[0].reason

    def test_duplicate_user_id_skips_later_line(self):
        records, issues = parse_corpus(as_bytes(valid_line("same"), valid_line("same")))
        assert len(records) == 1
        assert issues[0].line == 2 and "duplicate user_id" in issues[0].reason

    def test_empty_text_requires_images(self):
        bad = valid_line(
            tweets=[
                {
                    "text": "",
                    "posting_time": "2020-01-01 00:00:00",
                    "has_images": False,
                    "num_likes": 0,
                    "num_forwards": 0,
                    "num_comments": 0,
                    "is_original": True,
                }
            ]
        )
        records, issues = parse_corpus(as_bytes(bad))
        assert records == [] and len(issues) == 1

        ok = valid_line(tweets=[dict(bad["tweets"][0], has_images=True)])
        records, issues = parse_corpus(as_bytes(ok))
        assert len(records) == 1 and issues == []

    @pytest.mark.parametrize(
        "mutation",
        [
            {"gender": "x"},
            {"label": 2},
            {"num_followers": -1},
            {"birthday": 5},
            {"tweets": "nope"},
        ],
    )
    def test_bad_field_values_reported(self, mutation):
        records, issues = parse_corpus(as_bytes(valid_line(**mutation)))
        assert records == [] and len(issues) == 1

    def test_bad_timestamp_reported(self):
        bad = valid_line()
        bad["tweets"][0]["posting_time"] = "2020/03/02 08:00"
        records, issues = parse_corpus(as_bytes(bad))
        assert records == [] and "posting_time" in issues[0].reason

    @pytest.mark.parametrize("value", OUT_OF_RANGE_TIMES)
    def test_out_of_range_timestamp_reported(self, value):
        bad = valid_line()
        bad["tweets"][1]["posting_time"] = value
        records, issues = parse_corpus(as_bytes(bad))
        assert records == [] and len(issues) == 1
        assert "posting_time" in issues[0].reason

    @pytest.mark.parametrize(
        "line", [b"[" * 100_000, b'{"user_id": ' + b"1" * 5000 + b"}"], ids=["deep", "long-int"]
    )
    def test_json_past_decoder_limits_reported(self, line):
        records, issues = parse_corpus(as_bytes(valid_line("a")) + line + b"\n")
        assert [r.user_id for r in records] == ["a"]
        assert [i.line for i in issues] == [2] and "invalid JSON" in issues[0].reason

    def test_unknown_keys_ignored(self):
        records, issues = parse_corpus(as_bytes(valid_line(extra_field=1)))
        assert len(records) == 1 and issues == []

    def test_unreadable_source_is_fatal(self):
        class FailingStream:
            def readlines(self):
                raise OSError("device gone")

        with pytest.raises(DataFormatError, match="unreadable"):
            parse_corpus(FailingStream())

    def test_invalid_utf8_line_skipped(self):
        payload = json.dumps(valid_line("a")).encode() + b"\n\xff\xfe broken \xff\n"
        records, issues = parse_corpus(payload)
        assert [r.user_id for r in records] == ["a"]
        assert len(issues) == 1 and "UTF-8" in issues[0].reason


def _tweet(**changes):
    """A valid tweet object with ``changes`` applied; a None value deletes the key."""
    obj = {
        "text": "hi",
        "posting_time": "2020-03-02 08:00:00",
        "has_images": False,
        "num_likes": 1,
        "num_forwards": 0,
        "num_comments": 0,
        "is_original": True,
    }
    for name, value in changes.items():
        if value is None:
            del obj[name]
        else:
            obj[name] = value
    return obj


_MISSING = [
    (f"missing-{name}", _tweet(**{name: None}), f"tweet 1: missing field: {name}")
    for name in ("text", "posting_time", "has_images", "num_likes", "num_forwards",
                 "num_comments", "is_original")
]

# Every tweet-level reason, as the second tweet of a line gets it: the field
# table is walked in its own order, then the timestamp, the counts and the
# text are checked.
TWEET_ISSUES = _MISSING + [
    ("not-an-object", ["hi"], "tweet 1 is not an object"),
    ("null", None, "tweet 1 is not an object"),
    ("text-int", _tweet(text=5), "tweet 1: field text must be str"),
    ("posting_time-int", _tweet(posting_time=20200302),
     "tweet 1: field posting_time must be str"),
    ("has_images-int", _tweet(has_images=1), "tweet 1: field has_images must be a boolean"),
    ("num_likes-bool", _tweet(num_likes=True), "field tweet 1.num_likes must be an integer"),
    ("num_forwards-str", _tweet(num_forwards="3"),
     "field tweet 1.num_forwards must be an integer"),
    ("num_comments-float", _tweet(num_comments=1.5),
     "field tweet 1.num_comments must be an integer"),
    ("is_original-int", _tweet(is_original=0), "tweet 1: field is_original must be a boolean"),
    ("num_likes-negative", _tweet(num_likes=-1), "tweet 1: field num_likes must be >= 0"),
    ("num_forwards-negative", _tweet(num_forwards=-1),
     "tweet 1: field num_forwards must be >= 0"),
    ("num_comments-negative", _tweet(num_comments=-2),
     "tweet 1: field num_comments must be >= 0"),
    ("empty-text", _tweet(text=""), "tweet 1: empty text on a tweet without images"),
    ("malformed-time", _tweet(posting_time="2020/03/02 08:00"),
     "tweet 1: bad posting_time: not in YYYY-MM-DD HH:MM:SS form: '2020/03/02 08:00'"),
    ("out-of-range-time", _tweet(posting_time="2020-00-01 00:00:00"),
     "tweet 1: bad posting_time: month must be in 1..12"),
    ("non-ascii-digit-time", _tweet(posting_time="2020-0\u0661-01 00:00:00"),
     "tweet 1: bad posting_time: time data '2020-0\u0661-01 00:00:00' does not match"
     " format '%Y-%m-%d %H:%M:%S'"),
    # Several faults at once: the first in that order is the one named.
    ("type-before-missing", _tweet(text=5, is_original=None),
     "tweet 1: field text must be str"),
    ("time-before-counts-and-text", _tweet(posting_time="x", num_likes=-1, text=""),
     "tweet 1: bad posting_time: not in YYYY-MM-DD HH:MM:SS form: 'x'"),
    ("counts-before-text", _tweet(num_comments=-1, text=""),
     "tweet 1: field num_comments must be >= 0"),
]


class TestTweetIssueReasons:
    @pytest.mark.parametrize(
        "tweet, reason", [c[1:] for c in TWEET_ISSUES], ids=[c[0] for c in TWEET_ISSUES]
    )
    def test_reason_is_pinned(self, tweet, reason):
        line = valid_line(tweets=[_tweet(), tweet])
        records, issues = parse_corpus(as_bytes(valid_line("a"), line))
        assert [r.user_id for r in records] == ["a"]
        assert issues == [ParseIssue(2, reason)]

    @pytest.mark.parametrize(
        "changes",
        [{}, {"text": "", "has_images": True}, {"posting_time": "2020-03-02 0\u0668:00:00"},
         {"num_likes": 0, "num_forwards": 10**30}],
        ids=["plain", "image-only", "non-ascii-digit", "big-count"],
    )
    def test_valid_tweet_accepted(self, changes):
        records, issues = parse_corpus(as_bytes(valid_line(tweets=[_tweet(**changes)])))
        assert issues == []
        tweet = records[0].tweets[0]
        assert tweet.posting_time == datetime(2020, 3, 2, 8, 0, 0)
        assert (tweet.text, tweet.has_images) == (
            changes.get("text", "hi"), changes.get("has_images", False)
        )
        assert tweet.num_forwards == changes.get("num_forwards", 0)


times = st.datetimes(
    min_value=datetime(1990, 1, 1), max_value=datetime(2049, 12, 31)
).map(lambda d: d.replace(microsecond=0))

tweet_objs = st.builds(
    lambda text, time, imgs, likes, fwd, com, orig: {
        "text": text if (text or imgs) else "x",
        "posting_time": time.strftime("%Y-%m-%d %H:%M:%S"),
        "has_images": imgs,
        "num_likes": likes,
        "num_forwards": fwd,
        "num_comments": com,
        "is_original": orig,
    },
    st.text(max_size=20),
    times,
    st.booleans(),
    st.integers(0, 10**6),
    st.integers(0, 100),
    st.integers(0, 100),
    st.booleans(),
)

record_objs = st.builds(
    lambda uid, nick, gender, profile, birthday, nf, ng, label, tweets: valid_line(
        user_id=uid,
        label=label,
        tweets=tweets,
        nickname=nick,
        gender=gender,
        profile=profile,
        birthday=birthday,
        num_followers=nf,
        num_followings=ng,
    ),
    st.text(min_size=1, max_size=12),
    st.text(max_size=8),
    st.sampled_from(["m", "f", "unknown"]),
    st.text(max_size=16),
    st.none() | st.text(max_size=10),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 1),
    st.lists(tweet_objs, max_size=6),
)


class TestRoundTrip:
    @given(record_objs)
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_round_trip(self, obj):
        records, issues = parse_corpus(as_bytes(obj))
        assert issues == []
        again, issues = parse_corpus(serialize_records(records))
        assert issues == []
        assert again == records
        assert record_to_obj(again[0])["tweets"] == sorted(
            record_to_obj(records[0])["tweets"], key=lambda t: t["posting_time"]
        )


# Other scripts' decimal digits, which the timestamp shape's \d also matches.
_OTHER_DIGITS = ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")


# Out-of-range or edge values per field (year, month, day, hour, minute, second).
_FIELD_EDGES = (
    [0, 1, 1900, 2000, 9999],
    [0, 1, 12, 13, 99],
    [0, 1, 29, 30, 31, 32, 99],
    [0, 23, 24, 99],
    [0, 59, 60, 99],
    [0, 59, 60, 61, 99],
)


@st.composite
def shaped_times(draw):
    """Strings of the strict YYYY-MM-DD HH:MM:SS shape: a valid time with up
    to two fields set to an edge value and up to two digits written in
    another script, sometimes with a trailing newline."""
    when = draw(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)))
    fields = [when.year, when.month, when.day, when.hour, when.minute, when.second]
    for k in draw(st.sets(st.integers(0, 5), max_size=2)):
        fields[k] = draw(st.sampled_from(_FIELD_EDGES[k]))
    chars = list("%04d-%02d-%02d %02d:%02d:%02d" % tuple(fields))
    digit_positions = [i for i, c in enumerate(chars) if c.isdigit()]
    for i in draw(st.sets(st.sampled_from(digit_positions), max_size=2)):
        chars[i] = draw(st.sampled_from(_OTHER_DIGITS))[int(chars[i])]
    return "".join(chars) + draw(st.sampled_from(["", "\n"]))


def assert_parses_like_strptime(value):
    """Same datetime as strptime, or ValueError from both."""
    assert _TIME_RE.match(value)
    try:
        expected = datetime.strptime(value, "%Y-%m-%d %H:%M:%S")
    except ValueError:
        with pytest.raises(ValueError):
            parse_posting_time(value)
    else:
        assert parse_posting_time(value) == expected


class TestPostingTime:
    @pytest.mark.parametrize(
        "value",
        OUT_OF_RANGE_TIMES
        + ["2020-02-29 23:59:59", "٢٠٢٠-01-01 00:00:0٥", "2020-01-01 00:00:00\n"],
    )
    def test_named_edges_match_strptime(self, value):
        assert_parses_like_strptime(value)

    @given(shaped_times())
    @settings(max_examples=250, derandomize=True, deadline=None)
    def test_matches_strptime(self, value):
        assert_parses_like_strptime(value)


@st.composite
def corpus_lines(draw):
    """One corpus line: arbitrary bytes, or a valid line with one key dropped,
    one value of the wrong type, a bad timestamp or invalid UTF-8."""
    kind = draw(st.sampled_from(["bytes", "valid", "drop", "type", "time", "utf8", "surrogate"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40) | st.sampled_from([b"[" * 100_000, b"1" * 5000]))
    obj = draw(record_objs)
    holder = obj
    if obj["tweets"] and (kind == "time" or draw(st.booleans())):
        holder = draw(st.sampled_from(obj["tweets"]))
    if kind == "drop":
        del holder[draw(st.sampled_from(sorted(holder)))]
    elif kind == "type":
        holder[draw(st.sampled_from(sorted(holder)))] = draw(
            st.sampled_from([None, True, -1, 1.5, "1", [], {}])
        )
    elif kind == "time" and holder is not obj:
        holder["posting_time"] = draw(shaped_times() | st.text(max_size=20))
    elif kind == "surrogate":
        key = draw(st.sampled_from(sorted(k for k, v in holder.items() if isinstance(v, str))))
        holder[key] += draw(st.sampled_from(["\ud800", "\udfff", "\udc80x"]))
        # ASCII escapes: a lone surrogate has no UTF-8 encoding to write raw.
        return json.dumps(obj).encode()
    line = json.dumps(obj, ensure_ascii=False).encode()
    if kind == "utf8":
        cut = draw(st.integers(0, len(line)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\xe4\xb8", b"\xed\xa0\x80"]))
        line = line[:cut] + bad + line[cut:]
    return line


class TestParseFuzz:
    @given(st.lists(corpus_lines(), max_size=6))
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_each_line_is_one_record_or_one_issue(self, lines):
        data = b"\n".join(lines) + b"\n"
        records, issues = parse_corpus(data)
        nonblank = {n for n, raw in enumerate(data.split(b"\n"), start=1) if raw.strip()}
        issue_lines = [issue.line for issue in issues]
        assert len(set(issue_lines)) == len(issue_lines)
        assert set(issue_lines) <= nonblank
        assert len(records) + len(issues) == len(nonblank)
        # Whatever is accepted can be written back out as UTF-8.
        parse_corpus(serialize_records(records))


def stub_records(labels):
    return [make_user(user_id=f"u{i}", label=label) for i, label in enumerate(labels)]


class TestSplit:
    def test_paper_scale_sizes(self):
        records = stub_records([0] * 10_000 + [1] * 10_000)
        train, val = split_dataset(records, SplitSpec(ratio=0.8, seed=3))
        assert (len(train), len(val)) == (16_000, 4_000)

    def test_small_stratified_counts(self):
        records = stub_records([0, 1] * 5)
        train, val = split_dataset(records, SplitSpec(ratio=0.8, seed=1))
        assert (len(train), len(val)) == (8, 2)
        assert sum(1 for r in train if r.label == 0) == 4
        assert sum(1 for r in train if r.label == 1) == 4
        assert sum(1 for r in val if r.label == 0) == 1

    def test_same_seed_identical(self):
        records = stub_records([0, 1, 0, 1, 0, 1, 0, 1])
        first = split_dataset(records, SplitSpec(ratio=0.5, seed=42))
        second = split_dataset(records, SplitSpec(ratio=0.5, seed=42))
        assert first == second

    def test_bad_ratio_rejected(self):
        records = stub_records([0, 1])
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                split_dataset(records, SplitSpec(ratio=ratio, seed=0))
        with pytest.raises(ConfigError):
            split_dataset([], SplitSpec(ratio=0.5, seed=0))

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=60),
        st.floats(0.05, 0.95),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_disjoint_union_and_class_balance(self, labels, ratio, seed):
        records = stub_records(labels)
        train, val = split_dataset(records, SplitSpec(ratio=ratio, seed=seed))
        train_ids = {r.user_id for r in train}
        val_ids = {r.user_id for r in val}
        assert train_ids.isdisjoint(val_ids)
        assert train_ids | val_ids == {r.user_id for r in records}
        for label in (0, 1):
            class_size = sum(1 for r in records if r.label == label)
            got = sum(1 for r in train if r.label == label)
            assert abs(got - ratio * class_size) <= 1
