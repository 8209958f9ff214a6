import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_tweet, make_user
from depfuse.text import (
    CLS,
    PAD,
    SEP,
    UNK,
    build_vocab,
    tokenize,
)
from depfuse.text import build_user_sequence as build_from_tokens


def build_user_sequence(user, vocab, max_len):
    """The sequence of a record, each of its texts tokenized."""
    return build_from_tokens(
        tokenize(user.nickname),
        tokenize(user.profile),
        [tokenize(t.text) for t in user.tweets],
        vocab,
        max_len,
    )


# Half the characters are the codepoints on each side of every CJK range
# edge, whitespace that str.split() breaks on, and letters whose lowercase
# depends on context or is longer than one codepoint; half are ASCII.
TOKENIZER_ALPHABET = st.sampled_from(
    [chr(cp) for cp in (0x33FF, 0x3400, 0x4DBF, 0x4DC0, 0x4DFF, 0x4E00,
                        0x9FFF, 0xA000, 0xF8FF, 0xF900, 0xFAFF, 0xFB00)]
    + ["\u3000", "\u00a0", "\t", "\n", "İ", "Σ", "ẞ"]
) | st.sampled_from([chr(cp) for cp in range(0x20, 0x7F)])


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("hello world") == ["hello", "world"]

    def test_cjk_per_codepoint(self):
        assert tokenize("我 很累") == ["我", "很", "累"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    def test_lowercasing(self):
        assert tokenize("Hello WORLD") == ["hello", "world"]

    def test_mixed_chunk_splits_fully(self):
        assert tokenize("A我b") == ["a", "我", "b"]

    def test_cjk_chunk_lowercases_each_codepoint_alone(self):
        # A whole-chunk lower() would turn the chunk-final sigma into "ς".
        assert tokenize("ΑΣ我") == ["α", "σ", "我"]
        assert tokenize("ΑΣ 我") == ["ας", "我"]

    @given(st.text(alphabet=TOKENIZER_ALPHABET, max_size=40))
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_matches_straight_loop_oracle(self, text):
        assert tokenize(text) == oracles._tokens(text)


class TestVocab:
    def test_min_freq_sends_rare_tokens_to_unk(self):
        records = [make_user(tweets=[make_tweet(text="a a a a a b")])]
        vocab = build_vocab(records, min_freq=6)
        assert vocab.encode("a") == UNK
        assert len(vocab) == 4

    def test_frequency_then_lexicographic_order(self):
        records = [make_user(tweets=[make_tweet(text="zz zz aa aa mid mid mid")])]
        vocab = build_vocab(records, min_freq=1)
        assert vocab.encode("mid") == 4  # most frequent
        assert vocab.encode("aa") == 5  # tie broken lexicographically
        assert vocab.encode("zz") == 6

    def test_empty_corpus_keeps_specials_only(self):
        vocab = build_vocab([], min_freq=1)
        assert len(vocab) == 4
        assert (PAD, UNK, CLS, SEP) == (0, 1, 2, 3)

    def test_ids_contiguous(self):
        records = [make_user(tweets=[make_tweet(text="one two three four five")])]
        vocab = build_vocab(records)
        ids = sorted([0, 1, 2, 3] + list(vocab.token_to_id.values()))
        assert ids == list(range(len(vocab)))

    def test_min_freq_validated(self):
        with pytest.raises(ValueError):
            build_vocab([], min_freq=0)


class TestUserSequence:
    def test_header_layout(self):
        vocab = build_vocab([make_user(nickname="a", profile="")])
        user = make_user(nickname="a", profile="", tweets=[])
        seq = build_user_sequence(user, vocab, max_len=8)
        assert seq.ids == (CLS, vocab.encode("a"), SEP, SEP, PAD, PAD, PAD, PAD)
        assert seq.true_len == 4

    def test_truncation(self):
        text = " ".join(f"w{i}" for i in range(50))
        user = make_user(nickname="n", profile="p", tweets=[make_tweet(text=text)])
        vocab = build_vocab([user])
        seq = build_user_sequence(user, vocab, max_len=16)
        assert len(seq.ids) == 16
        assert seq.true_len == 16
        assert PAD not in seq.ids

    def test_tweets_in_chronological_order_with_separators(self):
        user = make_user(
            nickname="",
            profile="",
            tweets=[
                make_tweet("2020-01-01 10:00:00", "first"),
                make_tweet("2020-01-02 10:00:00", "second"),
            ],
        )
        vocab = build_vocab([user])
        seq = build_user_sequence(user, vocab, max_len=10)
        expected = (
            CLS,
            SEP,
            SEP,
            vocab.encode("first"),
            SEP,
            vocab.encode("second"),
            PAD,
            PAD,
            PAD,
            PAD,
        )
        assert seq.ids == expected
        assert seq.true_len == 6

    def test_min_max_len(self):
        user = make_user()
        vocab = build_vocab([user])
        with pytest.raises(ValueError):
            build_user_sequence(user, vocab, max_len=7)

    def test_out_of_order_corpus_lines_build_chronological_sequences(self):
        import json

        from depfuse.corpus import parse_corpus

        line = {
            "user_id": "u",
            "nickname": "",
            "gender": "m",
            "profile": "",
            "birthday": None,
            "num_followers": 0,
            "num_followings": 0,
            "label": 0,
            "tweets": [
                {"text": "later", "posting_time": "2020-02-01 00:00:00",
                 "has_images": False, "num_likes": 0, "num_forwards": 0,
                 "num_comments": 0, "is_original": True},
                {"text": "earlier", "posting_time": "2020-01-01 00:00:00",
                 "has_images": False, "num_likes": 0, "num_forwards": 0,
                 "num_comments": 0, "is_original": True},
            ],
        }
        records, issues = parse_corpus((json.dumps(line) + "\n").encode())
        assert issues == []
        vocab = build_vocab(records)
        seq = build_user_sequence(records[0], vocab, max_len=8)
        first, second = vocab.encode("earlier"), vocab.encode("later")
        assert seq.ids[:6] == (CLS, SEP, SEP, first, SEP, second)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_deterministic(self, seed):
        user = make_user(
            nickname=f"nick{seed % 7}",
            tweets=[make_tweet(text=f"tok{seed % 5} shared words")],
        )
        vocab = build_vocab([user])
        a = build_user_sequence(user, vocab, max_len=32)
        b = build_user_sequence(user, vocab, max_len=32)
        assert a == b


def build_then_truncate(nickname, profile, tweets, vocab, max_len):
    """The whole id stream of a user, cut to max_len afterwards."""
    ids = [CLS] + [vocab.encode(t) for t in nickname] + [SEP]
    ids += [vocab.encode(t) for t in profile] + [SEP]
    for i, tokens in enumerate(tweets):
        ids += ([SEP] if i else []) + [vocab.encode(t) for t in tokens]
    ids = ids[:max_len]
    return tuple(ids + [PAD] * (max_len - len(ids))), len(ids)


token_lists = st.lists(st.sampled_from(["a", "b", "c", "zz"]), max_size=6)


class TestSequenceFromTokens:
    @given(token_lists, token_lists, st.lists(token_lists, max_size=5), st.integers(8, 24))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matches_build_then_truncate(self, nickname, profile, tweets, max_len):
        vocab = build_vocab([make_user(nickname="a b", profile="c")])
        seq = build_from_tokens(nickname, profile, tweets, vocab, max_len)
        assert (seq.ids, seq.true_len) == build_then_truncate(
            nickname, profile, tweets, vocab, max_len
        )

    def test_tokens_past_max_len_are_not_looked_up(self):
        vocab = build_vocab([make_user(nickname="a", profile="b")])
        unhashable = [[]]  # a lookup of this token would raise TypeError
        seq = build_from_tokens(
            ["a"] * 3, ["b"] * 3 + unhashable, [unhashable * 4, unhashable], vocab, max_len=8
        )
        a, b = vocab.encode("a"), vocab.encode("b")
        assert seq.ids == (CLS, a, a, a, SEP, b, b, b)
        assert seq.true_len == 8
