import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_tweet, make_user
from depfuse.errors import ConfigError, FeatureError
from depfuse.features import (
    FEATURE_NAMES,
    LexiconScorer,
    apply_normalizer,
    default_lexicon,
    default_scorer,
    extract_features,
    fit_normalizer,
    image_frequency,
    lexicon_score,
    posting_time_sd,
    posts_per_week,
    proportion_late_night,
    proportion_negative,
    proportion_original,
)
from depfuse.synth import SynthDatasetSpec, generate_dataset
from depfuse.text import tokenize


class ConstScorer:
    def __init__(self, value):
        self.value = value
        self.name = f"const-{value}"

    def score(self, tokens):
        return self.value


class BrokenScorer:
    name = "broken"

    def score(self, tokens):
        raise RuntimeError("backend down")


class TestProportions:
    def test_original_ratio(self):
        tweets = [make_tweet(is_original=(i < 4)) for i in range(10)]
        assert proportion_original(tweets) == pytest.approx(0.4)
        assert proportion_original([]) == 0.0
        assert proportion_original([make_tweet() for _ in range(3)]) == 1.0

    def test_late_night_window_boundaries(self):
        tweets = [
            make_tweet("2020-01-01 02:30:00"),
            make_tweet("2020-01-01 05:59:59"),
            make_tweet("2020-01-01 06:00:00"),
            make_tweet("2020-01-01 23:59:00"),
        ]
        assert proportion_late_night(tweets) == pytest.approx(0.5)
        assert proportion_late_night([make_tweet("2020-01-01 12:00:00")] * 3) == 0.0
        assert proportion_late_night([make_tweet("2020-01-01 00:00:00")] * 2) == 1.0

    def test_image_frequency(self):
        tweets = [make_tweet(has_images=(i < 2)) for i in range(8)]
        assert image_frequency(tweets) == pytest.approx(0.25)
        assert image_frequency([make_tweet()] * 4) == 0.0
        assert image_frequency([make_tweet(has_images=True)] * 4) == 1.0


class TestPostsPerWeek:
    def test_three_day_span(self):
        tweets = [make_tweet("2020-01-01 00:00:00"), make_tweet("2020-01-04 00:00:00")]
        tweets += [make_tweet("2020-01-02 10:00:00")] * 7
        assert posts_per_week(tweets) == pytest.approx(21.0)

    def test_single_tweet_one_day_floor(self):
        assert posts_per_week([make_tweet()]) == pytest.approx(7.0)

    def test_two_week_span(self):
        tweets = [make_tweet("2020-01-01 00:00:00"), make_tweet("2020-01-15 00:00:00")]
        tweets += [make_tweet("2020-01-07 09:00:00")] * 12
        assert posts_per_week(tweets) == pytest.approx(7.0)


class TestPostingTimeSd:
    def test_two_point_symmetry(self):
        tweets = [make_tweet("2020-01-01 01:00:00"), make_tweet("2020-01-01 13:00:00")]
        assert posting_time_sd(tweets) == pytest.approx(360.0)

    def test_zero_variance(self):
        assert posting_time_sd([make_tweet("2020-01-01 08:15:00")] * 5) == 0.0
        assert posting_time_sd([make_tweet()]) == 0.0

    def test_quarter_day_grid_matches_loop_oracle(self):
        tweets = [
            make_tweet("2020-01-01 00:00:00"),
            make_tweet("2020-01-01 06:00:00"),
            make_tweet("2020-01-01 12:00:00"),
            make_tweet("2020-01-01 18:00:00"),
        ]
        oracle = oracles.feature_vector(
            [(t.text, t.posting_time, t.has_images, t.is_original) for t in tweets],
            set(),
            0.5,
        )[3]
        assert oracle == pytest.approx(402.49223594996215, abs=1e-12)
        assert posting_time_sd(tweets) == pytest.approx(oracle, abs=1e-12)


class TestNegativeProportion:
    def test_constant_scorers(self):
        tweets = [[f"t{i}"] for i in range(5)]
        assert proportion_negative(tweets, ConstScorer(1.0)) == 1.0
        assert proportion_negative(tweets, ConstScorer(0.0)) == 0.0
        assert proportion_negative([], ConstScorer(1.0)) == 0.0

    def test_default_lexicon_example(self, tiny_user):
        scorer = default_scorer()
        tokens = [tokenize(t.text) for t in tiny_user.tweets]
        assert proportion_negative(tokens, scorer) == pytest.approx(0.5)

    def test_scorer_failure_names_tweet(self):
        with pytest.raises(FeatureError, match="tweet 0"):
            proportion_negative([["hello"], ["world"]], BrokenScorer())

    def test_threshold_is_strict(self):
        tweets = [["x"]]
        assert proportion_negative(tweets, ConstScorer(0.5), threshold=0.5) == 0.0
        assert proportion_negative(tweets, ConstScorer(0.51), threshold=0.5) == 1.0


class TestLexiconScore:
    def test_ratios(self):
        lex = {"bad", "worse"}
        assert lexicon_score([], lex) == 0.0
        assert lexicon_score(["bad", "worse", "bad"], lex) == 1.0
        assert lexicon_score(["one", "two", "three", "bad"], lex) == pytest.approx(0.25)

    def test_cjk_terms_match_codepoint_tokens(self):
        scorer = LexiconScorer(["孤独", "绝望"])
        assert scorer.score(tokenize("孤独 绝望")) == 1.0
        assert scorer.score(tokenize("today is fine")) == 0.0

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ConfigError):
            LexiconScorer([])


class TestExtractFeatures:
    def test_empty_timeline_is_all_zero(self):
        v = extract_features(make_user(tweets=[]), ConstScorer(1.0))
        assert v.as_array().tolist() == [0.0] * 6

    def test_saturated_user(self):
        tweets = [
            make_tweet("2020-01-01 01:00:00", "孤独 绝望", has_images=True),
            make_tweet("2020-01-03 02:00:00", "绝望 孤独", has_images=True),
        ]
        v = extract_features(make_user(tweets=tweets), default_scorer())
        assert v.p_original == 1.0
        assert v.p_late_night == 1.0
        assert v.p_negative == 1.0
        assert v.image_freq == 1.0
        span_days = 2.0 + 1.0 / 24.0
        assert v.posts_per_week == pytest.approx(2.0 / (span_days / 7.0))
        assert v.posting_time_sd == pytest.approx(30.0)

    def test_matches_loop_oracle_on_synthetic_users(self):
        records = generate_dataset(SynthDatasetSpec(n_per_class=12, seed=7))
        lexicon = oracles.lexicon_tokens(default_lexicon())
        scorer = default_scorer()
        for record in records:
            got = extract_features(record, scorer).as_array()
            want = oracles.feature_vector(
                [(t.text, t.posting_time, t.has_images, t.is_original) for t in record.tweets],
                lexicon,
                0.5,
            )
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


hours = st.integers(0, 23)
tweet_lists = st.lists(
    st.builds(
        lambda h, m, img, orig, neg: make_tweet(
            f"2020-01-{1 + m % 20:02d} {h:02d}:{m:02d}:00",
            "孤独 绝望" if neg else "plain words here",
            has_images=img,
            is_original=orig,
        ),
        hours,
        st.integers(0, 59),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


class TestInvariants:
    @given(tweet_lists, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_ranges_and_permutation_invariance(self, tweets, rnd):
        scorer = default_scorer()
        user = make_user(tweets=tweets)
        v = extract_features(user, scorer).as_array()
        for i, name in enumerate(FEATURE_NAMES):
            assert math.isfinite(v[i])
        for i in (0, 1, 4, 5):
            assert 0.0 <= v[i] <= 1.0
        assert 0.0 <= v[3] < 720.0
        assert v[2] >= 0.0
        shuffled = list(tweets)
        rnd.shuffle(shuffled)
        w = extract_features(make_user(tweets=shuffled), scorer).as_array()
        np.testing.assert_allclose(v, w, rtol=0, atol=0)

    @given(tweet_lists)
    @settings(max_examples=40, deadline=None)
    def test_duplicating_tweets(self, tweets):
        scorer = default_scorer()
        v = extract_features(make_user(tweets=tweets), scorer)
        d = extract_features(make_user(tweets=list(tweets) * 2), scorer)
        assert d.p_original == pytest.approx(v.p_original)
        assert d.p_late_night == pytest.approx(v.p_late_night)
        assert d.p_negative == pytest.approx(v.p_negative)
        assert d.image_freq == pytest.approx(v.image_freq)
        assert d.posts_per_week == pytest.approx(2.0 * v.posts_per_week)


class TestNormalizer:
    def vectors(self):
        records = generate_dataset(SynthDatasetSpec(n_per_class=20, seed=3))
        scorer = default_scorer()
        return [extract_features(r, scorer) for r in records]

    def test_zscore_and_inverse(self):
        vectors = self.vectors()
        norm = fit_normalizer(vectors)
        matrix = np.stack([apply_normalizer(v, norm) for v in vectors])
        np.testing.assert_allclose(matrix.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(matrix.std(axis=0), 1.0, atol=1e-6)
        for v in vectors[:5]:
            back = apply_normalizer(v, norm) * norm.std + norm.mean
            np.testing.assert_allclose(back, v.as_array(), atol=1e-9)

    def test_constant_column_floored(self):
        vectors = [
            extract_features(make_user(tweets=[make_tweet()] * (i + 1)), ConstScorer(0.0))
            for i in range(4)
        ]
        norm = fit_normalizer(vectors)
        # p_original is constantly 1.0 here -> std floor applies, column -> 0
        column = np.stack([apply_normalizer(v, norm) for v in vectors])[:, 0]
        np.testing.assert_allclose(column, 0.0, atol=1e-12)

    def test_too_few_vectors(self):
        with pytest.raises(ConfigError):
            fit_normalizer(self.vectors()[:1])
