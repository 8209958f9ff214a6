import math

import pytest

import oracles
from depfuse.corpus import parse_corpus, serialize_records
from depfuse.errors import ConfigError
from depfuse.features import (
    default_lexicon,
    default_scorer,
    extract_features,
    image_frequency,
    proportion_late_night,
    proportion_negative,
    proportion_original,
)
from depfuse.rng import SplitMix64
from depfuse.synth import (
    DEFAULT_PARAMS,
    ClassParams,
    NEGATIVE_POOL,
    NEUTRAL_POOL,
    SynthDatasetSpec,
    SynthParams,
    generate_dataset,
    generate_user,
)
from depfuse.text import tokenize


def params_with(label_params):
    return SynthParams(normal=label_params, depressed=label_params)


def p_negative(tweets):
    """proportion_negative under the default scorer, each tweet tokenized."""
    return proportion_negative([tokenize(t.text) for t in tweets], default_scorer())


class TestGenerateUser:
    def test_late_night_saturation(self):
        cp = ClassParams(1.0, 0.0, 0.5, 0.5)
        user = generate_user(1, params_with(cp), SplitMix64(3))
        assert proportion_late_night(user.tweets) == 1.0

    def test_disjoint_pools_give_zero_negative(self):
        cp = ClassParams(0.2, 0.0, 0.5, 0.5)
        user = generate_user(0, params_with(cp), SplitMix64(4))
        assert p_negative(user.tweets) == 0.0

    def test_all_negative_pool_saturates(self):
        cp = ClassParams(0.2, 1.0, 0.5, 0.5)
        user = generate_user(1, params_with(cp), SplitMix64(5))
        assert p_negative(user.tweets) == 1.0

    def test_deterministic_for_fixed_seed(self):
        a = generate_user(1, DEFAULT_PARAMS, SplitMix64(99))
        b = generate_user(1, DEFAULT_PARAMS, SplitMix64(99))
        assert a == b
        assert serialize_records([a]) == serialize_records([b])

    def test_tweets_sorted(self):
        user = generate_user(0, DEFAULT_PARAMS, SplitMix64(12))
        times = [t.posting_time for t in user.tweets]
        assert times == sorted(times)


class TestPools:
    def test_negative_pool_is_subset_of_default_lexicon(self):
        lexicon = oracles.lexicon_tokens(default_lexicon())
        for term in NEGATIVE_POOL:
            for token in oracles._tokens(term):
                assert token in lexicon, token

    def test_neutral_pool_disjoint_from_default_lexicon(self):
        lexicon = oracles.lexicon_tokens(default_lexicon())
        for term in NEUTRAL_POOL:
            for token in oracles._tokens(term):
                assert token not in lexicon, token


class TestGenerateDataset:
    def test_balanced_counts(self):
        records = generate_dataset(SynthDatasetSpec(n_per_class=250, seed=7))
        assert len(records) == 500
        assert sum(r.label for r in records) == 250
        assert len({r.user_id for r in records}) == 500

    def test_seed_changes_order_not_counts(self):
        a = generate_dataset(SynthDatasetSpec(n_per_class=20, seed=1))
        b = generate_dataset(SynthDatasetSpec(n_per_class=20, seed=2))
        assert [r.user_id for r in a] != [r.user_id for r in b]
        assert sum(r.label for r in a) == sum(r.label for r in b) == 20

    def test_n_zero_rejected(self):
        with pytest.raises(ConfigError):
            generate_dataset(SynthDatasetSpec(n_per_class=0, seed=1))

    def test_round_trip_has_zero_issues(self):
        records = generate_dataset(SynthDatasetSpec(n_per_class=25, seed=11))
        parsed, issues = parse_corpus(serialize_records(records))
        assert issues == []
        assert parsed == records


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(SynthDatasetSpec(n_per_class=250, seed=7))


class TestSignalConvergence:
    def test_late_night_lln(self, dataset):
        depressed = [r for r in dataset if r.label == 1]
        mean = sum(proportion_late_night(r.tweets) for r in depressed) / len(depressed)
        assert abs(mean - DEFAULT_PARAMS.depressed.late_night_rate) <= 0.05

    @pytest.mark.parametrize(
        "label,attr,feature",
        [
            (0, "late_night_rate", proportion_late_night),
            (1, "late_night_rate", proportion_late_night),
            (0, "original_rate", proportion_original),
            (1, "original_rate", proportion_original),
            (0, "image_rate", image_frequency),
            (1, "image_rate", image_frequency),
            # Lambdas keep these cases' ids.
            (0, "negative_word_rate", lambda ts: p_negative(ts)),
            (1, "negative_word_rate", lambda ts: p_negative(ts)),
        ],
    )
    def test_feature_means_within_three_binomial_sd(self, dataset, label, attr, feature):
        group = [r for r in dataset if r.label == label]
        rate = getattr(DEFAULT_PARAMS.for_label(label), attr)
        mean = sum(feature(r.tweets) for r in group) / len(group)
        # Each tweet is an independent Bernoulli(rate) trial; the mean of
        # per-user proportions has variance p(1-p) * sum(1/n_i) / U^2.
        inv = sum(1.0 / len(r.tweets) for r in group)
        sd = math.sqrt(max(rate * (1 - rate), 1e-12) * inv) / len(group)
        assert abs(mean - rate) <= max(3 * sd, 1e-9), (attr, label, mean, rate, sd)

    def test_features_separate_classes(self, dataset):
        scorer = default_scorer()
        by_label = {0: [], 1: []}
        for record in dataset[:100]:
            by_label[record.label].append(extract_features(record, scorer))
        mean = lambda vs, i: sum(v.as_array()[i] for v in vs) / len(vs)
        # late-night and negative proportions should be far apart
        assert mean(by_label[1], 1) - mean(by_label[0], 1) > 0.4
        assert mean(by_label[1], 4) - mean(by_label[0], 4) > 0.3
