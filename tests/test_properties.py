"""Property tests: the params JSON round trip and the path-count identity."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rhythmscribe import _dp  # noqa: E402
from rhythmscribe.inference import gather_counts  # noqa: E402
from rhythmscribe.models import (  # noqa: E402
    ModelConfig,
    build_state_space,
    params_from_dict,
    params_to_dict,
    pattern_vocabulary,
    random_params,
)

from conftest import ALL_VARIANTS, tiny_config  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

TABLES = ("initial", "transition", "transition2", "unigram", "shift_probs")


def variant_params(name: str, seed: int, subset: bool, renormalize_masked: bool = True):
    """A tiny config of `name` and Dirichlet-random tables with some zero entries.

    With `subset`, pattern models get a shuffled part of the vocabulary.
    """
    rng = np.random.default_rng(seed)
    base = tiny_config(name)
    config = ModelConfig(base.family, base.order, base.shift, base.division,
                         base.bayesian, base.bar_length, renormalize_masked)
    patterns = None
    if subset and config.family == "pat":
        vocab = pattern_vocabulary(config.bar_length)
        patterns = tuple(vocab[i] for i in rng.permutation(len(vocab))[: max(2, len(vocab) // 2)])
    params = random_params(config.plain(), rng, patterns)
    if params.transition is not None:
        row = rng.integers(len(params.transition))
        params.transition[row] = np.eye(len(params.transition))[rng.integers(len(params.transition))]
    if params.shift_probs is not None:
        keep = rng.random(len(params.shift_probs)) < 0.7
        keep[len(keep) // 2] = True  # shift 0
        params.shift_probs = np.where(keep, params.shift_probs, 0.0)
        params.shift_probs /= params.shift_probs.sum()
    return config, params


@PROPERTY_SETTINGS
@given(name=st.sampled_from(ALL_VARIANTS), seed=st.integers(0, 2**32 - 1), subset=st.booleans())
def test_params_dict_round_trip(name, seed, subset):
    _, params = variant_params(name, seed, subset)
    again = params_from_dict(params_to_dict(params))
    assert (again.family, again.order, again.bar_length) == (
        params.family, params.order, params.bar_length)
    assert again.patterns == params.patterns
    for key in TABLES:
        want = getattr(params, key)
        if want is None:
            assert getattr(again, key) is None
        else:
            np.testing.assert_array_equal(getattr(again, key), want)
    for a, b in zip(again.division_probs or (), params.division_probs or (), strict=True):
        np.testing.assert_array_equal(a, b)
    again.validate()


def log_prior_from_counts(params, counts) -> float:
    """sum over table entries of count x log(entry)."""
    pairs = [
        (counts.initial, params.initial),
        (counts.transition, params.transition),
        (counts.transition2, params.transition2),
        (counts.unigram, params.unigram),
        (counts.shift, params.shift_probs),
    ] + list(zip(counts.division or (), params.division_probs or ()))
    total = 0.0
    for c, p in pairs:
        if c is not None:
            used = c > 0
            total += float(np.sum(c[used] * np.log(p[used])))
    return total


@PROPERTY_SETTINGS
@given(name=st.sampled_from(ALL_VARIANTS), seed=st.integers(0, 2**32 - 1),
       subset=st.booleans(), n_steps=st.integers(1, 7))
def test_counts_give_the_path_log_prior(name, seed, subset, n_steps):
    # without renormalization every weight is a product of table entries, so
    # a path's log prior is its counts dotted with the log tables
    config, params = variant_params(name, seed, subset, renormalize_masked=False)
    space = build_state_space(config, params)
    path = _dp.sample_generative(space, n_steps, np.random.default_rng(seed + 1))
    counts = gather_counts(space, path)
    assert log_prior_from_counts(params, counts) == pytest.approx(path.log_prob, rel=1e-9, abs=1e-9)
    # one initial count and one count per step from the shift table, if any
    assert counts.initial.sum() == 1
    if counts.shift is not None:
        assert counts.shift.sum() == n_steps + 1
