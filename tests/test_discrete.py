"""Tests for the membership kernel shared by the discrete families."""

import pytest

from fuzzyci import binomial, poisson
from fuzzyci.discrete import coverage


@pytest.mark.parametrize(
    "module, first, second, taus",
    [
        (
            binomial,
            binomial.BinomialFamily(12, 0.3, 0.9371),
            binomial.BinomialFamily(12, 0.7, 0.9371),
            (0.05, 0.3, 0.5, 0.7, 0.95),
        ),
        (
            poisson,
            poisson.PoissonFamily(2.0, 0.9371),
            poisson.PoissonFamily(9.0, 0.9371),
            (0.5, 2.0, 6.0, 9.0, 14.0),
        ),
    ],
    ids=["binomial", "poisson"],
)
def test_families_differing_only_in_o_share_threshold_cache(module, first, second, taus):
    # The envelope builds one reference family per theta; its cost rests on
    # the thresholds being keyed on everything but o.
    for tau in taus:
        coverage(tau, first)
    top = first.support_upper(max(taus))
    for w in range(top + 1):
        first.breakpoints(w)
    before = module._thresholds.cache_info()
    for tau in taus:
        coverage(tau, second)
    for w in range(top + 1):
        second.breakpoints(w)
    after = module._thresholds.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
