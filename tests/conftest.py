"""Fixtures shared across test modules."""

import pytest

from subexp.exact import exact_coefficients
from subexp.model import make_preset


@pytest.fixture(scope="session")
def preset_counts():
    """counts(args, N): c_0..c_N (or more) of make_preset(*args), counted
    once per session at the largest N asked for so far."""
    cache = {}

    def counts(args, N):
        if len(cache.get(args, ())) <= N:
            cache[args] = exact_coefficients(make_preset(*args), N).coeffs
        return cache[args]

    return counts
