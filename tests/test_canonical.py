"""Canonical forms of periodic words against a definitional reference.

The reference below tries every divisor period and every rotation, so it
shares no code with the library's linear routine.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sofic2 import PeriodicOrbit, canonicalize_point, primitive_root


def _reference(w):
    """(least index of the least rotation, primitive period) of w."""
    n = len(w)
    p = next(d for d in range(1, n + 1) if n % d == 0 and w == w[:d] * (n // d))
    rotations = [w[d:] + w[:d] for d in range(n)]
    return rotations.index(min(rotations)), p


def _check(w, phase):
    d, p = _reference(w)
    n = len(w)
    assert primitive_root(w) == (w[:p], n // p)
    pt = canonicalize_point(w, phase)
    assert pt.orbit.root == (w[d:] + w[:d])[:p]
    assert pt.phase == (phase - d) % p
    if d == 0 and p == n:
        assert PeriodicOrbit(w).root == w
    else:
        with pytest.raises(ValueError):
            PeriodicOrbit(w)


def _words(alphabet, max_len):
    for n in range(1, max_len + 1):
        yield from product(alphabet, repeat=n)


def test_every_short_word_matches_reference():
    for alphabet, max_len in ((("a", "b"), 10), (("a", "b", "c"), 10),
                              (("a", "ab", "b", "ba"), 7)):
        for i, w in enumerate(_words(alphabet, max_len)):
            _check(w, i % 11 - 5)


def test_random_powers_match_reference():
    rng = random.Random(211)
    for _ in range(300):
        r = tuple(rng.choice(("a", "ab", "b", "ba", "c"))
                  for _ in range(rng.randint(1, 12)))
        _check(r * rng.randint(1, 6), rng.randint(-40, 40))


@settings(derandomize=True, database=None)
@given(st.lists(st.sampled_from(["a", "ab", "b", "ba"]), min_size=1,
                max_size=24).map(tuple),
       st.integers(-50, 50))
def test_canonical_point_is_constant_over_rotations(u, phase):
    # rotating the word by d and moving the phase back by d denote the same
    # configuration
    base = canonicalize_point(u, phase)
    for d in range(len(u)):
        assert canonicalize_point(u[d:] + u[:d], phase - d) == base
