"""The series' stop test decided from binary exponents against the mpf
expression it replaces.

asymptotics._term_below stands for abs(term) < tol * (1 + abs(partial)).
It decides from exp + bc alone when its two sides lie at least
asymptotics.MARGIN_BITS binades apart, and forms the expression otherwise.
The operands are drawn inside, at and beyond that margin, with zeros and
both signs, and every decision must equal the expression's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, fzero

from subexp import asymptotics

DPS = (15, 38, 60)
# offsets, in binades, of one side's exponent from the other's: the margin
# is 2, so -4..4 covers both sides of it and the undecided band between
OFFSETS = st.integers(-4, 4)


@st.composite
def raw_values(draw, e):
    """A nonzero raw value of at most mp.prec bits with exp + bc = e."""
    bits = draw(st.sampled_from([1, 2, mp.prec - 1, mp.prec])
                | st.integers(1, mp.prec))
    # the smallest and largest mantissas of that length, or any between
    man = draw(st.sampled_from([2 ** (bits - 1), 2**bits - 1])
               | st.integers(2 ** (bits - 1), 2**bits - 1))
    value = from_man_exp(-man if draw(st.booleans()) else man, e - bits)
    assert value[2] + value[3] == e
    return value


def _exponent(v):
    return v[2] + v[3]


def _at(e, man):
    """The raw value man * 2^(e - bits of man), whose exp + bc is e."""
    return from_man_exp(man, e - man.bit_length())


def _check_term(term, partial, eps):
    prec, rounding = mp._prec_rounding
    got = asymptotics._term_below(term, partial, eps, prec, rounding)
    term, partial, eps = map(mp.make_mpf, (term, partial, eps))
    assert got == (abs(term) < eps * (1 + abs(partial)))


def _zero_or(draw, values):
    return fzero if draw(st.integers(0, 7)) == 0 else draw(values)


@st.composite
def term_operands(draw):
    """(term, partial, eps) with eps > 0, term and partial possibly zero."""
    tol = asymptotics.DELTA_SERIES_TOL._mpf_
    eps = draw(st.just(tol) | raw_values(draw(st.integers(-60, 0))))
    eps = (0,) + eps[1:]
    partial = _zero_or(draw, raw_values(draw(st.integers(-8, 12))))
    e = _exponent(eps) + max(1, _exponent(partial)) + draw(OFFSETS)
    return _zero_or(draw, raw_values(e)), partial, eps


@pytest.mark.parametrize("dps", DPS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_term_decision_equals_the_mpf_expression(dps, data):
    with mp.workdps(dps):
        _check_term(*data.draw(term_operands()))


@pytest.mark.parametrize("dps", DPS)
def test_term_decision_one_binade_inside_the_margin(dps):
    # exponents one binade from a decision, where a margin of 1x or 2x
    # decides wrongly: a term just above tol with a zero partial, and a
    # term just below eps * (1 + ~4)
    with mp.workdps(dps):
        top = 2**mp.prec - 1  # the largest mantissa at the working precision
        tol = asymptotics.DELTA_SERIES_TOL._mpf_
        _check_term(_at(_exponent(tol), top), fzero, tol)
        _check_term(_at(-37, 1), _at(2, top), _at(-40, top))
