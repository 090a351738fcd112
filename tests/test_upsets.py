import dataclasses
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diagsets.upsets import UPSet, parse_upset

from strategies import periodic_parts, raw_upset_parts, upsets

EVENS = UPSet(0, 2, frozenset({0}))
ODDS = UPSet(0, 2, frozenset({1}))
NATURALS = UPSet(0, 1, frozenset({0}))
# {2} together with every n >= 5 congruent to 1 mod 3, i.e. {2, 7, 10, 13, ...}
MIXED = UPSet(5, 3, frozenset({1}), frozenset({2}))


def _raw_member(t, d, residues, exceptional, m):
    return m in exceptional if m < t else m % d in residues


def test_from_finite_singleton():
    s = UPSet.from_finite([0])
    assert (s.threshold, s.period, s.residues, s.exceptional) == (1, 1, frozenset(), frozenset({0}))


def test_from_finite_odd_values():
    s = UPSet.from_finite([1, 3, 5])
    assert s.threshold == 6
    assert s.exceptional == frozenset({1, 3, 5})
    assert s.residues == frozenset()


def test_from_finite_empty():
    s = UPSet.from_finite([])
    assert s.is_empty()
    assert (s.threshold, s.period) == (0, 1)


@pytest.mark.parametrize("values", [[2.5], [1, 2.0], [True], [0, False]])
def test_from_finite_rejects_values_that_are_not_ints(values):
    with pytest.raises(ValueError, match="integers"):
        UPSet.from_finite(values)


def test_member_on_evens():
    assert EVENS.member(10)
    assert not EVENS.member(7)
    assert EVENS.member(0)


def test_member_on_mixed_set():
    assert MIXED.member(7)  # 7 >= 5 and 7 mod 3 == 1
    assert MIXED.member(2)
    assert not MIXED.member(4)
    assert sorted(MIXED.members_upto(14)) == [2, 7, 10, 13]


def test_shift_finite():
    assert UPSet.from_finite([0, 2]).shift(1) == UPSet.from_finite([1, 3])


def test_shift_evens_gives_odds():
    assert EVENS.shift(1) == ODDS


def test_shift_empty():
    assert UPSet.empty().shift(5) == UPSet.empty()


def test_intersect_evens_odds_empty():
    assert EVENS.intersect(ODDS).is_empty()


def test_intersect_evens_multiples_of_three():
    mult3 = UPSet(0, 3, frozenset({0}))
    assert EVENS.intersect(mult3) == UPSet(0, 6, frozenset({0}))


def test_intersect_mixed_with_finite_prefix():
    # Enumerated independently: members of MIXED within 0..10 are 2, 7, 10.
    prefix = UPSet.from_finite(range(11))
    assert MIXED.intersect(prefix) == UPSet.from_finite([2, 7, 10])


def test_is_empty():
    assert UPSet.empty().is_empty()
    assert not EVENS.is_empty()
    assert EVENS.intersect(ODDS).is_empty()


def test_normalize_halves_redundant_period():
    assert UPSet(0, 4, {0, 2}) == UPSet(0, 2, {0})


def test_normalize_collapses_saturated_prefix_to_naturals():
    s = UPSet(3, 1, {0}, {0, 1, 2})
    assert s == NATURALS
    assert (s.threshold, s.period) == (0, 1)


def test_normalize_keeps_disagreeing_prefix():
    # Membership: false at 0 and 1, true on evens from 2 on.  The trailing
    # exceptional slot at 1 agrees with the periodic rule and is dropped;
    # slot 0 disagrees (0 mod 2 is a residue), so the threshold stays at 1.
    s = UPSet(2, 2, {0})
    assert (s.threshold, s.period, s.residues, s.exceptional) == (1, 2, frozenset({0}), frozenset())
    for m in range(2 + 2 * 2):
        assert s.member(m) == _raw_member(2, 2, {0}, set(), m)


def test_min_element():
    assert UPSet.empty().min_common(NATURALS) is None
    assert EVENS.min_common(NATURALS) == 0
    assert ODDS.min_common(NATURALS) == 1
    assert MIXED.min_common(NATURALS) == 2
    assert UPSet(4, 3, frozenset({1})).min_common(NATURALS) == 4


def test_members_upto():
    assert list(EVENS.members_upto(7)) == [0, 2, 4, 6]
    assert list(UPSet.empty().members_upto(10)) == []


def test_intersect_has_no_period_cap():
    a = UPSet(0, 997, frozenset({0}))
    b = UPSet(0, 1021, frozenset({0}))
    assert a.intersect(b).member(997 * 1021)


def test_huge_thresholds_and_periods_cost_no_scan():
    assert parse_upset("up(t=0,d=100000007,r=0)").period == 100000007
    s = UPSet(10**7, 10**7 + 19, frozenset({0}))
    assert (s.threshold, s.period, s.residues, s.exceptional) == (
        1, 10**7 + 19, frozenset({0}), frozenset()
    )
    tail = UPSet(10**9, 1, frozenset({0}))  # every m >= 10^9
    assert tail.min_common(EVENS) == 10**9
    assert tail.min_common(UPSet(0, 1000003, frozenset({5}))) == 1000 * 1000003 + 5
    assert list(tail.members_upto(10**9 + 2)) == [10**9, 10**9 + 1, 10**9 + 2]
    assert UPSet.from_finite([10**9 + 8]).min_common(EVENS) == 10**9 + 8


def test_literal_forms():
    assert UPSet.from_finite([0, 2]).literal() == "finite(0,2)"
    assert UPSet.from_finite([]).literal() == "finite()"
    assert EVENS.literal() == "up(t=0,d=2,r=0)"
    assert MIXED.literal() == "up(t=5,d=3,r=1,f=2)"


def test_parse_literal_whitespace_insensitive():
    assert parse_upset(" up( t = 5 , d = 3 , r = 1 , f = 2 ) ") == MIXED
    assert parse_upset("finite( 0 , 2 )") == UPSet.from_finite([0, 2])
    assert parse_upset("finite()").is_empty()


@pytest.mark.parametrize(
    "bad",
    [
        "nope",
        "finite(1,",
        "up(t=1,d=2)",
        "up(t=1,d=2,r=2)",  # residue not below period
        "up(t=1,d=2,r=0,f=3)",  # exceptional not below threshold
        "up(t=1,d=0,r=0)",
        "up(t=1,d=2,r=)",
        "up(t=1,d=2,r=0,t=2)",
        "up(t=1,d=2,r=0,q=1)",
        "finite(-1)",
    ],
)
def test_parse_literal_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_upset(bad)


def test_constructor_rejects_out_of_range_parts():
    with pytest.raises(ValueError):
        UPSet(0, 2, frozenset({2}))
    with pytest.raises(ValueError):
        UPSet(1, 2, frozenset(), frozenset({1}))
    with pytest.raises(ValueError):
        UPSet(-1, 2)
    with pytest.raises(ValueError):
        UPSet(0, 0)


@given(raw_upset_parts())
def test_normalize_preserves_membership(parts):
    t, d, residues, exceptional = parts
    s = UPSet(t, d, residues, exceptional)
    for m in range(t + 4 * d):
        assert s.member(m) == _raw_member(t, d, residues, exceptional, m)


@given(upsets())
def test_literal_round_trip(s):
    assert parse_upset(s.literal()) == s


@given(upsets(), upsets())
def test_intersection_matches_pointwise_conjunction(a, b):
    both = a.intersect(b)
    bound = max(a.threshold, b.threshold) + 2 * a.period * b.period
    for m in range(bound):
        assert both.member(m) == (a.member(m) and b.member(m))


@given(upsets(), upsets())
def test_intersection_commutes(a, b):
    assert a.intersect(b) == b.intersect(a)


@given(upsets(), upsets(), upsets())
def test_intersection_associates(a, b, c):
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


@given(upsets(), st.integers(0, 5), st.integers(0, 5))
def test_shift_composes_additively(s, a, b):
    assert s.shift(a).shift(b) == s.shift(a + b)
    shifted = s.shift(a)
    for m in range(s.threshold + 3 * s.period + a):
        assert shifted.member(m) == (m >= a and s.member(m - a))


@given(periodic_parts())
def test_canonical_threshold_and_period_are_minimal(parts):
    t, d, residues, exceptional = parts
    s = UPSet(t, d, residues, exceptional)

    def raw(m):
        return _raw_member(t, d, residues, exceptional, m)

    # Enumeration: the least period of the rule from t on, then one past the
    # last m < t whose membership differs from that rule's.
    period = next(p for p in range(1, d + 1) if all(raw(m) == raw(m + p) for m in range(t, t + d)))
    threshold = 1 + max((m for m in range(t) if raw(m) != raw(m + period * t)), default=-1)
    assert (s.threshold, s.period) == (threshold, period)
    bound = t + 2 * d
    assert list(s.members_upto(bound)) == [m for m in range(bound + 1) if raw(m)]


@given(periodic_parts(), periodic_parts())
def test_min_common_matches_enumeration(a_parts, b_parts):
    a, b = UPSet(*a_parts), UPSet(*b_parts)
    horizon = max(a.threshold, b.threshold) + math.lcm(a.period, b.period)
    expected = next((m for m in range(horizon) if a.member(m) and b.member(m)), None)
    assert a.min_common(b) == expected
    assert b.min_common(a) == expected
    assert a.intersect(b).min_common(NATURALS) == expected


@given(upsets(max_threshold=12, max_period=12), st.integers(2, 3), st.integers(0, 4), st.integers(0, 4))
def test_equal_sets_hash_equally_by_every_route(x, k, extra, shift):
    t, d = x.threshold, x.period
    # The same set with the period d*k and the threshold t + extra, neither minimal.
    padded = UPSet(
        t + extra,
        d * k,
        frozenset(r + i * d for r in x.residues for i in range(k)),
        x.exceptional | {m for m in range(t, t + extra) if x.member(m)},
    )
    groups = [
        [x, padded, x.intersect(padded), x.intersect(NATURALS), parse_upset(x.literal())],
        [x.shift(shift), padded.shift(shift), parse_upset(padded.shift(shift).literal())],
        [UPSet.from_finite(x.members_upto(t + d)), x.intersect(UPSet.from_finite(range(t + d + 1)))],
    ]
    for group in groups:
        assert all(y == group[0] for y in group)
        assert len({hash(y) for y in group}) == 1
    # The stored hash is the hash of the fields, also where no constructor ran.
    kept = [dataclasses.replace(x), dataclasses.replace(x, threshold=t + extra)]
    kept += [pickle.loads(pickle.dumps(y)) for y in (x, padded)]
    for y in kept:
        assert hash(y) == hash((y.threshold, y.period, y.residues, y.exceptional))
