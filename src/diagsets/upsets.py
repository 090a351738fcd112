"""Exact arithmetic on ultimately periodic subsets of the naturals.

An ``UPSet`` is described by a threshold t, a period d, residues R within
[0, d), and an exceptional prefix F within [0, t):

    m in S  <=>  (m < t and m in F)  or  (m >= t and m mod d in R)

Every constructor canonicalizes: the period is minimal (no proper divisor
of d induces the same periodic part) and the threshold is minimal (no
trailing agreement between F and the periodic rule).  Structural equality
therefore coincides with set equality.  The hash of (t, d, R, F) is
computed once, at construction, and kept.

These sets appear in two roles: user-supplied length sets for the
selective diagonal, and computed closed-walk spectra, which are closed
under addition and hence ultimately periodic.

Every operation works on residues and never scans the integers, so its
cost grows with |R| and |F|, never with the values of t and d:

* construction: O(|R| * k + |F|), for k <= |R| candidate periods
* ``member``: O(1); ``shift``: one construction
* ``intersect``: |R_a| * |R_b| CRT solves, |F| lookups, one construction
* ``min_common``: the same solves and lookups, and no construction
* ``members_upto``: O(|F| log |F| + |R| log |R|) plus O(1) per member
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator


def _common_residues(a: UPSet, b: UPSet) -> frozenset[int]:
    """The x < lcm(d_a, d_b) with x mod d_a in R_a and x mod d_b in R_b, by CRT per pair."""
    d, e = a.period, b.period
    g = math.gcd(d, e)
    inverse = pow(d // g, -1, e // g)
    return frozenset(
        r + d * ((s - r) // g * inverse % (e // g))
        for r in a.residues
        for s in b.residues
        if (s - r) % g == 0
    )


def _minimize_period(d: int, residues: frozenset[int]) -> tuple[int, frozenset[int]]:
    # The least p with R + p = R (mod d) divides d and carries min R into R,
    # so it is (r - min R) mod d for some r in R, or d itself.
    if not residues:
        return 1, residues
    r0 = min(residues)
    p = next(
        p
        for p in sorted({(r - r0) % d or d for r in residues})
        if d % p == 0 and all((r + p) % d in residues for r in residues)
    )
    return p, frozenset(r % p for r in residues)


@dataclass(frozen=True)
class UPSet:
    threshold: int
    period: int
    residues: frozenset[int] = frozenset()
    exceptional: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        t, d = self.threshold, self.period
        if t < 0:
            raise ValueError("threshold must be nonnegative")
        if d < 1:
            raise ValueError("period must be positive")
        residues = frozenset(self.residues)
        exceptional = frozenset(self.exceptional)
        if residues and not 0 <= min(residues) <= max(residues) < d:
            raise ValueError(f"residues must lie in [0, {d})")
        if exceptional and not 0 <= min(exceptional) <= max(exceptional) < t:
            raise ValueError(f"exceptional values must lie in [0, {t})")
        d, residues = _minimize_period(d, residues)
        # The threshold drops to one past the last disagreement below t: a
        # member of F off the residues, or the last miss of F in a residue class.
        last = -1
        if len(residues) < d:  # else no member of F is off the residues
            last = max((f for f in exceptional if f % d not in residues), default=-1)
        for r in residues:
            m = t - 1 - (t - 1 - r) % d
            while m > last and m in exceptional:
                m -= d
            last = max(last, m)
        t = last + 1
        object.__setattr__(self, "threshold", t)
        object.__setattr__(self, "period", d)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "exceptional", frozenset(filter(t.__gt__, exceptional)))
        object.__setattr__(self, "_hash", hash((t, d, residues, self.exceptional)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_finite(cls, values: Iterable[int]) -> UPSet:
        vals = list(values)  # not yet a set, which would merge False into 0
        if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in vals):
            raise ValueError(f"values must be nonnegative integers, got {vals}")
        t = max(vals) + 1 if vals else 0
        return cls(t, 1, frozenset(), frozenset(vals))

    @classmethod
    def empty(cls) -> UPSet:
        return cls(0, 1)

    def member(self, m: int) -> bool:
        if m < 0:
            return False
        if m < self.threshold:
            return m in self.exceptional
        return m % self.period in self.residues

    def is_empty(self) -> bool:
        return not self.residues and not self.exceptional

    def is_finite(self) -> bool:
        return not self.residues

    def shift(self, k: int) -> UPSet:
        """The set {m + k | m in self}."""
        if k < 0:
            raise ValueError("shift amount must be nonnegative")
        return UPSet(
            self.threshold + k,
            self.period,
            frozenset((r + k) % self.period for r in self.residues),
            frozenset(f + k for f in self.exceptional),
        )

    def intersect(self, other: UPSet) -> UPSet:
        # Below the larger threshold, only exceptional values of its side can be common.
        low, high = sorted((self, other), key=lambda s: s.threshold)
        return UPSet(
            high.threshold,
            math.lcm(self.period, other.period),
            _common_residues(self, other),
            frozenset(f for f in high.exceptional if low.member(f)),
        )

    def min_common(self, other: UPSet) -> int | None:
        """The least member of both sets, or None, without building their intersection.

        A finite side, else the side with the larger threshold t, holds every
        common member below t among its exceptional values; from t on, each
        common residue is lifted to its least value >= t.
        """
        if not self.residues or other.residues and self.threshold >= other.threshold:
            a, b = self, other
        else:
            a, b = other, self
        low = min((m for m in a.exceptional if b.member(m)), default=None)
        if low is not None or not a.residues:
            return low
        t, d = a.threshold, math.lcm(self.period, other.period)
        return min((t + (x - t) % d for x in _common_residues(self, other)), default=None)

    def members_upto(self, bound: int) -> Iterator[int]:
        """Members m with m <= bound, in increasing order."""
        yield from sorted(f for f in self.exceptional if f <= bound)
        t, d = self.threshold, self.period
        row = sorted(t + (r - t) % d for r in self.residues)  # the members in [t, t + d)
        while row and row[0] <= bound:
            yield from (m for m in row if m <= bound)
            row = [m + d for m in row]

    def literal(self) -> str:
        """Render in the literal grammar accepted by :func:`parse_upset`."""
        if not self.residues:
            return "finite(" + ",".join(map(str, sorted(self.exceptional))) + ")"
        out = f"up(t={self.threshold},d={self.period},r=" + "|".join(
            map(str, sorted(self.residues))
        )
        if self.exceptional:
            out += ",f=" + "|".join(map(str, sorted(self.exceptional)))
        return out + ")"

    def __repr__(self) -> str:
        return f"UPSet[{self.literal()}]"


def _parse_nat(token: str, what: str) -> int:
    if not token.isdecimal():
        raise ValueError(f"bad UPSet literal: {what} must be a natural number, got {token!r}")
    return int(token)


def _parse_nat_list(body: str, what: str) -> list[int]:
    if body == "":
        return []
    return [_parse_nat(tok, what) for tok in body.split("|")]


def parse_upset(text: str) -> UPSet:
    """Parse ``finite(a,b,c)`` or ``up(t=T,d=D,r=r1|r2,f=f1|f2)`` literals.

    Whitespace is ignored everywhere; the ``f=`` part is optional.
    """
    s = "".join(text.split())
    if s.startswith("finite(") and s.endswith(")"):
        body = s[len("finite(") : -1]
        values = [] if body == "" else [_parse_nat(tok, "value") for tok in body.split(",")]
        return UPSet.from_finite(values)
    if s.startswith("up(") and s.endswith(")"):
        body = s[len("up(") : -1]
        fields: dict[str, str] = {}
        for part in body.split(","):
            if "=" not in part:
                raise ValueError(f"bad UPSet literal: expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            if key in fields:
                raise ValueError(f"bad UPSet literal: duplicate field {key!r}")
            fields[key] = value
        unknown = set(fields) - {"t", "d", "r", "f"}
        if unknown:
            raise ValueError(f"bad UPSet literal: unknown field(s) {sorted(unknown)}")
        if not {"t", "d", "r"} <= set(fields):
            raise ValueError("bad UPSet literal: up() requires t=, d= and r=")
        t = _parse_nat(fields["t"], "t")
        d = _parse_nat(fields["d"], "d")
        residues = _parse_nat_list(fields["r"], "residue")
        if not residues:
            raise ValueError("bad UPSet literal: up() requires at least one residue")
        exceptional = _parse_nat_list(fields.get("f", ""), "exceptional value")
        if d < 1:
            raise ValueError("bad UPSet literal: period must be positive")
        if any(r >= d for r in residues):
            raise ValueError("bad UPSet literal: residues must be below the period")
        if any(f >= t for f in exceptional):
            raise ValueError("bad UPSet literal: exceptional values must be below the threshold")
        return UPSet(t, d, frozenset(residues), frozenset(exceptional))
    raise ValueError(f"bad UPSet literal: {text!r}")
