"""Exact arithmetic on ultimately periodic subsets of the naturals.

An ``UPSet`` is described by a threshold t, a period d, residues R within
[0, d), and an exceptional prefix F within [0, t):

    m in S  <=>  (m < t and m in F)  or  (m >= t and m mod d in R)

Every constructor canonicalizes: the period is minimal (no proper divisor
of d induces the same periodic part) and the threshold is minimal (no
trailing agreement between F and the periodic rule).  Structural equality
therefore coincides with set equality.

These sets appear in two roles: user-supplied length sets for the
selective diagonal, and computed closed-walk spectra, which are closed
under addition and hence ultimately periodic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

# Guards lcm blowup during intersection; exceeding it is a hard error.
PERIOD_CAP = 1 << 20


class PeriodCapError(ValueError):
    """Intersection would require a period beyond the configured cap."""


def _minimize_period(d: int, residues: frozenset[int]) -> tuple[int, frozenset[int]]:
    for dd in range(1, d + 1):
        if d % dd:
            continue
        proj = frozenset(r % dd for r in residues)
        if all((r % dd in proj) == (r in residues) for r in range(d)):
            return dd, proj
    return d, residues  # unreachable: dd == d always matches


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
        if any(not 0 <= r < d for r in residues):
            raise ValueError(f"residues must lie in [0, {d})")
        if any(not 0 <= f < t for f in exceptional):
            raise ValueError(f"exceptional values must lie in [0, {t})")
        d, residues = _minimize_period(d, residues)
        while t > 0:
            last = t - 1
            if (last in exceptional) != (last % d in residues):
                break
            exceptional = exceptional - {last}
            t = last
        object.__setattr__(self, "threshold", t)
        object.__setattr__(self, "period", d)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "exceptional", frozenset(f for f in exceptional if f < t))

    @classmethod
    def from_finite(cls, values: Iterable[int]) -> UPSet:
        vals = set(values)
        if any(v < 0 for v in vals):
            raise ValueError("values must be nonnegative")
        t = max(vals) + 1 if vals else 0
        return cls(t, 1, frozenset(), frozenset(vals))

    @classmethod
    def empty(cls) -> UPSet:
        return cls(0, 1)

    @classmethod
    def naturals(cls) -> UPSet:
        return cls(0, 1, frozenset({0}))

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

    def intersect(self, other: UPSet, cap: int = PERIOD_CAP) -> UPSet:
        d = math.lcm(self.period, other.period)
        if d > cap:
            raise PeriodCapError(f"intersection period {d} exceeds cap {cap}")
        t = max(self.threshold, other.threshold)
        exceptional = frozenset(m for m in range(t) if self.member(m) and other.member(m))
        residues = frozenset(
            r
            for r in range(d)
            if r % self.period in self.residues and r % other.period in other.residues
        )
        return UPSet(t, d, residues, exceptional)

    def min_element(self) -> int | None:
        if self.exceptional:
            return min(self.exceptional)
        if not self.residues:
            return None
        t, d = self.threshold, self.period
        return min(t + (r - t) % d for r in self.residues)

    def members_upto(self, bound: int) -> Iterator[int]:
        """Members m with m <= bound, in increasing order."""
        for m in range(min(self.threshold, bound + 1)):
            if m in self.exceptional:
                yield m
        for m in range(self.threshold, bound + 1):
            if m % self.period in self.residues:
                yield m

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
