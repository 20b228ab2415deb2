"""Component versions and version-range constraints.

Dependencies in a software descriptor name another component plus the
range of versions that satisfies it ("new components installed in a
host may require ... new version of existing components", §2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

from repro.util.errors import ValidationError

_VERSION_RE = re.compile(r"^(\d+)\.(\d+)(?:\.(\d+))?$")
_RANGE_RE = re.compile(r"^(>=|<=|==|>|<)\s*(\d+\.\d+(?:\.\d+)?)$")


@total_ordering
@dataclass(frozen=True)
class Version:
    """A semantic-ish component version: major.minor.patch."""

    major: int
    minor: int
    patch: int = 0

    @classmethod
    def parse(cls, text: str) -> "Version":
        m = _VERSION_RE.match(text.strip())
        if m is None:
            raise ValidationError(f"bad version {text!r}")
        return cls(int(m.group(1)), int(m.group(2)), int(m.group(3) or 0))

    def _key(self) -> tuple[int, int, int]:
        return (self.major, self.minor, self.patch)

    def __lt__(self, other: "Version") -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self._key() < other._key()

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}.{self.patch}"


class VersionRange:
    """A conjunction of comparison constraints, e.g. ``>=1.2, <2.0``.

    The empty string means "any version".
    """

    def __init__(self, text: str = "") -> None:
        self.text = text.strip()
        self._constraints: list[tuple[str, Version]] = []
        if self.text:
            for part in self.text.split(","):
                m = _RANGE_RE.match(part.strip())
                if m is None:
                    raise ValidationError(f"bad version constraint {part!r}")
                self._constraints.append((m.group(1), Version.parse(m.group(2))))

    def matches(self, version: Version) -> bool:
        for oper, bound in self._constraints:
            if oper == ">=" and not version >= bound:
                return False
            if oper == "<=" and not version <= bound:
                return False
            if oper == ">" and not version > bound:
                return False
            if oper == "<" and not version < bound:
                return False
            if oper == "==" and not version == bound:
                return False
        return True

    def is_empty(self) -> bool:
        """True iff no version at all can satisfy the conjunction.

        Versions are discrete triples, so an exclusive lower bound
        ``> x.y.z`` is normalised to the inclusive ``>= x.y.(z+1)``
        before comparing against the tightest upper bound; equality
        constraints reduce to membership of that single version.
        """
        eqs = [bound for oper, bound in self._constraints if oper == "=="]
        if eqs:
            return not self.matches(eqs[0])
        lo = None           # tightest inclusive lower bound
        hi = None           # (tightest upper bound, inclusive?)
        for oper, bound in self._constraints:
            if oper in (">=", ">"):
                eff = bound if oper == ">=" else Version(
                    bound.major, bound.minor, bound.patch + 1)
                if lo is None or eff > lo:
                    lo = eff
            else:
                incl = oper == "<="
                if hi is None or bound < hi[0] or (bound == hi[0]
                                                   and not incl):
                    hi = (bound, incl)
        if lo is None or hi is None:
            return False
        bound, incl = hi
        return lo > bound or (lo == bound and not incl)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VersionRange) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __str__(self) -> str:
        return self.text or "*"

    def __repr__(self) -> str:
        return f"VersionRange({self.text!r})"
