"""VersionRange edge cases backing the dependency-satisfiability check."""

import pytest

from repro.util.errors import ValidationError
from repro.xmlmeta.versions import Version, VersionRange


def v(text):
    return Version.parse(text)


class TestIsEmpty:
    def test_any_range_is_not_empty(self):
        assert not VersionRange("").is_empty()

    def test_simple_ranges_are_not_empty(self):
        assert not VersionRange(">=1.0").is_empty()
        assert not VersionRange("<2.0").is_empty()
        assert not VersionRange(">=1.0, <2.0").is_empty()

    def test_inverted_range_is_empty(self):
        assert VersionRange(">=2.0, <1.0").is_empty()

    def test_touching_bounds_inclusive_is_not_empty(self):
        r = VersionRange(">=1.5, <=1.5")
        assert not r.is_empty()
        assert r.matches(v("1.5"))

    def test_touching_bounds_exclusive_is_empty(self):
        assert VersionRange(">=1.5, <1.5").is_empty()

    def test_discrete_gap_between_exclusive_bounds(self):
        # no version lies strictly between 1.2.0 and 1.2.1
        assert VersionRange(">1.2.0, <1.2.1").is_empty()
        # ...but 1.2.1 itself fits a half-open range
        assert not VersionRange(">1.2.0, <=1.2.1").is_empty()

    def test_eq_constraint_conflicts(self):
        assert VersionRange("==1.0, ==2.0").is_empty()
        assert VersionRange("==1.0, >=2.0").is_empty()
        assert not VersionRange("==1.5, >=1.0").is_empty()


class TestIntersect:
    """A range of several constraints accepts exactly the versions
    every one of them accepts."""

    def test_intersection_is_conjunction(self):
        merged = VersionRange(">=1.0, <2.0")
        assert merged.matches(v("1.5"))
        assert not merged.matches(v("2.0"))
        assert not merged.matches(v("0.9"))

    def test_disjoint_intersection_is_empty(self):
        merged = VersionRange("<1.0, >=2.0")
        assert merged.is_empty()

    def test_intersect_narrows_progressively(self):
        merged = VersionRange(">=1.0, <3.0, >=2.0")
        assert merged.matches(v("2.5"))
        assert not merged.matches(v("1.5"))


class TestParsing:
    def test_bad_constraint_rejected(self):
        with pytest.raises(ValidationError):
            VersionRange("~1.0")

    def test_str_of_any(self):
        assert str(VersionRange("")) == "*"
