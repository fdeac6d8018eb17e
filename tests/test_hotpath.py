"""The ``REPRO_HOTPATH`` latch: one tier, strict parsing."""

import pytest

from repro.hotpath import (HOTPATH_TIERS, hotpath_enabled, hotpath_tiers,
                           reset_for_tests)


def _latch(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv("REPRO_HOTPATH", raising=False)
    else:
        monkeypatch.setenv("REPRO_HOTPATH", raw)
    reset_for_tests()
    return hotpath_tiers()


def test_one_tier():
    assert HOTPATH_TIERS == ("compile",)


@pytest.mark.parametrize("raw, expected", [
    (None, {"compile"}),          # unset: the default, tier on
    ("", set()),                  # empty: the reference path
    ("compile", {"compile"}),
    (" compile ,", {"compile"}),
])
def test_valid_settings(monkeypatch, raw, expected):
    assert _latch(monkeypatch, raw) == expected
    assert hotpath_enabled("compile") is ("compile" in expected)


@pytest.mark.parametrize("raw", ["fuse", "engine,fuse", "mem,compile",
                                 "compiled"])
def test_unknown_tier_raises_naming_valid_tiers(monkeypatch, raw):
    with pytest.raises(ValueError) as err:
        _latch(monkeypatch, raw)
    msg = str(err.value)
    assert "valid tiers: compile" in msg
    for name in raw.split(","):
        if name != "compile":
            assert name in msg
