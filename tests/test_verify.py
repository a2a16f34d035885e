"""``--strict`` is one tightening that ``run_suite`` applies to the plain checks.

Every suite builds plain checks. With ``strict=True``, ``run_suite`` keeps a
check passed only if its measured value also clears the threshold with 20%
to spare: threshold * 0.8 for "le" and threshold / 0.8 for "ge".
"""

import inspect

import pytest

from mathieu_series import series, verify
from mathieu_series.verify import SUITE_NAMES, run_suite

# The checks whose calibrated thresholds sit within 20% of the
# measured value, so that --strict fails them by design.
STRICT_FAILURES = {
    "cor61/ratio-trend",
    "lemma41/decade-grid-floor",
    "lemma41/ratio@r=1e6",
    "lemma41/pinned-frac-monotone",
    "thm11/final-dev(2,3,-1,2,1)",
    "thm14/envelope(1,2,1)",
    "thm15/scale-constant",
}


@pytest.fixture(scope="module")
def both_modes():
    """Per suite: (default results, strict results)."""
    return {name: (run_suite(name), run_suite(name, strict=True)) for name in SUITE_NAMES}


def _strict_bar(check):
    return check.threshold * 0.8 if check.direction == "le" else check.threshold / 0.8


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_strict_is_the_default_check_with_a_tighter_bar(both_modes, name):
    plain, strict = both_modes[name]
    assert [c.name for c in strict] == [c.name for c in plain]
    for p, s in zip(plain, strict):
        assert (s.threshold, s.direction, s.note) == (p.threshold, p.direction, p.note)
        assert s.measured == p.measured, p.name
        bar = _strict_bar(s)
        clears = bool(s.measured <= bar if s.direction == "le" else s.measured >= bar)
        assert s.passed is (p.passed and clears), p.name


def test_default_mode_passes_every_check(both_modes):
    failed = [c.name for plain, _ in both_modes.values() for c in plain if not c.passed]
    assert failed == []


def test_strict_failure_set_is_pinned(both_modes):
    failed = {c.name for _, strict in both_modes.values() for c in strict if not c.passed}
    assert failed == STRICT_FAILURES


def test_every_threshold_is_positive(both_modes):
    # the strict bar is the tighter one only for thresholds > 0
    for plain, _ in both_modes.values():
        for c in plain:
            assert c.threshold > 0.0, c.name
            assert c.direction in ("le", "ge"), c.name


def test_only_run_suite_takes_strict():
    # every suite is a fixed list of checks: it takes no argument at all
    for name, suite in verify._SUITES.items():
        assert not inspect.signature(suite).parameters, name
    assert "strict" not in inspect.signature(verify._check).parameters
    assert list(inspect.signature(run_suite).parameters) == ["name", "strict"]


def test_cor61_thm12_and_prop62_build_their_pairs_from_the_table(monkeypatch, both_modes):
    # the sequence pairs the CLI presets and verify share are written once, in
    # series; only thm12's (n+5, n^3) pair, which is no preset, is verify's own
    built = []
    for name, build in list(series._PAPER_PAIRS.items()):

        def recording(*exponents, name=name, build=build):
            built.append((name, exponents))
            return build(*exponents)

        monkeypatch.setitem(series._PAPER_PAIRS, name, recording)
    for suite in ("cor61", "thm12", "prop62"):
        assert run_suite(suite) == both_modes[suite][0]
    assert built == [
        ("logfact", (1.0, 3.0)),
        ("shifted-powerlog", (1.0, 3.0, 1.0, 1.0)),
        ("ones-squares", ()),
        ("linear-factorial", ()),
    ]
    assert inspect.getsource(verify).count("SequencePair(") == 1
