"""The sequence-callback core of ``series``: the block contract check against
the per-term code it replaced, and concurrent calls against serial ones."""

import math
import sys
import threading
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_series.errors import ContractViolationError
from mathieu_series.series import SequencePair, _sequence_block, eval_general

# ---------------------------------------------------------------------------
# _sequence_block
# ---------------------------------------------------------------------------


def reference_sequence_block(s, lo, hi, b_prev):
    """_sequence_block as one per-n loop that makes every check on every n."""
    a_vals, b_vals = [], []
    b_from = s.b_monotone_from
    try:
        for n in range(lo, hi):
            a_n = float(s.a(n))
            b_n = s.b(n)
            if not math.isfinite(a_n) or b_n != b_n or abs(b_n) == math.inf:
                raise ContractViolationError(
                    f"sequences must be finite, got a({n}) = {a_n}, b({n}) = {b_n}"
                )
            if b_n < 0:
                raise ContractViolationError(f"sequence b must be nonnegative, b({n}) = {b_n}")
            if n >= b_from:
                if b_prev is not None and b_n < b_prev:
                    raise ContractViolationError(
                        f"sequence b must be nondecreasing from {b_from}, "
                        f"but b({n}) = {b_n} < b({n - 1}) = {b_prev}"
                    )
                b_prev = b_n
            a_vals.append(a_n)
            b_vals.append(b_n)
    except Exception as exc:
        return a_vals, b_vals, b_prev, exc
    return a_vals, b_vals, b_prev, None


# Block edges of eval_general (checkpoints 64, 128, ...) and of
# eval_power_series (8, 16, 32, ...), and a ragged set.
GENERAL_EDGES = [0, 64, 128, 256, 512, 1024]
POWER_SERIES_EDGES = [0, 8, 16, 32, 64, 128, 256, 512, 1024]
RAGGED_EDGES = [0, 1, 2, 3, 62, 63, 65, 511, 513, 700]


def _exact(values):
    """Values compared bit for bit and by type: -0.0 is not 0.0, np.int64(1) is not 1."""
    return [(type(v), repr(v)) for v in values]


def _walk(block, s, edges):
    """Run ``block`` over consecutive blocks until the first error, as the
    evaluators do; what each block returned, and the n each callback saw."""
    seen_a, seen_b = Counter(), Counter()

    def counted(f, seen):
        def wrapper(n):
            seen[n] += 1
            return f(n)

        return wrapper

    counted_seq = SequencePair(counted(s.a, seen_a), counted(s.b, seen_b), s.b_monotone_from)
    outcomes = []
    b_prev = None
    for lo, hi in zip(edges, edges[1:]):
        a_vals, b_vals, b_prev, error = block(counted_seq, lo, hi, b_prev)
        outcomes.append(
            (
                a_vals,
                _exact(a_vals),
                b_vals,
                _exact(b_vals),
                b_prev,
                _exact([b_prev]),
                None if error is None else (type(error), str(error)),
            )
        )
        if error is not None:
            break
    return outcomes, seen_a, seen_b


def _assert_matches_reference(s, edges):
    got = _walk(_sequence_block, s, edges)
    assert got == _walk(reference_sequence_block, s, edges)
    return got


def _faulty(base_a, base_b, faults, b_from=0):
    """A SequencePair that returns ``faults[n]`` (a value or a callable) in place of a or b."""

    def pick(base, which):
        def f(n):
            fault = faults.get((which, n))
            if fault is None:
                return base(n)
            return fault(n) if callable(fault) else fault

        return f

    return SequencePair(pick(base_a, "a"), pick(base_b, "b"), b_from)


def _raise(n):
    raise RuntimeError(f"callback failed at {n}")


def _plus_one(n):
    return n + 1.0


def _square(n):
    return float(n) ** 2


NON_FINITE = [math.nan, math.inf, -math.inf]

_CASES = {
    # non-finite a, before and after b_monotone_from, at and beside block edges
    **{
        f"a={v} at {k}": _faulty(_plus_one, _square, {("a", k): v}, b_from=100)
        for v in NON_FINITE
        for k in (0, 7, 8, 63, 64, 99, 100, 511, 512)
    },
    # non-finite b, both a and b bad (a is named first), negative b and -0.0
    **{
        f"b={v} at {k}": _faulty(_plus_one, _square, {("b", k): v}, b_from=100)
        for v in [*NON_FINITE, -1.0, -1, -1e-300, -0.0, 0.0]
        for k in (0, 1, 63, 64, 99, 100, 101, 511, 512)
    },
    "a and b non-finite": _faulty(_plus_one, _square, {("a", 70): math.inf, ("b", 70): math.nan}),
    "negative b and non-finite a": _faulty(_plus_one, _square, {("a", 9): math.nan, ("b", 9): -2.0}),
    # b falling at b_monotone_from is allowed; one later is not
    **{
        f"b falls at {k}, monotone from {b_from}": _faulty(
            _plus_one, _square, {("b", k): 0.5}, b_from=b_from
        )
        for b_from, k in [(10, 10), (10, 11), (64, 64), (63, 64), (64, 65), (512, 512),
                          (511, 512), (0, 1), (700, 699), (700, 701)]
    },
    # a flat b, then a drop by one ulp across the 511/512 edge
    "flat then one ulp down": SequencePair(
        _plus_one, lambda n: 1.0 if n < 512 else math.nextafter(1.0, 0.0), 0
    ),
    # big-int b past the double range, rising and falling
    "big-int b rising": SequencePair(_plus_one, lambda n: math.factorial(n + 170), 0),
    "big-int b falling at 300": SequencePair(
        _plus_one, lambda n: math.factorial(200 if n < 300 else 199), 0
    ),
    "big-int b falling below b_from": SequencePair(
        _plus_one, lambda n: math.factorial(200 if n < 300 else 199), 400
    ),
    "float b then a smaller big int": SequencePair(
        _plus_one, lambda n: 1e308 if n < 64 else 10**307, 0
    ),
    "big int then inf": SequencePair(
        _plus_one, lambda n: math.factorial(200) if n < 64 else math.inf, 0
    ),
    # numpy scalars from the callbacks
    "numpy float64 and int64": SequencePair(
        lambda n: np.float64(n + 1.0), lambda n: np.int64(n) ** 2, 0
    ),
    **{
        f"numpy b={v} at 70": _faulty(
            lambda n: np.float64(n), lambda n: np.float64(n), {("b", 70): np.float64(v)}
        )
        for v in [*NON_FINITE, -1.0, -0.0]
    },
    "numpy int64 b falling": _faulty(
        _plus_one, lambda n: np.int64(n), {("b", 300): np.int64(5)}
    ),
    "numpy a=nan": _faulty(_plus_one, _square, {("a", 65): np.float64(math.nan)}),
    # callbacks that raise, mid-block and at an edge, and a that float() refuses
    "a raises at 100": _faulty(_plus_one, _square, {("a", 100): _raise}),
    "b raises at 37": _faulty(_plus_one, _square, {("b", 37): _raise}),
    "b raises at 64": _faulty(_plus_one, _square, {("b", 64): _raise}),
    "a is a string": _faulty(_plus_one, _square, {("a", 3): "x"}),
    # b values that do not compare with numbers the usual way, before and
    # after b_monotone_from
    **{
        f"b is {v!r}, monotone from {b_from}": _faulty(
            _plus_one, _square, {("b", 66): v}, b_from=b_from
        )
        for v in ("x", 1j, Decimal("NaN"), None)
        for b_from in (0, 100)
    },
    "b is a Decimal, then falls": _faulty(
        _plus_one, lambda n: Decimal(n), {("b", 80): Decimal("0.5")}
    ),
    "b is a Fraction": SequencePair(_plus_one, lambda n: Fraction(n, 3), 0),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_block_matches_the_per_n_reference(name):
    for edges in (GENERAL_EDGES, POWER_SERIES_EDGES, RAGGED_EDGES):
        _assert_matches_reference(_CASES[name], edges)


def test_block_stops_calling_at_the_first_bad_n():
    outcomes, seen_a, seen_b = _assert_matches_reference(
        _faulty(_plus_one, _square, {("b", 100): math.nan}), GENERAL_EDGES
    )
    assert sorted(seen_a) == list(range(101)) and sorted(seen_b) == list(range(101))
    assert set(seen_a.values()) == {1} and set(seen_b.values()) == {1}
    assert outcomes[-1][-1][0] is ContractViolationError


def test_block_on_a_start_past_b_monotone_from():
    # a block that starts inside the monotone range compares with the b_prev it is given
    s = SequencePair(_plus_one, _square, 0)
    for b_prev in (None, 0, 4.0, 5.0, 10**400):
        got = _sequence_block(s, 3, 9, b_prev)
        want = reference_sequence_block(s, 3, 9, b_prev)
        assert got[:3] == want[:3]
        assert (type(got[3]), str(got[3])) == (type(want[3]), str(want[3]))


_FAULT_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 0.5, 1e300, np.float64(math.nan),
     np.int64(3), math.factorial(180), _raise]
)


@settings(max_examples=150, deadline=None)
@given(
    b_from=st.integers(0, 700),
    faults=st.dictionaries(
        st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 699)), _FAULT_VALUES, max_size=4
    ),
    edges=st.lists(st.integers(1, 699), max_size=8).map(lambda e: [0, *sorted(set(e)), 700]),
    big=st.booleans(),
)
def test_block_matches_the_reference_on_random_faults(b_from, faults, edges, big):
    base_b = (lambda n: math.factorial(n + 171)) if big else _square
    _assert_matches_reference(_faulty(_plus_one, base_b, faults, b_from), edges)


# ---------------------------------------------------------------------------
# Concurrent calls
# ---------------------------------------------------------------------------


def _all_at_once(call, workers=8):
    """The results of ``call()`` in ``workers`` threads released together by
    a barrier, with the interpreter switching threads every microsecond."""
    barrier = threading.Barrier(workers, timeout=60)
    results = [None] * workers

    def run(i):
        barrier.wait()
        results[i] = call()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    return results


def test_concurrent_smooth_calls_agree():
    # eight threads make an eval_general call with smooth forms at once,
    # 16384 terms each; all get the serial result
    seq = SequencePair(
        a=lambda n: float(n),
        b=lambda n: float(n) ** 3,
        log_a=lambda u: 1.0 * u,
        log_b=lambda u: 3.0 * u,
    )
    call = dict(mu=1.0, r=1e7, rel_tol=1e-14)
    results = _all_at_once(lambda: eval_general(seq, **call))
    assert results[0] is not None and results[0].terms_used == 16384
    assert all(res == results[0] for res in results)
    assert results[0] == eval_general(seq, **call)


def test_concurrent_fitted_envelope_calls_agree():
    # The sweep's shifted power-log pair with no smooth forms: each call
    # fits an envelope and bounds its tail at every checkpoint. That bound
    # once ran in a process-wide precision context that concurrent calls
    # set and restored under each other, so a tail_bound could differ from
    # the serial one in its last digits.
    seq = SequencePair(
        a=lambda n: (n + 3.0) * math.log(n + 2.0),
        b=lambda n: float(n) ** 3 * math.log(n + 1.0),
        b_monotone_from=1,
    )
    call = dict(mu=1.0, r=1e4, rel_tol=1e-6)
    serial = eval_general(seq, **call)
    for _ in range(6):
        assert _all_at_once(lambda: eval_general(seq, **call)) == [serial] * 8
