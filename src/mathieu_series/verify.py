"""Named verification suites for the asymptotic laws the library implements.

Each suite takes no argument and returns a fixed list of desk-scale checks,
none timed; the CLI prints them as PASS/FAIL lines and the acceptance tests
assert on them. Where a law only fixes a rate (leaving constants implicit),
the thresholds below were calibrated once against the brute-force
evaluators and frozen; those spots are marked "calibrated". Suites build
plain checks; ``run_suite`` alone applies ``strict`` (the CLI's
``--strict``), which asks 20% more clearance of every threshold.

Suite names: thm11 (power-log leading order), thm12 (sequence
insensitivity), thm13 (factorial two-term estimate on the good set), thm14
(factorial ceilings and the epsilon envelope), thm15 (saddle-point bound),
lemma22 (log-weighted zeta singularity), lemma31 (factorial Dirichlet
asymptotics at 0), lemma41 (two-term dominance), expansion (classical
divergent expansion), prop62 (power-series limit), cor61 (log-factorial
series law).
"""

from __future__ import annotations

import math
from typing import Callable

from ._core import _raise_first
from ._deferred import deferred_module
from ._record import record, replace
from ._suites import SUITE_NAMES
from .asymptotics import (
    _classical_series,
    eval_classical_expansion,
    factorial_diagnostics,
    factorial_envelope,
    factorial_upper_bound,
    predict_factorial,
    predict_powerlog,
    slack_exponent,
    two_term_estimate,
)
from .dirichlet import (
    DirichletParams,
    _log_weighted_zetas,
    _saddle_point_bounds,
    factorial_dirichlet,
    transform_frame,
    zeta_singular_prediction,
)
from .errors import ParameterError
from .series import (
    _PAPER_PAIRS,
    FactorialParams,
    PowerLogParams,
    SequencePair,
    _powerlog_outcomes,
    eval_factorial,
    eval_general_grid,
    eval_power_series,
)

np = deferred_module("numpy")

__all__ = ["CheckResult", "run_suite", "SUITE_NAMES"]

# Strict mode demands this much extra clearance on every threshold.
_STRICT_FACTOR = 0.8
_LOG5 = math.log(5.0)


@record
class CheckResult:
    """Outcome of one verification check.

    ``direction`` records which side of the threshold passes: "le" means
    measured <= threshold, "ge" means measured >= threshold.
    """

    name: str
    passed: bool
    measured: float
    threshold: float
    direction: str = "le"
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        op = "<=" if self.direction == "le" else ">="
        note = f"  [{self.note}]" if self.note else ""
        return (
            f"{status}  {self.name}  measured={self.measured:.6g} "
            f"{op} {self.threshold:.6g}{note}"
        )


def _clears(measured: float, bar: float, direction: str) -> bool:
    return bool(measured <= bar if direction == "le" else measured >= bar)


def _check(
    name: str,
    measured: float,
    threshold: float,
    direction: str = "le",
    extra_ok: bool = True,
    note: str = "",
) -> CheckResult:
    """The plain check: passes when ``extra_ok`` holds and ``measured`` is on the
    ``direction`` side of ``threshold``. ``run_suite`` applies ``--strict``."""
    ok = bool(extra_ok) and _clears(measured, threshold, direction)
    return CheckResult(name, ok, measured, threshold, direction, note)


def _strictly_decreasing(xs) -> bool:
    return all(xs[i + 1] < xs[i] for i in range(len(xs) - 1))


def _strictly_increasing(xs) -> bool:
    return all(xs[i + 1] > xs[i] for i in range(len(xs) - 1))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_expansion() -> list[CheckResult]:
    """Optimal truncation of the classical expansion vs direct evaluation."""
    out = []
    val, _ = eval_classical_expansion(2.0, 10.0, mode="optimal")
    (direct,) = _raise_first(_classical_series(2.0, [10.0], 1e-13))
    rel = abs(val - direct) / direct
    out.append(_check("expansion/rel-error@r=10", rel, 1e-10))

    val2, _ = eval_classical_expansion(2.0, 100.0, mode="optimal")
    (direct2,) = _raise_first(_classical_series(2.0, [100.0], 1e-14))
    rel2 = abs(val2 - direct2) / direct2
    out.append(_check("expansion/rel-error@r=100", rel2, 5e-14, note="double-precision floor"))
    return out


_THM11_SETS = [
    # (params, final-deviation threshold at r = 1e6)
    (PowerLogParams(1, 2, 0, 0, 1), 0.25),
    (PowerLogParams(1, 2, 1, 1, 1), 0.25),
    (PowerLogParams(2, 3, -1, 2, 1), 0.60),  # calibrated: measured 0.54, slow log decay
    (PowerLogParams(1, 1, 0, 1, 2), 0.25),
    (PowerLogParams(1, 3, 1, 1, 1), 0.25),  # m = -1/3, off the integers
]


def suite_thm11() -> list[CheckResult]:
    """Leading-order ratio trend for the power-logarithmic family."""
    out = []
    radii = [10.0**k for k in range(2, 7)]
    # every set at every radius in one power-log walk
    points = [(p, r) for p, _ in _THM11_SETS for r in radii]
    results = _raise_first(_powerlog_outcomes(points, 1e-9))
    for j, (p, final_tol) in enumerate(_THM11_SETS):
        tag = f"({p.alpha:g},{p.beta:g},{p.gamma:g},{p.delta:g},{p.mu:g})"
        devs = [
            abs(res.value / predict_powerlog(p, r) - 1.0)
            for r, res in zip(radii, results[j * len(radii) : (j + 1) * len(radii)])
        ]
        out.append(
            _check(
                f"thm11/final-dev{tag}",
                devs[-1],
                final_tol,
                extra_ok=_strictly_decreasing(devs),
                note="|ratio-1|@r=1e6; strictly decreasing over r=1e2..1e6",
            )
        )
    return out


def suite_thm12() -> list[CheckResult]:
    """Shifted sequences share the power-log first-order law."""
    out = []
    p = PowerLogParams(1, 3, 1, 1, 1)
    plain = PowerLogParams(1, 3, 0, 0, 1)
    radii = [10.0**k for k in range(2, 6)]
    plain_radii = [10.0**k for k in (2, 3, 4)]
    # both power-log grids in one walk
    points = [(p, r) for r in radii] + [(plain, r) for r in plain_radii]
    powerlog = _raise_first(_powerlog_outcomes(points, 1e-9))
    shifted, _ = _PAPER_PAIRS["shifted-powerlog"](1.0, 3.0, 1.0, 1.0)
    gaps = []
    for r, res, plain_res in zip(
        radii, eval_general_grid(shifted, 1.0, radii, rel_tol=1e-6), powerlog[: len(radii)]
    ):
        dev_sh = res.value / predict_powerlog(p, r) - 1.0
        dev_un = plain_res.value / predict_powerlog(p, r) - 1.0
        gaps.append(abs(dev_sh - dev_un))
    out.append(
        _check(
            "thm12/shift-gap-shrinks",
            gaps[-1],
            0.02,
            extra_ok=_strictly_decreasing(gaps),
            note="gap between shifted and plain ratio-1, r=1e2..1e5",
        )
    )

    seq = SequencePair(
        a=lambda n: (n + 5.0),
        b=lambda n: float(n) ** 3,
        b_monotone_from=0,
        log_a=lambda u: np.logaddexp(u, _LOG5),
        log_b=lambda u: 3.0 * u,
    )
    devs = []
    for r, res, plain_res in zip(
        plain_radii,
        eval_general_grid(seq, 1.0, plain_radii, rel_tol=1e-7),
        powerlog[len(radii) :],
    ):
        head = 5.0 / (r * r) ** 2 + 6.0 / (1.0 + r * r) ** 2
        v = res.value - head
        devs.append(abs(v / plain_res.value - 1.0))
    out.append(
        _check(
            "thm12/shift-ratio-to-one",
            devs[-1],
            0.05,
            extra_ok=_strictly_decreasing(devs),
            note="|shifted/plain - 1| at r=1e2,1e3,1e4",
        )
    )
    return out


def suite_thm13() -> list[CheckResult]:
    """Two-term prediction on the good set: log-ratio within the slack scale."""
    out = []
    p = FactorialParams(1, 2, 1)
    # Radii constructed so that frac_g lands in [0.3, 0.7], r between 9e5 and 2e10.
    for g_target in (10.4, 11.5, 12.35, 12.65, 13.3, 13.55, 14.35):
        r = math.exp(math.lgamma(g_target))
        diag = factorial_diagnostics(p, r)
        value = eval_factorial(p, r, rel_tol=1e-12).value
        pred = predict_factorial(p, r)
        c = abs(math.log(value / pred)) / slack_exponent(r)
        out.append(_check(f"thm13/slack@r={r:.2e}", c, 5.0, note=f"frac_g={diag.frac_g:.3f}"))
    return out


_FACTORIAL_GRID = [10.0**k for k in range(3, 13)]


def suite_thm14() -> list[CheckResult]:
    """Unconditional factorial ceilings: bound, envelope, log-center."""
    out = []
    for p in (FactorialParams(1, 2, 1), FactorialParams(0.5, 1, 1)):
        tag = f"({p.alpha:g},{p.beta:g},{p.mu:g})"
        values = {r: eval_factorial(p, r, rel_tol=1e-12).value for r in _FACTORIAL_GRID}
        worst_margin = math.inf
        for r, v in values.items():
            worst_margin = min(worst_margin, factorial_upper_bound(p, r, 0.2) / v)
        out.append(
            _check(
                f"thm14/ceiling{tag}",
                worst_margin,
                1.0,
                direction="ge",
                note="min bound/value over r=1e3..1e12, eps=0.2",
            )
        )

        # calibrated: the eps=0.1 envelope sets in at r=1e4 for (1,2,1)
        # (measured 6% below the lower edge at r=1e3); full grid otherwise.
        grid = _FACTORIAL_GRID[1:] if p.alpha == 1 else _FACTORIAL_GRID
        clearance = math.inf
        for r in grid:
            env = factorial_envelope(p, r, 0.1)
            clearance = min(clearance, values[r] / env.lower, env.upper / values[r])
        out.append(
            _check(
                f"thm14/envelope{tag}",
                clearance,
                1.0,
                direction="ge",
                note="min clearance of the eps=0.1 envelope",
            )
        )

        worst_center = 0.0
        for r, v in values.items():
            env = factorial_envelope(p, r, 0.1)
            worst_center = max(
                worst_center, abs(math.log(v) - env.log_center) / math.log(math.log(r))
            )
        out.append(
            _check(
                f"thm14/log-center{tag}",
                worst_center,
                10.0,
                note="|log value - center|/log log r",
            )
        )
    return out


def suite_thm15() -> list[CheckResult]:
    """Saddle-point bound dominance and its growth scale."""
    out = []
    sets = (FactorialParams(1, 2, 1), FactorialParams(0.5, 1, 1), FactorialParams(0, 1, 1))
    # every set at every radius: one quadrature for all the line integrals
    found = _raise_first(_saddle_point_bounds([(p, r) for p in sets for r in _FACTORIAL_GRID]))
    size = len(_FACTORIAL_GRID)
    bounds = {p: found[j * size : (j + 1) * size] for j, p in enumerate(sets)}
    for p in sets:
        tag = f"({p.alpha:g},{p.beta:g},{p.mu:g})"
        worst = min(
            b / eval_factorial(p, r, rel_tol=1e-12).value
            for b, r in zip(bounds[p], _FACTORIAL_GRID)
        )
        out.append(
            _check(
                f"thm15/dominates{tag}",
                worst,
                1.0,
                direction="ge",
                note="min bound/value, r=1e3..1e12",
            )
        )

    p = FactorialParams(1, 2, 1)
    stilde = transform_frame(factorial=p).stilde
    scaled = [
        b * math.exp(stilde * math.log(r)) * math.log(math.log(r)) / math.log(r)
        for b, r in zip(bounds[p], _FACTORIAL_GRID)
    ]
    spread = max(scaled) / min(scaled)
    out.append(
        _check(
            "thm15/scale-constant",
            spread,
            1.2,
            extra_ok=min(scaled) >= 1.0 and max(scaled) <= 2.0,  # calibrated: 1.45..1.53
            note="spread of bound * r^stilde * loglog r / log r (values in [1,2])",
        )
    )
    return out


def suite_lemma22() -> list[CheckResult]:
    """Singular model of the log-weighted zeta near s = 1."""
    out = []
    cases = [DirichletParams(eta, theta) for eta, theta in ((0.0, 0.0), (0.0, 1.0), (0.5, 0.0))]
    steps = (1e-2, 1e-3, 1e-4)
    # all nine zetas in one lockstep walk of their cutoffs
    items = [(p, 1.0 + d) for p in cases for d in steps]
    zetas = iter(_raise_first(_log_weighted_zetas(items, 1e-8)))
    for p in cases:
        devs = []
        for d in steps:
            ratio = next(zetas) / zeta_singular_prediction(p, 1.0 + d)
            devs.append(abs(ratio - 1.0))
        out.append(
            _check(
                f"lemma22/({p.eta:g},{p.theta:g})",
                devs[-1],
                0.20,
                extra_ok=_strictly_decreasing(devs),
                note="|ratio-1| monotone over s-1=1e-2,1e-3,1e-4",
            )
        )
    return out


def suite_lemma31() -> list[CheckResult]:
    """Factorial Dirichlet sum: exact checkpoint and small-s asymptotics."""
    out = []
    dev_e = abs(factorial_dirichlet(1.0, rel_tol=1e-13) - math.e)
    out.append(_check("lemma31/eta(1)=e", dev_e, 1e-12))

    devs = []
    for s in (1e-2, 1e-4, 1e-6, 1e-8):
        v = factorial_dirichlet(s, rel_tol=1e-6)
        devs.append(abs(s * v * math.log(1.0 / s) - 1.0))
    out.append(
        _check(
            "lemma31/origin-asymptotics",
            devs[-1],
            0.30,
            extra_ok=_strictly_decreasing(devs),
            note="|s eta(s) log(1/s) - 1| monotone over s=1e-2..1e-8",
        )
    )
    return out


def suite_lemma41() -> list[CheckResult]:
    """Two peak terms dominate the factorial series.

    The decade-grid ratio oscillates with the fractional part of the
    inverse-gamma scale, so strict monotonicity is asserted on a
    constructed grid with the fractional part pinned to 1/2; the decade
    grid is checked first-to-last. Thresholds calibrated: the ratio at
    r=1e6 is 0.867 (the off-peak mass is Theta(1/n0) and n0(1e6) = 9).
    """
    out = []
    p = FactorialParams(1, 2, 1)

    decade_grid = [10.0**k for k in range(2, 13, 2)]
    decade = [
        two_term_estimate(p, r) / eval_factorial(p, r, rel_tol=1e-13).value for r in decade_grid
    ]
    out.append(
        _check(
            "lemma41/decade-grid-floor",
            min(decade),
            0.75,
            direction="ge",
            extra_ok=decade[-1] > decade[0],
            note="ratios over r=1e2,1e4..1e12; last > first",
        )
    )

    r6 = decade[decade_grid.index(1e6)]
    out.append(_check("lemma41/ratio@r=1e6", r6, 0.86, direction="ge", note="calibrated"))

    pinned = []
    for g_half in (6.5, 8.5, 10.5, 12.5, 14.5, 16.5):
        r = math.exp(math.lgamma(g_half))
        pinned.append(two_term_estimate(p, r) / eval_factorial(p, r, rel_tol=1e-13).value)
    out.append(
        _check(
            "lemma41/pinned-frac-monotone",
            pinned[-1],
            0.90,
            direction="ge",
            extra_ok=_strictly_increasing(pinned),
            note="frac_g=1/2 grid: strictly increasing, last >= 0.90",
        )
    )
    return out


def suite_cor61() -> list[CheckResult]:
    """Log-factorial series against its closed-form first-order law."""
    seq, n_start = _PAPER_PAIRS["logfact"](1.0, 3.0)
    p = PowerLogParams(1, 3, 1, 3, 1)
    radii = [10.0**k for k in range(2, 7)]
    results = eval_general_grid(seq, 1.0, radii, rel_tol=1e-5, n_start=n_start)
    devs = [abs(res.value / predict_powerlog(p, r) - 1.0) for r, res in zip(radii, results)]
    # calibrated: the deviation rises to 0.40 at r=1e3 before the log-speed
    # decay sets in, then falls to 0.321 at r=1e6.
    return [
        _check(
            "cor61/ratio-trend",
            devs[-1],
            0.35,
            extra_ok=_strictly_decreasing(devs[1:]),
            note="|ratio-1| decreasing over r=1e3..1e6",
        )
    ]


def suite_prop62() -> list[CheckResult]:
    """Power-series variant collapses to r^(-2(mu+1)) times the plain sum."""
    out = []
    geometric, _ = _PAPER_PAIRS["ones-squares"]()
    vals = [
        10.0 ** (2 * k) * eval_power_series(geometric, 0.0, 0.5, 10.0**k, rel_tol=1e-10)
        for k in (2, 3, 4)
    ]
    out.append(
        _check(
            "prop62/geometric",
            abs(vals[-1] / 2.0 - 1.0),
            0.01,
            extra_ok=_strictly_decreasing([abs(v - 2.0) for v in vals]),
            note="r^2 * value -> 2 over r=1e2,1e3,1e4",
        )
    )

    linear, _ = _PAPER_PAIRS["linear-factorial"]()
    vals2 = [
        10.0 ** (4 * k) * eval_power_series(linear, 1.0, 1.0 / 3.0, 10.0**k, rel_tol=1e-10)
        for k in (2, 3, 4)
    ]
    out.append(
        _check(
            "prop62/linear-factorial",
            abs(vals2[-1] / 0.75 - 1.0),
            0.01,
            extra_ok=_strictly_decreasing([abs(v - 0.75) for v in vals2]),
            note="r^4 * value -> 3/4 over r=1e2,1e3,1e4",
        )
    )
    return out


# Suite "<name>" runs suite_<name>.
_SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    name: globals()[f"suite_{name}"] for name in SUITE_NAMES
}


def run_suite(name: str, strict: bool = False) -> list[CheckResult]:
    """Run a named suite; the one reader of ``strict``, which keeps a check passed
    only if its measured value also clears threshold * 0.8 ("le") or
    threshold / 0.8 ("ge"), the tighter bar since every threshold is > 0.
    """
    if name not in _SUITES:
        raise ParameterError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    results = _SUITES[name]()
    if not strict:
        return results
    out = []
    for c in results:
        bar = c.threshold * _STRICT_FACTOR if c.direction == "le" else c.threshold / _STRICT_FACTOR
        out.append(replace(c, passed=c.passed and _clears(c.measured, bar, c.direction)))
    return out
