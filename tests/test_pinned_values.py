"""Exact values of the evaluators that run on the shared smooth-tail code.

Every number here is the ``repr`` of what the evaluator returns. The
Euler-Maclaurin tail, the quadrature rounds and the jets evaluate on
arrays of points in the order of floating-point operations of one point at
a time, so each must stay ``==``. A change that moves the arithmetic on
purpose re-records them and says why.
"""

import math

import numpy as np
import pytest

from mathieu_series.dirichlet import (
    DirichletParams,
    _log_weighted_zetas,
    _saddle_point_bounds,
    factorial_dirichlet,
    log_factorial_dirichlet,
    log_weighted_zeta,
    saddle_point_bound,
)
from mathieu_series.series import (
    _PAPER_PAIRS,
    FactorialParams,
    PowerLogParams,
    SequencePair,
    eval_general_grid,
    eval_powerlog,
)
from mathieu_series.special import log_factorial, log_log_factorial

_LOG2, _LOG3, _LOG5 = math.log(2.0), math.log(3.0), math.log(5.0)

# (alpha, beta, gamma, delta, mu), r: value, tail_bound, terms_used, peak_index at rel_tol 1e-9
POWERLOG = {
    ((1, 2, 0, 0, 1), 100.0): (4.99891686496988e-05, 3.303834875889854e-22, 4096, 58),
    ((1, 2, 0, 0, 1), 1000.0): (4.999989166686503e-07, 3.125795920272548e-22, 4096, 577),
    ((1, 2, 0, 0, 1), 10000.0): (4.999999891666662e-09, 1.6657503635459538e-22, 4096, 5774),
    ((1, 2, 0, 0, 1), 100000.0): (4.9999999989166656e-11, 1.8193106147549004e-24, 4096, 57735),
    ((1, 2, 0, 0, 1), 1000000.0): (4.99999999998917e-13, 1.7458828055683393e-26, 4096, 577350),
    ((1, 2, 1, 1, 1), 100.0): (4.414809160612559e-05, 3.759158888887355e-23, 4096, 33),
    ((1, 2, 1, 1, 1), 1000.0): (4.609538206450972e-07, 3.7355112619675913e-23, 4096, 258),
    ((1, 2, 1, 1, 1), 10000.0): (4.708507713182251e-09, 4.6532857354089515e-23, 4096, 2168),
    ((1, 2, 1, 1, 1), 100000.0): (4.76800422028726e-11, 1.8544583474291854e-24, 4096, 18987),
    ((1, 2, 1, 1, 1), 1000000.0): (4.807584700944718e-13, 1.8403779350395688e-26, 4096, 170754),
    ((2, 3, -1, 2, 1), 100.0): (2.1900495855695767e-06, 1.1308378607004914e-30, 4096, 8),
    ((2, 3, -1, 2, 1), 1000.0): (6.104955717872598e-09, 1.1308372747752464e-30, 4096, 30),
    ((2, 3, -1, 2, 1), 10000.0): (2.4261193321667937e-11, 1.852726631706458e-30, 4096, 116),
    ((2, 3, -1, 2, 1), 100000.0): (1.1823647188979117e-13, 1.129669917907079e-30, 4096, 466),
    ((2, 3, -1, 2, 1), 1000000.0): (6.569440769951008e-16, 9.332338475694404e-31, 4096, 1914),
    ((1, 1, 0, 1, 2), 100.0): (7.246802039914305e-07, 3.1005000474724882e-21, 4096, 629),
    ((1, 1, 0, 1, 2), 1000.0): (3.1593979938811095e-09, 3.564964706654865e-23, 4096, 41231),
    ((1, 1, 0, 1, 2), 10000.0): (1.743578029653577e-11, 1.9713147143327212e-25, 4096, 3043489),
    ((1, 1, 0, 1, 2), 100000.0): (1.0982085046009679e-13, 1.5909749950945213e-27, 4096, 240409420),
    ((1, 1, 0, 1, 2), 1000000.0): (7.526808380751015e-16, 8.621384792602302e-30, 4096, 19832920310),
    ((1, 2, 0, 0, 1), 1e+30): (4.999999999999999e-61, 3.609160228544946e-74, 4096, 577350269189616868120154079232),
    ((1, 2, 0, 0, 1), 1e+100): (4.999999999999899e-201, 3.027592051013186e-214, 4096, 5773502691896164190974243058199297130953013039738261698871982397238170709652342163170107324819832832),
}
GENERAL = {
    'thm12-shifted': [(3.1202155934578504e-06, 1.1525219876836122e-30, 4096, 9), (6.3003753599712874e-09, 1.1982653097552282e-30, 4096, 39), (1.4424650151136336e-11, 1.1548222262182552e-30, 4096, 164), (3.3632593444625146e-14, 1.1453469610052927e-30, 4096, 698)],
    'thm12-plus5': [(2.7634161714473537e-06, 9.870390065933756e-30, 4096, 11), (4.436148445822535e-09, 9.874356548088825e-30, 4096, 57), (8.871133621818586e-12, 9.915660476689209e-30, 4096, 269)],
    'cor61': [(8.244421697604818e-07, 4.032826919037818e-34, 4094, 9), (1.2282892318425537e-09, 4.027114047464325e-34, 4094, 25), (1.9592379231870524e-12, 4.028020021557436e-34, 4094, 79), (3.2980919443579165e-15, 4.044417580157005e-34, 4094, 273), (5.7811836521315645e-18, 3.93002774272573e-34, 4094, 991)],
}
LOG_WEIGHTED_ZETA = {
    (0, 0, 2.0, 1e-12): 0.6449340668482266,
    (0, 1, 2.0, 1e-10): 0.6926058146742492,
    (0, 0, 1.001, 1e-10): 999.5772884760112,
    (1, 2, 1.01, 1e-08): 4.658947985279831,
    (2, 0, 1.5, 1e-10): 15.989556371225685,
}
FACTORIAL_DIRICHLET = {
    (0.0001, 1e-06): 1503.222986447419,
    (1e-06, 1e-06): 92566.61193032168,
    (1e-08, 1e-06): 6627339.854128649,
    (1e-05, 1e-12): 11488.621682464582,
    (5e-05, 1e-10): 2753.3571129154802,
}
LOG_FACTORIAL_DIRICHLET = {
    (1.5, 1e-10): 2.733231176132737,
    (2.0, 1e-10): 2.612467414509381,
    (3.0, 1e-12): 3.2243195236866677,
}

# verify thm15's points: (alpha, beta, mu), r: saddle_point_bound
SADDLE_POINT_BOUND = {
    ((1, 2, 1), 1000.0): 5.193032265297556e-09,
    ((1, 2, 1), 10000.0): 6.203409838076759e-12,
    ((1, 2, 1), 100000.0): 7.139136842300048e-15,
    ((1, 2, 1), 1000000.0): 8.021740099700082e-18,
    ((1, 2, 1), 10000000.0): 8.863971503606881e-21,
    ((1, 2, 1), 100000000.0): 9.674108769585764e-24,
    ((1, 2, 1), 1000000000.0): 1.0457885989050568e-26,
    ((1, 2, 1), 10000000000.0): 1.1219471881466712e-29,
    ((1, 2, 1), 100000000000.0): 1.1962012194789025e-32,
    ((1, 2, 1), 1000000000000.0): 1.268795199671083e-35,
    ((0.5, 1, 1), 1000.0): 7.720586444600974e-09,
    ((0.5, 1, 1), 10000.0): 9.390416352629643e-12,
    ((0.5, 1, 1), 100000.0): 1.0949789815046171e-14,
    ((0.5, 1, 1), 1000000.0): 1.2429658838355511e-17,
    ((0.5, 1, 1), 10000000.0): 1.3848607212424382e-20,
    ((0.5, 1, 1), 100000000.0): 1.5218817305069046e-23,
    ((0.5, 1, 1), 1000000000.0): 1.654879199407026e-26,
    ((0.5, 1, 1), 10000000000.0): 1.7844750434823263e-29,
    ((0.5, 1, 1), 100000000000.0): 1.9111409148627806e-32,
    ((0.5, 1, 1), 1000000000000.0): 2.0352449615239235e-35,
    ((0, 1, 1), 1000.0): 2.303676891947969e-11,
    ((0, 1, 1), 10000.0): 3.0470381627775105e-15,
    ((0, 1, 1), 100000.0): 3.7767851029929404e-19,
    ((0, 1, 1), 1000000.0): 4.496053132586182e-23,
    ((0, 1, 1), 10000000.0): 5.206936053348339e-27,
    ((0, 1, 1), 100000000.0): 5.910901480562529e-31,
    ((0, 1, 1), 1000000000.0): 6.609022575161315e-35,
    ((0, 1, 1), 10000000000.0): 7.302111819469717e-39,
    ((0, 1, 1), 100000000000.0): 7.990802092238164e-43,
    ((0, 1, 1), 1000000000000.0): 8.675598097201545e-47,
}
# verify lemma22's inputs, at rel_tol 1e-8: (eta, theta, s): log_weighted_zeta
LEMMA22_ZETA = {
    (0.0, 0.0, 1.01): 99.5779433384968,
    (0.0, 0.0, 1.001): 999.5772884760112,
    (0.0, 0.0, 1.0001): 9999.577222947542,
    (0.0, 1.0, 1.01): 4.7415652065646015,
    (0.0, 1.0, 1.001): 7.105088839898023,
    (0.0, 1.0, 1.0001): 9.424064018368146,
    (0.5, 0.0, 1.01): 886.0558103243033,
    (0.5, 0.0, 1.001): 28024.784702633962,
    (0.5, 0.0, 1.0001): 886226.7540471163,
}

# The smooth sequence pairs of verify thm12 and cor61 at mu = 1.
_SEQUENCES = {
    "thm12-shifted": SequencePair(
        a=lambda n: (n + 3.0) * math.log(n + 2.0),
        b=lambda n: float(n) ** 3 * math.log(n + 1.0),
        b_monotone_from=1,
        log_a=lambda u: np.logaddexp(u, _LOG3) + np.log(np.logaddexp(u, _LOG2)),
        log_b=lambda u: 3.0 * u + np.log(np.logaddexp(u, 0.0)),
    ),
    "thm12-plus5": SequencePair(
        a=lambda n: (n + 5.0),
        b=lambda n: float(n) ** 3,
        b_monotone_from=0,
        log_a=lambda u: np.logaddexp(u, _LOG5),
        log_b=lambda u: 3.0 * u,
    ),
    "cor61": SequencePair(
        a=lambda n: log_factorial(n),
        b=lambda n: log_factorial(n) ** 3,
        b_monotone_from=2,
        log_a=log_log_factorial,
        log_b=lambda u: 3.0 * log_log_factorial(u),
    ),
}
# name: radii, rel_tol, n_start, as the suites call eval_general_grid
_GRIDS = {
    "thm12-shifted": ([10.0**k for k in range(2, 6)], 1e-6, 0),
    "thm12-plus5": ([10.0**k for k in (2, 3, 4)], 1e-7, 0),
    "cor61": ([10.0**k for k in range(2, 7)], 1e-5, 2),
}


@pytest.mark.parametrize("params, r", sorted(POWERLOG))
def test_powerlog_values_are_pinned(params, r):
    res = eval_powerlog(PowerLogParams(*params), r, rel_tol=1e-9)
    assert (res.value, res.tail_bound, res.terms_used, res.peak_index) == POWERLOG[params, r]


@pytest.mark.parametrize("name", sorted(GENERAL))
def test_smooth_grid_values_are_pinned(name):
    radii, rel_tol, n_start = _GRIDS[name]
    results = eval_general_grid(_SEQUENCES[name], 1.0, radii, rel_tol=rel_tol, n_start=n_start)
    got = [(r.value, r.tail_bound, r.terms_used, r.peak_index) for r in results]
    assert got == GENERAL[name]


# The same two pairs as the table of the paper's pairs builds them for the CLI
# presets and verify: exponents of 1.0 and 3.0 leave every term bit for bit.
_TABLE = {
    "thm12-shifted": ("shifted-powerlog", (1.0, 3.0, 1.0, 1.0)),
    "cor61": ("logfact", (1.0, 3.0)),
}


@pytest.mark.parametrize("name", sorted(_TABLE))
def test_table_pairs_give_the_pinned_values(name):
    preset, exponents = _TABLE[name]
    pair, n_start = _PAPER_PAIRS[preset](*exponents)
    radii, rel_tol, pinned_start = _GRIDS[name]
    assert n_start == pinned_start
    results = eval_general_grid(pair, 1.0, radii, rel_tol=rel_tol, n_start=n_start)
    got = [(r.value, r.tail_bound, r.terms_used, r.peak_index) for r in results]
    assert got == GENERAL[name]


@pytest.mark.parametrize("eta, theta, s, rel_tol", sorted(LOG_WEIGHTED_ZETA))
def test_log_weighted_zeta_is_pinned(eta, theta, s, rel_tol):
    value = log_weighted_zeta(DirichletParams(eta, theta), s, rel_tol=rel_tol)
    assert value == LOG_WEIGHTED_ZETA[eta, theta, s, rel_tol]


@pytest.mark.parametrize("s, rel_tol", sorted(FACTORIAL_DIRICHLET))
def test_factorial_dirichlet_is_pinned(s, rel_tol):
    # s <= 1e-4: the head does not certify, so these run the finite-end tail
    assert factorial_dirichlet(s, rel_tol=rel_tol) == FACTORIAL_DIRICHLET[s, rel_tol]


@pytest.mark.parametrize("s, rel_tol", sorted(LOG_FACTORIAL_DIRICHLET))
def test_log_factorial_dirichlet_is_pinned(s, rel_tol):
    assert log_factorial_dirichlet(s, rel_tol=rel_tol) == LOG_FACTORIAL_DIRICHLET[s, rel_tol]


@pytest.mark.parametrize("params, r", sorted(SADDLE_POINT_BOUND))
def test_saddle_point_bound_is_pinned(params, r):
    assert saddle_point_bound(FactorialParams(*params), r) == SADDLE_POINT_BOUND[params, r]


@pytest.mark.parametrize("eta, theta, s", sorted(LEMMA22_ZETA))
def test_lemma22_zeta_is_pinned(eta, theta, s):
    value = log_weighted_zeta(DirichletParams(eta, theta), s, rel_tol=1e-8)
    assert value == LEMMA22_ZETA[eta, theta, s]


def test_thm15_points_in_one_call_are_pinned():
    points = sorted(SADDLE_POINT_BOUND)
    got = _saddle_point_bounds([(FactorialParams(*params), r) for params, r in points])
    assert got == [SADDLE_POINT_BOUND[point] for point in points]


def test_lemma22_zetas_in_one_call_are_pinned():
    items = sorted(LEMMA22_ZETA)
    got = _log_weighted_zetas([(DirichletParams(eta, theta), s) for eta, theta, s in items], 1e-8)
    assert got == [LEMMA22_ZETA[item] for item in items]
