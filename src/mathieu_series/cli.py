"""Command-line interface: evaluation, prediction, sweeps, verification.

Output is machine-readable (JSON by default, CSV with --format csv), with
17-significant-digit round-trip numbers and no timestamps, so identical
flags produce byte-identical output. Exit codes: 0 success, 1 verification
or numeric failure, 2 parameter error, 3 resource cap, 4 unmet
precondition (e.g. radius outside the good set).

Importing this module loads the scalar core (``_core``: the parameter
records and the factorial family) with ``_record``,
``special`` and ``errors``, and no ``dataclasses`` or ``inspect``. A
command imports the rest of what it runs when it runs, so a CLI process
loads only the code its command runs:

* ``eval factorial``: nothing more;
* ``predict powerlog``, ``predict factorial`` and ``sweep factorial``:
  ``asymptotics``;
* ``eval powerlog``, ``eval general`` and ``eval powerseries``: ``series``
  and ``tails``, whose ``_PAPER_PAIRS`` are the presets of the last two;
* ``sweep powerlog`` and ``sweep expansion``: ``asymptotics``, ``series``
  and ``tails``;
* ``verify``: ``verify``, which loads all of the above and ``dirichlet``.

A sweep evaluates its whole grid first (the power-log and expansion
families as one radius grid) and writes one row per radius, failed ones too.

Output with ``--format csv`` also loads the standard library's ``csv``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

from . import __version__, _record
from ._core import (
    DEFAULT_GENERAL_CAP,
    DEFAULT_HARD_CAP,
    FactorialParams,
    PowerLogParams,
    _raise_first,
    eval_factorial,
)
from ._suites import SUITE_NAMES
from .errors import (
    CapacityError,
    DomainError,
    MathieuError,
    NumericError,
    ParameterError,
    PreconditionError,
    ResourceLimitError,
    _rel_tol,
)

__all__ = ["main", "entrypoint"]

_ENV_TERM_CAP = "MATHIEU_TERM_CAP"


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _term_cap(args: argparse.Namespace) -> int:
    """The first set of MATHIEU_TERM_CAP, --hard-cap and the family's library
    cap; ``ParameterError`` unless it is a positive integer."""
    raw = os.environ.get(_ENV_TERM_CAP)
    if raw is not None:
        name = _ENV_TERM_CAP
        try:
            cap = int(raw)
        except ValueError as exc:
            raise ParameterError(f"{name} must be an integer, got {raw!r}") from exc
    elif getattr(args, "hard_cap", None) is not None:
        name, cap = "--hard-cap", args.hard_cap
    else:
        return _FAMILIES[args.family].cap
    if cap <= 0:
        raise ParameterError(f"{name} must be positive, got {cap}")
    return cap


def _write_output(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta_line(args: argparse.Namespace, keys: list[str]) -> str:
    parts = [f"mathieu-series v{__version__}"]
    for key in keys:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            parts.append(f"{key}={_fmt(value) if not isinstance(value, str) else value}")
    return "# " + " ".join(parts)


def _write_csv(args: argparse.Namespace, meta_keys: list[str], columns, rows) -> None:
    """The meta line, a header of ``columns`` and one line per row (missing cells empty)."""
    import csv  # only --format csv needs it

    buf = io.StringIO()
    buf.write(_meta_line(args, meta_keys) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(row.get(col)) for col in columns] for row in rows)
    _write_output(buf.getvalue(), args.out)


def _emit_record(record: dict, args: argparse.Namespace, meta_keys: list[str]) -> None:
    if args.format == "json":
        _write_output(json.dumps(record) + "\n", args.out)
    else:
        _write_csv(args, meta_keys, list(record), [record])


def _diagnostics_fields(diag) -> dict:
    """The factorial diagnostics columns of predict and sweep."""
    return {"g": diag.g, "frac_g": diag.frac_g, "n0": diag.n0, "m_r": diag.m_r, "in_R": diag.in_R}


# ---------------------------------------------------------------------------
# Families and the sequence presets of the general and power-series families
# ---------------------------------------------------------------------------


def _in_range(name: str, term):
    """The preset term ``term``, raising ``NumericError`` past the double range: where
    a float power raises ``OverflowError`` or a product of finite powers is inf."""

    def checked(n):
        try:
            value = term(n)
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise NumericError(f"preset term {name}({n}) is past the double range")
        return value

    return checked


def _exponents(args: argparse.Namespace) -> tuple:
    """The exponents the preset's pair is built from; ``ParameterError`` unless
    a general-series preset's flags give a convergent power-log tuple."""
    if args.family == "powerseries":
        return ()
    if args.sequences == "logfact":
        # Validates convergence through the equivalent power-log tuple.
        PowerLogParams(args.alpha, args.beta, args.alpha, args.beta, args.mu)
        return args.alpha, args.beta
    PowerLogParams(args.alpha, args.beta, args.gamma, args.delta, args.mu)
    if args.delta < 0.0:  # b(0) = 0^beta (log 1)^delta
        raise ParameterError(f"the shifted-powerlog preset needs --delta >= 0, got {args.delta}")
    return args.alpha, args.beta, args.gamma, args.delta


# family -> (its name in errors, the --sequences it takes from ``series._PAPER_PAIRS``)
_PRESETS = {
    "general": ("general-series", ("logfact", "shifted-powerlog")),
    "powerseries": ("power-series", ("ones-squares", "linear-factorial")),
}


def _preset(args: argparse.Namespace):
    """The preset's pair for a power series; (pair, first n) for the general
    family, whose terms raise ``NumericError`` past the double range."""
    kind, presets = _PRESETS[args.family]
    if args.sequences not in presets:
        raise ParameterError(
            f"unknown {kind} preset {args.sequences!r}; choose one of " + ", ".join(presets)
        )
    exponents = _exponents(args)
    from .series import _PAPER_PAIRS  # once the flags have passed their checks

    pair, n_start = _PAPER_PAIRS[args.sequences](*exponents)
    if args.family == "powerseries":
        return pair
    return _record.replace(pair, a=_in_range("a", pair.a), b=_in_range("b", pair.b)), n_start


def _expansion_mu(args: argparse.Namespace) -> float:
    """--mu, once the classical series converges there and every term of its
    expansion is a double: a bad mu fails the command, not each row."""
    from .asymptotics import _expansion_terms

    _expansion_terms(args.mu)
    return args.mu


def _eval_powerlog(p: PowerLogParams, r: float, **kwargs):
    """``series.eval_powerlog``, looked up when called, so that importing this
    module does not load ``series``."""
    from . import series

    return series.eval_powerlog(p, r, **kwargs)


@_record.record
class _Family:
    required: tuple[str, ...]  # flags the family needs
    params: object  # builds its parameters from the parsed flags
    cap: int | None = None  # the library's term cap
    evaluate: object = None  # the series evaluator of powerlog and factorial


_FAMILIES = {
    "powerlog": _Family(
        ("alpha", "beta", "mu"),
        lambda a: PowerLogParams(a.alpha, a.beta, a.gamma, a.delta, a.mu),
        DEFAULT_HARD_CAP,
        _eval_powerlog,
    ),
    "factorial": _Family(
        ("alpha", "beta", "mu"),
        lambda a: FactorialParams(a.alpha, a.beta, a.mu),
        DEFAULT_HARD_CAP,
        eval_factorial,
    ),
    "general": _Family(("alpha", "beta", "mu"), _preset, DEFAULT_GENERAL_CAP),
    "powerseries": _Family(("mu",), _preset, DEFAULT_GENERAL_CAP),
    "expansion": _Family(("mu",), _expansion_mu),
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> int:
    family = _FAMILIES[args.family]
    params = family.params(args)
    cap = _term_cap(args)
    if family.evaluate is not None:
        res = family.evaluate(params, args.r, rel_tol=args.tol, hard_cap=cap)
    elif args.family == "general":
        from .series import eval_general

        pair, n_start = params
        res = eval_general(pair, args.mu, args.r, rel_tol=args.tol, hard_cap=cap, n_start=n_start)
    else:  # powerseries
        from .series import eval_power_series

        value = eval_power_series(params, args.mu, args.x, args.r, rel_tol=args.tol, hard_cap=cap)
        record = {"family": args.family, "r": args.r, "x": args.x, "value": value}
        _emit_record(record, args, ["family", "sequences", "mu", "x", "r", "tol"])
        return 0

    record = {
        "family": args.family,
        "r": args.r,
        "value": res.value,
        "tail_bound": res.tail_bound,
        "terms_used": res.terms_used,
        "peak_index": res.peak_index,
    }
    meta = ["family", "sequences", "alpha", "beta", "gamma", "delta", "mu", "r", "tol"]
    _emit_record(record, args, meta)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from .asymptotics import asymptotic_prediction, factorial_diagnostics, predict_factorial

    if args.family == "powerlog":
        # The meta line reads gamma and delta from args: show the ones used.
        if args.gamma_eq_alpha:
            args.gamma = args.alpha
        if args.delta_eq_beta:
            args.delta = args.beta
        p = PowerLogParams(args.alpha, args.beta, args.gamma, args.delta, args.mu)
        pred = asymptotic_prediction(p)
        if args.gamma_eq_alpha and args.delta_eq_beta:
            # exact in the closed form, immune to rounding
            pred = _record.replace(pred, log_exponent=-1.0)
        record = {
            "family": "powerlog",
            "r": args.r,
            "constant": pred.constant,
            "r_exponent": pred.r_exponent,
            "log_exponent": pred.log_exponent,
            "value": pred.value_at(args.r),
        }
        _emit_record(record, args, ["family", "alpha", "beta", "gamma", "delta", "mu", "r"])
        return 0

    p = FactorialParams(args.alpha, args.beta, args.mu)
    diag = factorial_diagnostics(p, args.r, args.d1, args.d2)
    fields = _diagnostics_fields(diag)
    meta = ["family", "alpha", "beta", "mu", "r", "d1", "d2"]
    if not diag.in_R:
        record = {"family": "factorial", "r": args.r, "error": "outside the good set", **fields}
        _emit_record(record, args, meta)
        print(
            f"precondition failed: frac_g={diag.frac_g:.6f} outside [{args.d1}, {args.d2}]",
            file=sys.stderr,
        )
        return 4
    value = predict_factorial(p, args.r, args.d1, args.d2)
    _emit_record({"family": "factorial", "r": args.r, "value": value, **fields}, args, meta)
    return 0


def _parse_grid(spec: str) -> list[float]:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise ParameterError(f"grid spec must be r_min:r_max:points, got {spec!r}") from exc
    if not (0 < lo < hi < math.inf) or n < 1:
        raise ParameterError(
            f"grid spec must satisfy 0 < r_min < r_max < inf, points >= 1: {spec!r}"
        )
    if n == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio**i for i in range(n)]


def _sweep_outcomes(args: argparse.Namespace, p, cap: int | None, radii: list) -> list:
    """Per radius, the series value (an ``EvalResult``; a float for expansion) or its error."""
    if args.family == "powerlog":
        from .series import _powerlog_outcomes

        return _powerlog_outcomes([(p, r) for r in radii], args.tol, cap)
    if args.family == "expansion":
        from .asymptotics import _classical_series

        return _classical_series(p, radii, 1e-13)
    outcomes = []
    for r in radii:
        try:
            outcomes.append(eval_factorial(p, r, rel_tol=args.tol, hard_cap=cap))
        except MathieuError as exc:
            outcomes.append(exc)
    return outcomes


def _sweep_row(args: argparse.Namespace, p, r: float, outcome) -> dict:
    from .asymptotics import (
        eval_classical_expansion,
        factorial_diagnostics,
        predict_factorial,
        predict_powerlog,
    )

    fields = {}
    if args.family == "expansion":
        # optimal truncation against the direct evaluation
        value, bound = eval_classical_expansion(p, r, mode="optimal")
        (pred,) = _raise_first([outcome])
    else:
        (res,) = _raise_first([outcome])
        value, bound = res.value, res.tail_bound
        if args.family == "powerlog":
            pred = predict_powerlog(p, r)
        else:
            diag = factorial_diagnostics(p, r, args.d1, args.d2)
            pred = predict_factorial(p, r, args.d1, args.d2) if diag.in_R else None
            fields = _diagnostics_fields(diag)
    ratio = value / pred if pred and pred > 0 else None
    row = {"r": r, "value": value, "prediction": pred, "ratio": ratio, "tail_bound": bound}
    return {**row, **fields}


def _cmd_sweep(args: argparse.Namespace) -> int:
    radii = sorted(_parse_grid(args.r_grid))
    # Parameters, the term cap and the tolerance are read once, so that bad
    # ones exit 2 before any work; expansion takes neither cap nor tolerance.
    family = _FAMILIES[args.family]
    p = family.params(args)
    cap = _term_cap(args) if family.evaluate is not None else None
    if cap is not None:
        _rel_tol(args.tol)

    rows = []
    failures = 0
    for r, outcome in zip(radii, _sweep_outcomes(args, p, cap, radii)):
        try:
            rows.append(_sweep_row(args, p, r, outcome))
        except MathieuError as exc:
            failures += 1
            rows.append({"r": r, "error": str(exc)})
    if failures == len(rows):
        print("sweep failed at every grid point", file=sys.stderr)
        return 1

    base_cols = ["r", "value", "prediction", "ratio", "tail_bound"]
    if args.family == "factorial":
        base_cols += ["g", "frac_g", "n0", "m_r", "in_R"]
    if any("error" in row for row in rows):
        base_cols += ["error"]

    meta_keys = ["family", "alpha", "beta", "gamma", "delta", "mu", "d1", "d2", "r-grid", "tol"]
    if args.format == "json":
        payload = {
            "meta": {"version": __version__, "family": args.family, "r_grid": args.r_grid},
            "records": [{k: row.get(k) for k in base_cols} for row in rows],
        }
        _write_output(json.dumps(payload, indent=None) + "\n", args.out)
    else:
        _write_csv(args, meta_keys, base_cols, rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    results = run_suite(args.suite, strict=args.strict)
    _write_output("".join(c.line() + "\n" for c in results), args.out)
    return 0 if all(c.passed for c in results) else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="output path ('-' or omitted for stdout)")


def _add_family_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--gamma", type=float, default=0.0)
    sub.add_argument("--delta", type=float, default=0.0)
    sub.add_argument("--mu", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mathieu",
        description="Evaluate Mathieu-type series, their asymptotic laws, and verification sweeps.",
    )
    ap.add_argument("--version", action="version", version=f"mathieu-series {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)

    ev = subs.add_parser("eval", help="evaluate a series with certified truncation")
    ev.add_argument("family", choices=("powerlog", "factorial", "general", "powerseries"))
    _add_family_params(ev)
    ev.add_argument("--r", type=float, required=True)
    ev.add_argument("--x", type=float, default=0.5, help="geometric factor (powerseries)")
    ev.add_argument("--tol", type=float, default=1e-8)
    ev.add_argument(
        "--sequences",
        default="logfact",
        help="preset for general/powerseries: logfact, shifted-powerlog, "
        "ones-squares, linear-factorial",
    )
    ev.add_argument("--hard-cap", type=int, default=None, help="term cap (default: the family's)")
    _add_common_output(ev)
    ev.set_defaults(func=_cmd_eval)

    pr = subs.add_parser("predict", help="closed-form asymptotic prediction")
    pr.add_argument("family", choices=("powerlog", "factorial"))
    _add_family_params(pr)
    pr.add_argument("--r", type=float, required=True)
    pr.add_argument("--gamma-eq-alpha", action="store_true", help="set gamma = alpha exactly")
    pr.add_argument("--delta-eq-beta", action="store_true", help="set delta = beta exactly")
    pr.add_argument("--d1", type=float, default=0.2)
    pr.add_argument("--d2", type=float, default=0.8)
    _add_common_output(pr)
    pr.set_defaults(func=_cmd_predict)

    sw = subs.add_parser("sweep", help="evaluate and predict over a geometric radius grid")
    sw.add_argument("family", choices=("powerlog", "factorial", "expansion"))
    _add_family_params(sw)
    sw.add_argument("--r-grid", required=True, help="r_min:r_max:points (geometric)")
    sw.add_argument("--tol", type=float, default=1e-8)
    sw.add_argument("--d1", type=float, default=0.2)
    sw.add_argument("--d2", type=float, default=0.8)
    _add_common_output(sw)
    sw.set_defaults(func=_cmd_sweep)

    about = "run a named verification suite (PASS/FAIL lines, whatever --format says)"
    vf = subs.add_parser("verify", help=about, description=about)
    vf.add_argument("suite", choices=SUITE_NAMES)
    vf.add_argument("--strict", action="store_true", help="demand 20%% threshold clearance")
    _add_common_output(vf)
    vf.set_defaults(func=_cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)

    try:
        # Required numeric flags per family, enforced here so argparse stays simple.
        family = _FAMILIES.get(getattr(args, "family", None))
        for field in family.required if family else ():
            if getattr(args, field) is None:
                raise ParameterError(f"--{field} is required for {args.command} {args.family}")
        return args.func(args)
    except (ParameterError, DomainError, CapacityError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
