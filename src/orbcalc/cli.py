"""Command-line front end: every operation with exact-rational output.

Exit status is 0 on success, 1 on a domain error (an input the library
refuses, like a weight sharing a factor with r or a Dedekind sum over its
work limit) or an ``--out`` path that cannot be written, 2 on a usage error
(unparseable flags or singularity notation).  An inadmissible
configuration is not an error: `check` reports the verdict in the body
and exits 0.

Output is text by default, JSON with ``--format json``; rationals print
reduced as "p/q" (or "n" when the denominator is 1) and serialize as
{"num", "den"}.  No floats appear unless the explicit ``--oracle`` flag
asks for the floating-point cross-check, which prints side by side with
the exact value.  ``--out PATH`` writes the report to a file instead of
stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import catalog, dedekind, enumerator, invariants
from .catalog import (
    ADE,
    CyclicQuotient,
    SingularityParseError,
    format_singularity,
    format_singularity_list,
    parse_singularity,
    parse_singularity_list,
)
from .invariants import OrbifoldConfig
from .rationals import format_rational, parse_rational, rational_to_json


class OutputError(Exception):
    """The --out path cannot be opened or written."""


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    if args.format == "json":
        body = json.dumps(payload, indent=2) + "\n"
    else:
        body = text if text.endswith("\n") else text + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(body)
        except OSError as exc:
            raise OutputError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(body)


def _weights_notation(r: int, weights: Sequence[int]) -> str:
    return f"1/{r}({','.join(str(b) for b in weights)})"


def _cmd_dedekind(args: argparse.Namespace) -> int:
    value = dedekind.sigma(args.r, args.weights, args.index)
    notation = _weights_notation(args.r, args.weights)
    lines = [f"sigma_{args.index}({notation}) = {format_rational(value)}"]
    payload = {
        "input": {"r": args.r, "weights": list(args.weights), "index": args.index},
        "value": rational_to_json(value),
    }
    if args.oracle:
        approx = dedekind.dedekind_sum_float_oracle(
            dedekind.DedekindInput(args.r, args.weights, args.index)
        )
        exact_as_float = float(value)
        diff = abs(approx - exact_as_float)
        lines.append(
            f"float oracle: {approx!r}   exact value as float: {exact_as_float!r}"
            f"   abs diff: {diff:.3e}"
        )
        payload["oracle"] = {
            "float": approx,
            "exact_as_float": exact_as_float,
            "abs_diff": diff,
        }
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_mu(args: argparse.Namespace) -> int:
    sing = parse_singularity(args.sing)
    if args.bundle == "anticanonical":
        value = catalog.mu_anticanonical(sing)
    else:
        value = catalog.mu_canonical_square(sing)
    text = (
        f"mu({args.bundle}) at {format_singularity(sing)} = {format_rational(value)}\n"
        f"12*mu = {format_rational(12 * value)}"
    )
    payload = {
        "input": {"singularity": format_singularity(sing), "bundle": args.bundle},
        "mu": rational_to_json(value),
        "twelve_mu": rational_to_json(12 * value),
    }
    _emit(args, text, payload)
    return 0


def _cmd_chi_orb(args: argparse.Namespace) -> int:
    sings = parse_singularity_list(args.sings)
    value = invariants.chi_orb_from_chi(args.chi, sings)
    text = (
        f"chi = {args.chi}, singularities: {format_singularity_list(sings) or '(none)'}\n"
        f"chi_orb = {format_rational(value)}"
    )
    payload = {
        "input": {
            "chi": args.chi,
            "singularities": [format_singularity(s) for s in sings],
        },
        "chi_orb": rational_to_json(value),
    }
    _emit(args, text, payload)
    return 0


def _cmd_genus(args: argparse.Namespace) -> int:
    if len(args.weights) != 3:
        raise ValueError("genus needs exactly three weights a0,a1,a2")
    value = invariants.genus_weighted_plane_curve(tuple(args.weights), args.degree)
    a0, a1, a2 = args.weights
    lines = [
        f"genus of a degree-{args.degree} curve in P({a0},{a1},{a2}) "
        f"= {format_rational(value)}"
    ]
    if value.denominator != 1:
        lines.append("note: non-integer genus, so no non-singular such curve exists")
    payload = {
        "input": {"weights": list(args.weights), "degree": args.degree},
        "genus": rational_to_json(value),
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def _cmd_double_cover(args: argparse.Namespace) -> int:
    value = invariants.euler_double_cover(args.chi_base, args.chi_branch)
    text = (
        f"chi(base) = {args.chi_base}, chi(branch) = {args.chi_branch}\n"
        f"chi(double cover) = {value}"
    )
    payload = {
        "input": {"chi_base": args.chi_base, "chi_branch": args.chi_branch},
        "chi": value,
    }
    _emit(args, text, payload)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    sings = parse_singularity_list(args.sings)
    config = OrbifoldConfig(
        degree=args.degree,
        singularities=sings,
        euler_topological=args.chi,
        picard_rank=args.picard,
    )
    report = enumerator.check_config(config, args.mode)
    _emit(args, report.to_text(), report.to_json())
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    result = enumerator.enumerate_configurations(args.degree, args.mode)
    _emit(args, result.to_text(), result.to_json_dict())
    return 0


def _cmd_bubbles(args: argparse.Namespace) -> int:
    bounds = invariants.bubble_count_bounds(args.total, args.quantum)
    text = (
        f"total energy {format_rational(args.total)}, "
        f"quantum {format_rational(args.quantum)}: {bounds.window()}"
    )
    if bounds.violation:
        text += f"\nviolation: {bounds.violation}"
    payload = {
        "input": {
            "total": rational_to_json(args.total),
            "quantum": rational_to_json(args.quantum),
        },
        **bounds.to_json(),
    }
    _emit(args, text, payload)
    return 0


def _verification_checks() -> list[tuple[str, str, Callable[[], object]]]:
    """Every published value the library must reproduce, as (name, expected, compute)."""
    ak_twelve_mu = {k: Fraction(k + 1) - Fraction(1, k + 1) for k in range(1, 9)}
    checks: list[tuple[str, str, Callable[[], object]]] = []

    def add(name: str, expected: object, compute: Callable[[], object]) -> None:
        checks.append((name, _show(expected), lambda: _show(compute())))

    def _show(value: object) -> str:
        if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
            return format_rational(Fraction(value))
        return str(value)

    for r, weights, index, expected in (
        (4, (1, 1), 2, Fraction(1, 16)),
        (4, (1, 1), 0, Fraction(1, 16)),
        (8, (1, 3), 4, Fraction(5, 32)),
        (8, (1, 3), 0, Fraction(5, 32)),
        (9, (1, 2), 6, Fraction(2, 27)),
        (9, (1, 2), 0, Fraction(2, 27)),
    ):
        notation = _weights_notation(r, weights)
        add(
            f"sigma_{index}({notation})",
            expected,
            lambda r=r, w=weights, i=index: dedekind.sigma(r, w, i),
        )

    for k, expected in ak_twelve_mu.items():
        add(
            f"12*mu(K^-1) at A{k}",
            expected,
            lambda k=k: 12 * catalog.mu_anticanonical(ADE("A", k)),
        )
        add(
            f"12*mu(K^-1) at A{k} via the sigma rule for 1/{k + 1}(1,{k})",
            expected,
            lambda k=k: 12 * catalog.mu_anticanonical(CyclicQuotient(k + 1, 1, k)),
        )
    add(
        "12*mu(K^-1) at D4",
        Fraction(39, 8),
        lambda: 12 * catalog.mu_anticanonical(ADE("D", 4)),
    )
    for r, b1, b2, expected in (
        (4, 1, 1, Fraction(3, 4)),
        (8, 1, 3, Fraction(15, 8)),
        (9, 1, 2, Fraction(8, 9)),
    ):
        add(
            f"12*mu(K^-1) at 1/{r}({b1},{b2})",
            expected,
            lambda r=r, b1=b1, b2=b2: 12
            * catalog.mu_anticanonical(CyclicQuotient(r, b1, b2)),
        )

    add(
        "genus of a degree-8 curve in P(1,1,4)",
        3,
        lambda: invariants.genus_weighted_plane_curve((1, 1, 4), 8),
    )
    add(
        "chi of the double cover of P(1,1,4) branched in that curve",
        10,
        lambda: invariants.euler_double_cover(3, 2 - 2 * 3),
    )

    two_quarter_points = (CyclicQuotient(4, 1, 1), CyclicQuotient(4, 1, 1))
    degree2_example = OrbifoldConfig(
        degree=2, singularities=two_quarter_points, euler_topological=10
    )
    add(
        "chi_orb of the degree-2 double cover with 2x 1/4(1,1)",
        Fraction(17, 2),
        lambda: invariants.chi_orb_from_chi(10, two_quarter_points),
    )
    add(
        "chi_limit of that degree-2 example",
        10,
        lambda: invariants.chi_limit(degree2_example),
    )

    degree1_sings = (
        ADE("A", 8),
        CyclicQuotient(9, 1, 2),
        CyclicQuotient(9, 1, 2),
    )
    degree1_example = OrbifoldConfig(
        degree=1, singularities=degree1_sings, euler_topological=3
    )
    add(
        "chi_orb of the degree-1 quotient with A8 + 2x 1/9(1,2)",
        Fraction(1, 3),
        lambda: invariants.chi_orb_from_chi(3, degree1_sings),
    )
    add(
        "chi_limit of that degree-1 example",
        11,
        lambda: invariants.chi_limit(degree1_example),
    )
    add(
        "derived picard rank of A8 + 2x 1/9(1,2) at degree 1",
        1,
        lambda: enumerator.check_config(degree1_example).hrr.picard_rank,
    )

    @functools.cache
    def enumeration(degree: int, mode: str) -> enumerator.EnumerationResult:
        return enumerator.enumerate_configurations(degree, mode)

    def max_mult(degree: int, mode: str, type_name: str) -> int:
        return enumeration(degree, mode).max_multiplicity()[type_name]

    add("degree 3: max A1 multiplicity", 5, lambda: max_mult(3, "with-exclusions", "A1"))
    for name, expected in (("A1", 6), ("A2", 3), ("A3", 2)):
        add(
            f"degree 2: max {name} multiplicity",
            expected,
            lambda n=name: max_mult(2, "with-exclusions", n),
        )
    add(
        "degree 2: max A4 multiplicity, budget inequality alone",
        2,
        lambda: max_mult(2, "inequality-only", "A4"),
    )
    add(
        "degree 2: max A4 multiplicity, with exclusion rules",
        1,
        lambda: max_mult(2, "with-exclusions", "A4"),
    )
    for name, expected in (
        ("A1", 7),
        ("A2", 4),
        ("A3", 2),
        ("A4", 2),
        ("A5", 1),
        ("A6", 1),
        ("A7", 1),
        ("A8", 1),
        ("D4", 2),
        ("1/8(1,3)", 5),
    ):
        add(
            f"degree 1: max {name} multiplicity",
            expected,
            lambda n=name: max_mult(1, "inequality-only", n),
        )
    add(
        "degree 1: A5 and A5 together (index sum 10)",
        False,
        lambda: enumerator.check_pair_rule(1, 5, 5),
    )
    add(
        "degree 1: A4 and A5 together (index sum 9)",
        True,
        lambda: enumerator.check_pair_rule(1, 4, 5),
    )

    companion = OrbifoldConfig(
        degree=1,
        singularities=(ADE("D", 4), ADE("D", 4), CyclicQuotient(4, 1, 1)),
    )
    add(
        "degree 1: 2x D4 + 1/4(1,1) admissible",
        True,
        lambda: enumerator.check_config(companion).admissible,
    )
    overfull = OrbifoldConfig(degree=1, singularities=(ADE("D", 4), ADE("D", 4), ADE("A", 1)))
    add(
        "degree 1: 2x D4 + A1 passes the budget",
        False,
        lambda: bool(enumerator.check_config(overfull).budget_ok),
    )
    add(
        "bubble window for total 3/2 at quantum 3/4",
        "min=1 max=2 exact_fit=true",
        lambda: invariants.bubble_count_bounds(Fraction(3, 2)).window(),
    )
    return checks


def _cmd_verify_examples(args: argparse.Namespace) -> int:
    rows = []
    failed = 0
    for name, expected, compute in _verification_checks():
        try:
            actual = compute()
        except Exception as exc:  # a crash is a failed check, not a crash of the verifier
            actual = f"error: {exc}"
        ok = actual == expected
        failed += 0 if ok else 1
        rows.append({"name": name, "expected": expected, "actual": actual, "ok": ok})
    lines = [
        f"{'ok  ' if row['ok'] else 'FAIL'}  {row['name']}: expected {row['expected']}"
        + ("" if row["ok"] else f", got {row['actual']}")
        for row in rows
    ]
    lines.append(f"{len(rows)} checks: {len(rows) - failed} ok, {failed} failed")
    payload = {"checks": rows, "total": len(rows), "failed": failed}
    _emit(args, "\n".join(lines), payload)
    return 1 if failed else 0


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument("--out", help="write the report to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbcalc",
        description="Exact quotient-singularity invariants and Del Pezzo "
        "degeneration bookkeeping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dedekind", help="Dedekind sum sigma_i(1/r(b1,...,bm))")
    p.add_argument("--r", type=int, required=True, help="order of the cyclic group")
    p.add_argument(
        "--weights", type=_parse_int_list, required=True, help="comma-separated weights"
    )
    p.add_argument("--index", type=int, default=0, help="exponent i in epsilon^i")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also print the floating-point cross-check",
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_dedekind)

    p = sub.add_parser("mu", help="orbifold Riemann-Roch correction term at one point")
    p.add_argument("--sing", required=True, help='singularity, e.g. "A3" or "1/4(1,1)"')
    p.add_argument(
        "--bundle",
        choices=("anticanonical", "canonical-square"),
        default="anticanonical",
        help="line bundle the correction term is taken against",
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_mu)

    p = sub.add_parser("chi-orb", help="orbifold Euler number from chi and singularities")
    p.add_argument("--chi", type=int, required=True, help="topological Euler number")
    p.add_argument(
        "--sings", default="", help='singularity list, e.g. "A8, 2x 1/9(1,2)"'
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_chi_orb)

    p = sub.add_parser("genus", help="genus of a curve in a weighted projective plane")
    p.add_argument(
        "--weights", type=_parse_int_list, required=True, help="weights a0,a1,a2"
    )
    p.add_argument("--degree", type=int, required=True, help="degree of the curve")
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_genus)

    p = sub.add_parser("double-cover", help="Euler number of a branched double cover")
    p.add_argument("--chi-base", type=int, required=True)
    p.add_argument("--chi-branch", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_double_cover)

    p = sub.add_parser("check", help="full admissibility report for one configuration")
    p.add_argument("--degree", type=int, required=True, help="Del Pezzo degree 1..4")
    p.add_argument("--sings", default="", help="singularity list")
    p.add_argument("--chi", type=int, help="topological Euler number, if known")
    p.add_argument("--picard", type=int, help="Picard rank, if known")
    p.add_argument("--mode", choices=enumerator.MODES, default=enumerator.WITH_EXCLUSIONS)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("enumerate", help="all configurations passing the energy budget")
    p.add_argument("--degree", type=int, required=True, help="Del Pezzo degree 1..4")
    p.add_argument("--mode", choices=enumerator.MODES, default=enumerator.WITH_EXCLUSIONS)
    p.add_argument(
        "--workers",
        type=int,
        help="accepted for compatibility and ignored: the search is serial",
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("bubbles", help="bubble-count window for a total energy")
    p.add_argument(
        "--total", type=parse_rational, required=True, help="total energy, e.g. 3/2"
    )
    p.add_argument(
        "--quantum",
        type=parse_rational,
        default=invariants.MIN_BUBBLE_ENERGY_UNITS,
        help="per-bubble minimum energy (default 3/4)",
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_bubbles)

    p = sub.add_parser(
        "verify-examples", help="replay every published value and report mismatches"
    )
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_verify_examples)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SingularityParseError as exc:
        print(f"orbcalc: {exc}", file=sys.stderr)
        return 2
    except (ValueError, LookupError, ArithmeticError, OutputError) as exc:
        print(f"orbcalc: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream closed the pipe (e.g. `orbcalc enumerate ... | head`);
        # point stdout at devnull so interpreter shutdown stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
