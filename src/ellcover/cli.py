"""Command-line interface.

Exit codes: 0 success, 1 domain error (invalid regime, invalid parameters,
empty stratum, exceeded budget), 2 usage error, 3 verification failure
(a cross-check or invariant did not hold).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .charsum import check_cover, projective_points
from .coverparam import (
    LABELINGS,
    CoverParams,
    check_enum_budget,
    check_regime,
    check_stratum_budget,
    count_tuples,
    enumerate_tuples,
    make_regime,
)
from .ensemble import (
    _point_label,
    check_ensemble_budget,
    exhaustive_distribution,
    monte_carlo_distribution,
    theoretical_distribution,
)
from .errors import CrossCheckMismatch, EllcoverError
from .fqpoly import Poly, check_sieve_budget
from .verify import run_checks


def _parse_poly(ctx, text: str) -> Poly:
    try:
        coeffs = [int(part.strip()) for part in text.split(",")]
        return Poly(ctx, coeffs)
    except ValueError as exc:
        raise UsageError(f"bad polynomial literal {text!r}: {exc}") from None


def _parse_tuple(ctx, text: str) -> tuple[Poly, ...]:
    return tuple(_parse_poly(ctx, part) for part in text.split(";"))


class UsageError(Exception):
    pass


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    _write(args, (json.dumps(payload, indent=2) if args.json
                  else "\n".join(text_lines)) + "\n")


def _write(args, text: str) -> None:
    """Write text to the --out file, or to standard output without one;
    UsageError if the file cannot be written."""
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _cmd_info(args) -> int:
    regime = make_regime(args.q, args.ell)
    theo = theoretical_distribution(regime)
    payload = {
        "regime": regime.to_json_dict(),
        "base_modulus": ",".join(str(c) for c in regime.base.modulus),
        "base_generator": regime.base.generator,
        "ext_generator": regime.ext.generator,
        "twist_exponents": list(regime.v_exps),
        "theoretical": theo.to_json_list(),
    }
    lines = [
        f"regime: q={regime.q}, ell={regime.ell}, n_q={regime.n_q} "
        f"(base F_{regime.base.order}, extension F_{regime.ext.order})",
        f"base modulus: {payload['base_modulus']}",
        f"extension modulus: {payload['regime']['modulus']}",
        f"twist exponents v_j = q**(1-j) mod ell: {payload['twist_exponents']}",
        "limit law P(N = n):",
    ]
    for row in payload["theoretical"]:
        lines.append(f"  N={row['N']:>3}: {row['num']}/{row['den']}")
    _emit(args, payload, lines)
    return 0


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise UsageError(f"--limit {args.limit} is negative")
    # the budgets come before the fields, in the order the run meets them:
    # the count's table, and for a listing the enumeration cap and the sieve
    # of every degree class, all before the first tuple
    n_q, D = check_regime(args.q, args.ell)[2], args.degree
    if D >= 0:  # else count_tuples names the fault
        if not D % n_q:
            check_stratum_budget(n_q, D)
        if not args.count_only:
            check_enum_budget(D)
            if not D % n_q:
                for d in range(n_q, D + 1, n_q):
                    check_sieve_budget(args.q, d)
    regime = make_regime(args.q, args.ell)
    total = count_tuples(regime, args.degree)
    shown: list[str] = []
    if not args.count_only:
        stream = enumerate_tuples(regime, args.degree)
        for i, fs in enumerate(stream):
            if args.limit is not None and i >= args.limit:
                break
            shown.append(";".join(str(f) for f in fs))
    payload = {
        "regime": regime.to_json_dict(),
        "degree": args.degree,
        "count": total,
        "tuples": shown,
    }
    lines = [f"degree {args.degree}: {total} branch tuples"] + shown
    _emit(args, payload, lines)
    return 0


def _cmd_count_points(args) -> int:
    regime = make_regime(args.q, args.ell)
    fs = _parse_tuple(regime.base, args.tuple)
    b = regime.ext.elem(args.b)
    # each class and fiber below is checked against the model's and the scan's
    model, classes = check_cover(CoverParams(regime, fs, b), args.labeling)
    rows = [{"x": _point_label(x), "class": e, "fiber": regime.ell if e == 0 else 0}
            for x, e in zip(projective_points(regime), classes)]
    total = sum(row["fiber"] for row in rows)
    payload = {
        "regime": regime.to_json_dict(),
        "tuple": args.tuple,
        "b": args.b,
        "labeling": args.labeling,
        "twisted": str(model.f_v0),
        "fibers": rows,
        "total": total,
        "oracle_total": total,
    }
    lines = [
        f"tuple {args.tuple} with b={args.b} over q={args.q}, ell={args.ell}",
        f"twisted polynomial: {payload['twisted']}",
    ]
    for row in rows:
        lines.append(f"  x={row['x']:>4}: class {row['class']}, fiber {row['fiber']}")
    lines.append(f"total points: {total} (oracle agrees: {total})")
    _emit(args, payload, lines)
    return 0


def _cmd_lseries(args) -> int:
    from .lseries import CHECK_EXTRA, _check_transfer, l_polynomial, root_magnitudes

    # the transfer's budget comes before the fields: a refusal builds none
    n_q = check_regime(args.q, args.ell)[2]
    literals = [int(s.strip()) for s in args.points.split(",")]
    w = [int(s.strip()) for s in args.w.split(",")]
    if any(wi % args.ell for wi in w) and len(w) == len(literals):
        # else l_polynomial names the fault
        _check_transfer(args.q ** n_q, w, args.ell, CHECK_EXTRA)
    regime = make_regime(args.q, args.ell)
    points = [regime.base.elem(x) for x in literals]
    coeffs = l_polynomial(regime, points, w)
    mags = root_magnitudes(coeffs)
    payload = {
        "regime": regime.to_json_dict(),
        "points": [str(x) for x in points],
        "w": w,
        "coefficients": [list(c.coords) for c in coeffs],
        "root_magnitudes": mags,
    }
    lines = [
        f"character at points {payload['points']} with weights {w}",
        f"polynomial coefficients (basis 1, zeta, ..., zeta**{args.ell - 2}): "
        + "; ".join(str(list(c.coords)) for c in coeffs),
        f"zero magnitudes: {mags}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_ensemble(args) -> int:
    if args.json and args.format == "csv":
        raise UsageError("--json asks for JSON and --format csv for CSV: give one")
    if args.mode == "exhaustive" or args.samples > 0:  # else the run names the fault
        check_ensemble_budget(args.q, args.ell, args.genus, args.mode)  # builds no field
    regime = make_regime(args.q, args.ell)
    if args.mode == "exhaustive":
        report = exhaustive_distribution(regime, args.genus, args.labeling)
    else:
        report = monte_carlo_distribution(regime, args.genus, args.samples,
                                          args.seed, args.labeling)
    if args.format == "csv":
        _write(args, report.to_csv())
    else:
        _write(args, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 0


def _cmd_verify(args) -> int:
    results = run_checks(args.q, args.ell, max_D=args.max_degree)
    payload = {
        "q": args.q,
        "ell": args.ell,
        "max_degree": args.max_degree,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"CHECK {r.name}: {status} — {r.detail}")
    ok = all(r.passed for r in results)
    lines.append(f"verify: {'all checks passed' if ok else 'FAILURES PRESENT'}")
    _emit(args, payload, lines)
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellcover",
        description="Prime-order cyclic covers of the projective line in the "
                    "non-Kummer regime: enumeration, point counts, character "
                    "series, and point-count statistics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_regime_args(p):
        p.add_argument("--q", type=int, required=True,
                       help="base field size (prime power)")
        p.add_argument("--ell", type=int, required=True,
                       help="prime cover order")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--out", help="write output to this file")

    p_info = sub.add_parser("info", help="describe a regime and its limit law")
    add_regime_args(p_info)
    p_info.set_defaults(fn=_cmd_info)

    p_enum = sub.add_parser("enumerate", help="list branch tuples of a degree")
    add_regime_args(p_enum)
    p_enum.add_argument("--degree", type=int, required=True)
    p_enum.add_argument("--limit", type=int, default=None,
                        help="print at most this many tuples")
    p_enum.add_argument("--count-only", action="store_true")
    p_enum.set_defaults(fn=_cmd_enumerate)

    p_count = sub.add_parser("count-points",
                             help="count rational points of one cover")
    add_regime_args(p_count)
    p_count.add_argument("--tuple", required=True,
                         help="branch tuple literal, e.g. '1,1,1;1'")
    p_count.add_argument("--b", type=int, default=1,
                         help="twisting unit literal in the extension field")
    p_count.add_argument("--labeling", choices=LABELINGS,
                         default="least")
    p_count.set_defaults(fn=_cmd_count_points)

    p_l = sub.add_parser("lseries", help="character sums over monic polynomials")
    add_regime_args(p_l)
    p_l.add_argument("--points", required=True,
                     help="comma-separated base-field literals")
    p_l.add_argument("--w", required=True,
                     help="comma-separated integer weights")
    p_l.set_defaults(fn=_cmd_lseries)

    p_ens = sub.add_parser("ensemble",
                           help="measure the point-count distribution at a genus")
    add_regime_args(p_ens)
    p_ens.add_argument("--genus", type=int, required=True)
    p_ens.add_argument("--mode", choices=["exhaustive", "monte-carlo"],
                       default="exhaustive")
    p_ens.add_argument("--samples", type=int, default=1000)
    p_ens.add_argument("--seed", type=int, default=0)
    p_ens.add_argument("--labeling", choices=LABELINGS,
                       default="least")
    p_ens.add_argument("--format", choices=["json", "csv"], default="json")
    p_ens.set_defaults(fn=_cmd_ensemble)

    p_ver = sub.add_parser("verify", help="run the consistency battery")
    add_regime_args(p_ver)
    p_ver.add_argument("--max-degree", type=int, default=4)
    p_ver.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckMismatch as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except EllcoverError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
