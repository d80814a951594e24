"""Command-line interface: compute, verify, export, and diagnose.

Subcommands:

* ``constant <name> --digits D``  print a constant, correctly rounded
* ``coeffs --k K --n N``          dump exact series coefficients (csv/json)
* ``verify [--name X] --digits D`` compare against the independent oracle
* ``ratio --k K --n N``           term-ratio convergence diagnostic
* ``identity --id S1|S2 ...``     Fourier-identity residual

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
limit.  Data goes to stdout, diagnostics to stderr; plain and csv output is
byte-deterministic, timing appears only in the JSON ``elapsed_ms`` field.
"""

from __future__ import annotations

import argparse
import sys

from .coeffs import build_table, table_to_csv, table_to_json
from .constants import compute_constant, tangent_index
from .errors import ResourceLimitError, TailRatioError, UnknownConstantError
from .exact import MAX_TANGENT_INDEX, cache_dir, tangent_number
from .highprec import term_ratio_sequence

__all__ = ["build_parser", "main", "run"]

JSON_SCHEMA_VERSION = 1
DIGITS_CEILING = 1000

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# identities.IDENTITY_TAGS, spelled out so that building the parser does not import identities
IDENTITY_CHOICES = ("S1", "S2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddzeta",
        description=(
            "Alternating zeta-family constants (Catalan, Apery, odd zeta values) "
            "from exact-rational series in powers of pi/2, with oracle verification."
        ),
    )
    parser.add_argument("--cache-dir", default=None, help="directory for the tangent number cache")
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constant", help="print one constant")
    p_const.add_argument("name")
    p_const.add_argument("--digits", type=int, default=30)
    p_const.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")

    p_coeffs = sub.add_parser("coeffs", help="dump exact coefficients E_n(k)")
    p_coeffs.add_argument("--k", type=int, required=True, help="largest series index k")
    p_coeffs.add_argument("--n", type=int, required=True, help="largest row index n")
    p_coeffs.add_argument("--format", dest="fmt", choices=("csv", "json", "plain"), default="csv")

    p_verify = sub.add_parser("verify", help="compare constants against the oracle")
    p_verify.add_argument("--name", default=None, help="single constant (default: battery)")
    p_verify.add_argument("--digits", type=int, default=30)
    p_verify.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")

    p_ratio = sub.add_parser("ratio", help="term-ratio diagnostic |E_(n+1)/E_n| (pi/2)^2")
    p_ratio.add_argument("--k", type=int, required=True)
    p_ratio.add_argument("--n", type=int, required=True, help="number of ratios to print")
    p_ratio.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")

    p_ident = sub.add_parser("identity", help="Fourier-identity residual")
    p_ident.add_argument("--id", dest="identity_id", choices=IDENTITY_CHOICES, required=True)
    p_ident.add_argument("--k", type=int, required=True)
    p_ident.add_argument("--theta", required=True, help='angle in (0, pi); accepts e.g. "1.0" or "pi/2"')
    p_ident.add_argument("--terms", dest="fourier_terms", type=int, default=10_000)
    p_ident.add_argument("--series-terms", dest="series_terms", type=int, default=80)
    p_ident.add_argument("--digits", type=int, default=30)
    p_ident.add_argument("--format", dest="fmt", choices=("plain", "csv", "json"), default="plain")
    return parser


def _json_doc(command: str, **fields) -> str:
    import json

    doc = {"schema": JSON_SCHEMA_VERSION, "command": command}
    doc.update(fields)
    return json.dumps(doc, separators=(",", ":"))


def _cmd_constant(args: argparse.Namespace, out) -> int:
    value = compute_constant(args.name, args.digits)
    if args.fmt == "plain":
        print(value.value.to_decimal(), file=out)
    elif args.fmt == "csv":
        print("name,digits,value", file=out)
        print(f"{value.name},{args.digits},{value.value.to_decimal()}", file=out)
    else:
        print(
            _json_doc(
                "constant",
                name=value.name,
                digits=args.digits,
                value=value.value.to_decimal(),
                method=value.method,
                k=value.k,
                terms_used=value.terms_used,
            ),
            file=out,
        )
    return EXIT_OK


def _cmd_coeffs(args: argparse.Namespace, out) -> int:
    table = build_table(args.k, args.n)
    # exact E_n(k) pass Python's default int->str digit limit near n = 780
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.fmt == "json":
            import json

            print(_json_doc("coeffs", entries=json.loads(table_to_json(table))), file=out)
        elif args.fmt == "plain":
            for k, column in enumerate(table, 1):
                for n, v in enumerate(column, 1):
                    print(f"k={k} n={n} E={v.numerator}/{v.denominator}", file=out)
        else:
            out.write(table_to_csv(table))
    finally:
        sys.set_int_max_str_digits(limit)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, out) -> int:
    from . import oracle

    names = [args.name] if args.name else oracle.default_battery()
    # one tangent build serves every constant the battery computes; an index past
    # the ceiling is left for the computation that reads it to report
    need = max(tangent_index(name, args.digits + oracle.VERIFY_EXTRA_DIGITS) for name in names)
    if need <= MAX_TANGENT_INDEX:
        tangent_number(need)
    reports = [oracle.verify(name, args.digits) for name in names]
    all_ok = all(r.matched_digits >= args.digits for r in reports)
    if args.fmt == "plain":
        for r in reports:
            print(
                f"{r.name}: matched_digits={r.matched_digits} terms_used={r.terms_used} "
                f"computed={r.computed} reference={r.reference}",
                file=out,
            )
        print(f"result: {'ok' if all_ok else 'FAILED'} (required {args.digits} digits)", file=out)
    elif args.fmt == "csv":
        print("name,computed,reference,matched_digits,terms_used", file=out)
        for r in reports:
            print(
                f"{r.name},{r.computed},{r.reference},{r.matched_digits},{r.terms_used}",
                file=out,
            )
    else:
        print(
            _json_doc(
                "verify",
                digits=args.digits,
                all_passed=all_ok,
                reports=[r.to_json_dict() for r in reports],
            ),
            file=out,
        )
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def _cmd_ratio(args: argparse.Namespace, out) -> int:
    seq = term_ratio_sequence(args.k, args.n, digits=12)
    if args.fmt == "plain":
        for n, value in seq:
            print(f"n={n} ratio={value.to_decimal()}", file=out)
    elif args.fmt == "csv":
        print("n,ratio", file=out)
        for n, value in seq:
            print(f"{n},{value.to_decimal()}", file=out)
    else:
        print(
            _json_doc(
                "ratio",
                k=args.k,
                ratios=[{"n": n, "value": v.to_decimal()} for n, v in seq],
            ),
            file=out,
        )
    return EXIT_OK


def _cmd_identity(args: argparse.Namespace, out) -> int:
    from . import identities

    result = identities.check_identity(
        args.identity_id,
        args.k,
        args.theta,
        args.fourier_terms,
        args.series_terms,
        digits=args.digits,
    )
    if args.fmt == "plain":
        print(
            f"identity={result.identity} k={result.k} theta={result.theta_token} "
            f"fourier_terms={result.fourier_terms} series_terms={result.series_terms} "
            f"residual={result.residual.to_sci(6)}",
            file=out,
        )
    elif args.fmt == "csv":
        out.write(identities.sweep_to_csv([result]))
    else:
        print(
            _json_doc(
                "identity",
                identity=result.identity,
                k=result.k,
                theta=result.theta_token,
                fourier_terms=result.fourier_terms,
                series_terms=result.series_terms,
                residual=result.residual.to_sci(6),
            ),
            file=out,
        )
    return EXIT_OK


_COMMANDS = {
    "constant": _cmd_constant,
    "coeffs": _cmd_coeffs,
    "verify": _cmd_verify,
    "ratio": _cmd_ratio,
    "identity": _cmd_identity,
}


def run(argv, out=None, err=None) -> int:
    """Parse and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        digits = getattr(args, "digits", 30)
        if not 1 <= digits <= DIGITS_CEILING:
            raise ResourceLimitError(f"digits must lie in 1..{DIGITS_CEILING}, got {digits}")
        with cache_dir(args.cache_dir):
            return _COMMANDS[args.command](args, out)
    except UnknownConstantError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except (ResourceLimitError, TailRatioError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_RESOURCE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
