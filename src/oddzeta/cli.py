"""Command-line interface: compute, verify, export, and diagnose.

Subcommands:

* ``constant <name> --digits D``  print a constant, correctly rounded
* ``coeffs --k K --n N``          dump exact series coefficients (csv/json)
* ``verify [--name X] --digits D`` compare against the independent oracle
* ``ratio --k K --n N``           term-ratio convergence diagnostic
* ``identity --id S1|S2 ...``     Fourier-identity residual

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
limit; a reader that closes stdout early ends the run with 0.  Data goes to
stdout, diagnostics to stderr; plain and csv output is byte-deterministic,
timing appears only in the JSON ``elapsed_ms`` field.
"""

from __future__ import annotations

import argparse
import os
import sys

from .coeffs import build_table
from .constants import compute_constant
from .errors import ResourceLimitError, TailRatioError
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


def _write(args: argparse.Namespace, out, rows, columns, line: str, doc) -> None:
    """Print ``rows``, dicts of ints and strings, in the one format ``args.fmt`` names.

    plain fills ``line`` from each row; csv prints the ``columns`` header, then each
    row's values under it; json prints the dict ``doc()`` returns under the schema
    header.  A number becomes text only in the format that prints it.
    """
    if args.fmt == "json":
        import json

        head = {"schema": JSON_SCHEMA_VERSION, "command": args.command}
        print(json.dumps({**head, **doc()}, separators=(",", ":")), file=out)
        return
    if args.fmt == "csv":
        print(",".join(columns), file=out)
        line = ",".join(f"{{{c}}}" for c in columns)
    for row in rows:
        print(line.format_map(row), file=out)


def _cmd_constant(args: argparse.Namespace, out) -> int:
    value = compute_constant(args.name, args.digits)
    row = {"name": value.name, "digits": args.digits, "value": value.value.to_decimal()}
    extra = {"method": value.method, "k": value.k, "terms_used": value.terms_used}
    _write(args, out, [row], ("name", "digits", "value"), "{value}", lambda: {**row, **extra})
    return EXIT_OK


def _cmd_coeffs(args: argparse.Namespace, out) -> int:
    rows = [
        {"k": k, "n": n, "numerator": v.numerator, "denominator": v.denominator}
        for k, column in enumerate(build_table(args.k, args.n), 1)
        for n, v in enumerate(column, 1)
    ]
    # exact E_n(k) pass Python's default int->str digit limit near n = 780
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _write(
            args,
            out,
            rows,
            ("k", "n", "numerator", "denominator"),
            "k={k} n={n} E={numerator}/{denominator}",
            lambda: {"entries": [
                {"k": r["k"], "n": r["n"], "value": f"{r['numerator']}/{r['denominator']}"}
                for r in rows
            ]},
        )
    finally:
        sys.set_int_max_str_digits(limit)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, out) -> int:
    from . import oracle

    names = [args.name] if args.name else oracle.default_battery()
    rows = [oracle.verify(name, args.digits).to_json_dict() for name in names]
    all_ok = all(r["matched_digits"] >= args.digits for r in rows)
    _write(
        args,
        out,
        rows,
        ("name", "computed", "reference", "matched_digits", "terms_used"),
        "{name}: matched_digits={matched_digits} terms_used={terms_used} "
        "computed={computed} reference={reference}",
        lambda: {"digits": args.digits, "all_passed": all_ok, "reports": rows},
    )
    if args.fmt == "plain":
        print(f"result: {'ok' if all_ok else 'FAILED'} (required {args.digits} digits)", file=out)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def _cmd_ratio(args: argparse.Namespace, out) -> int:
    rows = [{"n": n, "ratio": v.to_decimal()} for n, v in term_ratio_sequence(args.k, args.n, 12)]
    _write(
        args,
        out,
        rows,
        ("n", "ratio"),
        "n={n} ratio={ratio}",
        lambda: {"k": args.k, "ratios": [{"n": r["n"], "value": r["ratio"]} for r in rows]},
    )
    return EXIT_OK


def _cmd_identity(args: argparse.Namespace, out) -> int:
    from . import identities

    result = identities.check_identity(
        args.identity_id, args.k, args.theta, args.fourier_terms, args.series_terms, args.digits
    )
    if args.fmt == "csv":  # the sweep's own CSV, which scripts/residual_sweep.py prints too
        out.write(identities.sweep_to_csv([result]))
        return EXIT_OK
    row = {
        "identity": result.identity,
        "k": result.k,
        "theta": result.theta_token,
        "fourier_terms": result.fourier_terms,
        "series_terms": result.series_terms,
        "residual": result.residual.to_sci(6),
    }
    line = " ".join(f"{key}={{{key}}}" for key in row)
    _write(args, out, [row], (), line, lambda: row)
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
        return _COMMANDS[args.command](args, out)
    except (ValueError, TypeError) as exc:  # UnknownConstantError is a ValueError
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except (ResourceLimitError, TailRatioError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_RESOURCE


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early (``| head``): end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    main()
