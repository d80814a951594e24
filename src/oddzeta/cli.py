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

``main`` flushes both streams and then ends the process at once, without the
interpreter's teardown; a library caller uses ``run``, which only returns.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .coeffs import build_table
from .constants import compute_constant
from .errors import ResourceLimitError
from .highprec import term_ratio_sequence

__all__ = ["main", "run"]

JSON_SCHEMA_VERSION = 1
DIGITS_CEILING = 1000

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# identities.IDENTITY_TAGS, spelled out so that parsing argv does not import identities
IDENTITY_CHOICES = ("S1", "S2")


def _write(args: SimpleNamespace, out, rows, columns, line: str, doc) -> None:
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


def _cmd_constant(args: SimpleNamespace, out) -> int:
    value = compute_constant(args.name, args.digits)
    row = {"name": value.name, "digits": args.digits, "value": value.value.to_decimal()}
    extra = {"method": value.method, "k": value.k, "terms_used": value.terms_used}
    _write(args, out, [row], ("name", "digits", "value"), "{value}", lambda: {**row, **extra})
    return EXIT_OK


def _cmd_coeffs(args: SimpleNamespace, out) -> int:
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


def _cmd_verify(args: SimpleNamespace, out) -> int:
    from . import oracle

    names = [args.name] if args.name is not None else oracle.default_battery()
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


def _cmd_ratio(args: SimpleNamespace, out) -> int:
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


def _cmd_identity(args: SimpleNamespace, out) -> int:
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


_FORMATS = ("plain", "csv", "json")
_REQUIRED = object()

# command -> (handler, summary, positionals, options).  An option is (flag, dest,
# converter, default): the converter is int, str or a tuple of choices, and the
# default _REQUIRED makes the option required.  Every command also takes -h/--help.
COMMANDS = {
    "constant": (_cmd_constant, "print one constant", ("name",), (
        ("--digits", "digits", int, 30),
        ("--format", "fmt", _FORMATS, "plain"),
    )),
    "coeffs": (_cmd_coeffs, "dump exact coefficients E_n(k), k and n from 1", (), (
        ("--k", "k", int, _REQUIRED),
        ("--n", "n", int, _REQUIRED),
        ("--format", "fmt", ("csv", "json", "plain"), "csv"),
    )),
    "verify": (_cmd_verify, "compare one constant, or the battery, against the oracle", (), (
        ("--name", "name", str, None),
        ("--digits", "digits", int, 30),
        ("--format", "fmt", _FORMATS, "plain"),
    )),
    "ratio": (_cmd_ratio, "term-ratio diagnostic |E_(n+1)/E_n| (pi/2)^2 for n = 1..N", (), (
        ("--k", "k", int, _REQUIRED),
        ("--n", "n", int, _REQUIRED),
        ("--format", "fmt", _FORMATS, "plain"),
    )),
    "identity": (_cmd_identity, "Fourier-identity residual at theta in (0, pi): 1, 2/3, pi/2", (), (
        ("--id", "identity_id", IDENTITY_CHOICES, _REQUIRED),
        ("--k", "k", int, _REQUIRED),
        ("--theta", "theta", str, _REQUIRED),
        ("--terms", "fourier_terms", int, 10_000),
        ("--series-terms", "series_terms", int, 80),
        ("--digits", "digits", int, 30),
        ("--format", "fmt", _FORMATS, "plain"),
    )),
}

_ABOUT = (
    "Alternating zeta-family constants (Catalan, Apery, odd zeta values) from\n"
    "exact-rational series in powers of pi/2, with oracle verification."
)


class UsageError(ValueError):
    """A command line that names no runnable command: exit 2 before any work."""


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: oddzeta [-h] {{{','.join(COMMANDS)}}} ..."
    _, _, positionals, options = COMMANDS[command]
    words = [f"usage: oddzeta {command} [-h]", *(f"<{p}>" for p in positionals)]
    for flag, _, convert, default in options:
        meta = "|".join(convert) if isinstance(convert, tuple) else convert.__name__.upper()
        words.append(f"{flag} {meta}" if default is _REQUIRED else f"[{flag} {meta}]")
    return " ".join(words)


def _help(command: str | None) -> str:
    """The synopsis ``-h`` prints, from the command table."""
    if command is None:
        width = max(map(len, COMMANDS))
        lines = [f"  {name:<{width}}  {entry[1]}" for name, entry in COMMANDS.items()]
        return "\n".join([_usage(None), "", _ABOUT, "", "commands:", *lines])
    _, summary, _, options = COMMANDS[command]
    defaults = [f"{flag} {v}" for flag, _, _, v in options if v not in (None, _REQUIRED)]
    return "\n".join([_usage(command), "", summary, f"defaults: {', '.join(defaults)}"])


def _is_option(token: str) -> bool:
    """True where ``token`` names an option, as argparse reads it: a leading "-" that is
    not the whole token, not followed by a space and not a negative number (-5, -.5 or
    -1.5 in any decimal digits, argparse's ``-\\d+|-\\d*\\.\\d+``), which an option
    may take as its value."""
    whole, point, fraction = token[1:].partition(".")
    number = (whole + fraction).isdecimal() and (fraction or not point)
    return token.startswith("-") and token != "-" and not number and " " not in token


def _fail(command: str | None, message: str) -> UsageError:
    return UsageError(f"oddzeta{f' {command}' if command else ''}: {message}\n{_usage(command)}")


def _flag(token: str, flags, command: str | None) -> str | None:
    """The flag an option token names by itself or by a unique prefix, "--help" for
    any -h..., or None for an unknown option; an ambiguous prefix raises UsageError."""
    if not token.startswith("--"):
        return "--help" if token.startswith("-h") else None
    name = token.partition("=")[0]
    found = [name] if name in flags else [f for f in flags if f.startswith(name)]
    if len(found) > 1:
        raise _fail(command, f"ambiguous option {name}: could match {', '.join(found)}")
    return found[0] if found else None


def _help_for(token: str, command: str | None) -> str:
    if token != "-h" and (not token.startswith("--") or "=" in token):
        raise _fail(command, f"-h/--help takes no value, got {token}")
    return _help(command)


def _parse(argv) -> SimpleNamespace | str:
    """The namespace ``argv`` names, or the help text that one of its -h/--help asks for.

    Options come before or after the positional; ``--opt=value`` and a unique prefix of
    ``--opt`` work, and the last repeat of an option wins.  After ``--`` every token is
    a positional.  The errors come as argparse's do: an ambiguous prefix before anything
    else, a malformed value where it is read, and an unknown option, a surplus or
    missing positional or a missing required option only after the whole line, so that
    a -h read first still prints help.
    """
    argv, command, extras = list(argv), None, []
    while argv and command is None:  # up to the command, only -h/--help is known
        token = argv.pop(0)
        if token == "--" or not _is_option(token):
            if token not in COMMANDS:
                raise _fail(None, f"unknown command {token!r}; choose from {', '.join(COMMANDS)}")
            command = token
        elif _flag(token, ("--help",), None):
            return _help_for(token, None)
        else:
            extras.append(token)
    if command is None:
        raise _fail(None, "a command is required")

    _, _, positionals, options = COMMANDS[command]
    flags = {flag: (dest, convert) for flag, dest, convert, _ in options}
    flags["--help"] = None
    for token in argv[: argv.index("--")] if "--" in argv else argv:
        if _is_option(token):
            _flag(token, flags, command)
    values = {dest: default for _, dest, _, default in options}
    given, filled = [], False  # filled: the last token was read as a positional
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            rest = list(tokens)
            # it goes with the positional it stands next to, else it is surplus
            if not (filled or (rest and len(given) < len(positionals))):
                extras.append(token)
            given += rest
            break
        if not _is_option(token):
            given.append(token)
            filled = len(given) <= len(positionals)
            continue
        filled = False
        flag = _flag(token, flags, command)
        if flag is None:
            extras.append(token)
            continue
        if flag == "--help":
            return _help_for(token, command)
        _, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, None)
            if value is None or _is_option(value):
                raise _fail(command, f"{flag} expects a value")
        dest, convert = flags[flag]
        if isinstance(convert, tuple):
            if value not in convert:
                raise _fail(command, f"{flag} must be one of {', '.join(convert)}, got {value!r}")
        elif convert is int:
            try:
                value = int(value)
            except ValueError:
                raise _fail(command, f"{flag} expects an integer, got {value!r}") from None
        values[dest] = value
    extras += given[len(positionals):]
    missing = [f"<{p}>" for p in positionals[len(given):]]
    missing += [flag for flag, dest, _, _ in options if values[dest] is _REQUIRED]
    if missing:
        raise _fail(command, f"missing {', '.join(missing)}")
    if extras:
        raise _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **dict(zip(positionals, given)), **values)


def run(argv, out=None, err=None) -> int:
    """Parse and execute; returns the process exit code.

    Help goes to ``out``; usage errors, like every other error, go to ``err``.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse(argv)
        if isinstance(args, str):
            print(args, file=out)
            return EXIT_OK
        digits = getattr(args, "digits", 30)
        if not 1 <= digits <= DIGITS_CEILING:
            raise ResourceLimitError(f"digits must lie in 1..{DIGITS_CEILING}, got {digits}")
        return COMMANDS[args.command][0](args, out)
    except (ValueError, TypeError) as exc:  # UsageError and UnknownConstantError are ValueErrors
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_RESOURCE


def main() -> None:
    """Run ``sys.argv``, flush stdout and stderr, and end the process with ``os._exit``.

    The teardown it skips frees memory the exit returns anyway; every file the run
    writes is closed before ``run`` returns.  An exception that escapes ``run`` still
    takes the normal exit, with its traceback and exit code 1.
    """
    # a stream closed before the start (``>&-``) is None: write to os.devnull instead
    out, err = (s if s is not None else open(os.devnull, "w") for s in (sys.stdout, sys.stderr))
    try:
        code = run(sys.argv[1:], out, err)
        out.flush()
    except BrokenPipeError:  # the reader closed stdout early (``| head``): end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        code = EXIT_OK
    err.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
