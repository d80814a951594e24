"""Exact integer tangent numbers and Bernoulli numbers.

Every coefficient downstream is a rational function of the tangent numbers
T_n (tan x = sum_n T_n x^(2n-1) / (2n-1)!).  They are integers and are
generated with integer arithmetic only, so equality assertions are exact and
no rounding enters before the final fixed-point evaluation stage.  The shared
list grows one index at a time, so no index is computed twice in a process.
"""

from __future__ import annotations

import operator
import os

from .errors import ResourceLimitError

__all__ = ["CACHE_DIR_ENV", "bernoulli", "tangent_number"]

#: Environment variable naming the directory that holds the on-disk tangent-number cache.
CACHE_DIR_ENV = "ODDZETA_CACHE_DIR"
CACHE_FILENAME = "tangent.tsv"
#: Largest tangent index served; B_2n needs T_n, so this caps Bernoulli indices at 10 000.
MAX_TANGENT_INDEX = 5_000
# modulus of the consistency check on cached values; prime, and above every (2n-1) served
_CHECK_PRIME = (1 << 61) - 1

# T_1, T_2, ... shared by the whole process; it only grows, stored entries never change
_tangents: list[int] = []
# s_1, ..., s_J of the last index J that _step computed, s_k = t_k[J] / (J-k)!;
# J <= len(_tangents), since a list seeded from the disk cache can run ahead of the step
_step_column: list[int] = []


def _step() -> int:
    """T_(J+1), from the column s_k = h_k / (J-k)! (k = 1..J) of the last computed index J.

    Brent & Harvey's TangentNumbers (R. P. Brent and D. Harvey, *Fast
    computation of Bernoulli, Tangent and Secant numbers*, arXiv:1108.0286)
    sets t[j] = (j-1)! and then runs passes k = 2..N of
    t[j] = (j-k) t[j-1] + (j-k+2) t[j] over j = k..N.  Position J+1 after pass k
    reads only position J after pass k and itself after pass k-1, so with
    h_k = t_k[J], g_1 = J h_1 and g_k = (J+1-k) h_k + (J+3-k) g_(k-1) for k = 2..J,
    the last pass gives T_(J+1) = 2 g_J, and [g_1, ..., g_J, T_(J+1)] is the column
    of J+1.  Every h_k is divisible by (J-k)!, so the column is kept scaled by
    factorials: with h_k = (J-k)! s_k and g_k = (J+1-k)! s'_k, s'_1 = s_1,
    s'_k = s_k + (J+3-k)(J+2-k) s'_(k-1) and T_(J+1) = 2 s'_J, the new last entry.
    That is one multiplication by a small integer per entry.
    """
    s = _step_column
    j = len(s)
    if not j:
        s.append(1)  # T_1 = 1 starts the column
        return 1
    g = s[0]
    for i in range(1, j):
        g = s[i] = s[i] + (j + 2 - i) * (j + 1 - i) * g
    s.append(2 * g)
    return s[j]


def _cache_path() -> str | None:
    directory = os.environ.get(CACHE_DIR_ENV)
    return os.path.join(directory, CACHE_FILENAME) if directory else None


def _load_cache(path: str) -> list[int]:
    """Longest clean, checked prefix T_1, T_2, ... of a cache file, read no further than
    MAX_TANGENT_INDEX lines; [] if it cannot be read.

    Format: one ``n<TAB>hex(T_n)`` line per index, in increasing order of n.
    A line that is not in exactly that canonical form ends the prefix, and so
    does a value that fails tan' = 1 + tan^2 modulo the prime p = 2^61 - 1,
    a check that shares nothing with the generator: with
    u_n = T_n / (2n-1)! mod p it reads (2n-1) u_n = [n = 1] + sum_{i<n} u_i u_(n-i).
    """
    values: list[int] = []
    u: list[int] = []  # u_1, ..., u_(n-1)
    factorial_mod = 1  # (2n-1)! mod p
    try:
        with open(path, encoding="ascii") as fh:
            for n, line in zip(range(1, MAX_TANGENT_INDEX + 1), fh):
                value = int(line.partition("\t")[2], 16)
                if value < 1 or line != f"{n}\t{value:x}\n":
                    break
                if n > 1:
                    factorial_mod = factorial_mod * (2 * n - 2) * (2 * n - 1) % _CHECK_PRIME
                u_n = value % _CHECK_PRIME * pow(factorial_mod, -1, _CHECK_PRIME) % _CHECK_PRIME
                convolution = (n == 1) + sum(map(operator.mul, u, reversed(u)))
                if ((2 * n - 1) * u_n - convolution) % _CHECK_PRIME:
                    break
                u.append(u_n)
                values.append(value)
    except (OSError, ValueError):
        pass  # keep whatever prefix parsed cleanly
    return values


def _save_cache(path: str, values: list[int]) -> None:
    """Atomically rewrite the cache file; a failed write leaves no temp file behind."""
    import tempfile  # imported on use: only a run with a cache directory writes one

    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.writelines(f"{n}\t{value:x}\n" for n, value in enumerate(values, 1))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass  # the cache only saves time; an unwritable directory costs a recompute


def tangent_number(n: int) -> int:
    """T_n from the shared list, stepped up to index n.

    The disk cache is read only to seed an empty list: reading and checking
    it costs several times what writing it does.  Every growth of the list
    rewrites the file.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_TANGENT_INDEX:
        raise ResourceLimitError(
            f"tangent index {n} exceeds configured maximum {MAX_TANGENT_INDEX}"
        )
    if n <= len(_tangents):
        return _tangents[n - 1]
    path = _cache_path()
    if path and not _tangents:
        _tangents.extend(_load_cache(path))
        if n <= len(_tangents):
            return _tangents[n - 1]
    while len(_tangents) < n:
        value = _step()
        if len(_step_column) > len(_tangents):  # past a seeded list
            _tangents.append(value)
    if path:
        _save_cache(path, _tangents)
    return _tangents[n - 1]


def bernoulli(m: int) -> Fraction:
    """Exact B_m (convention B_1 = -1/2), from the tangent numbers.

    B_2n = (-1)^(n+1) * 2n * T_n / (4^n (4^n - 1)); odd indices above 1 vanish.
    """
    from fractions import Fraction  # imported on use: no `constant` command builds one

    if m < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if m > 2 * MAX_TANGENT_INDEX:
        raise ResourceLimitError(
            f"Bernoulli index {m} exceeds configured maximum {2 * MAX_TANGENT_INDEX}"
        )
    if m < 2:
        return Fraction(1) if m == 0 else Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    four = 1 << m  # 4^n with n = m/2
    return Fraction((-1) ** (m // 2 + 1) * m * tangent_number(m // 2), four * (four - 1))
