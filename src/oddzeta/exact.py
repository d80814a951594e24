"""Exact integer tangent numbers, tangent series coefficients and Bernoulli numbers.

Every coefficient downstream is a rational function of the tangent numbers
T_n (tan x = sum_n T_n x^(2n-1) / (2n-1)!).  They are integers and are
generated with integer arithmetic only, so equality assertions are exact and
no rounding enters before the final fixed-point evaluation stage.
"""

from __future__ import annotations

import operator
import os
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from .errors import ResourceLimitError

__all__ = ["CACHE_DIR_ENV", "bernoulli", "cache_dir", "tangent_coeff", "tangent_number"]

#: Environment variable naming the directory that holds the on-disk tangent-number cache.
CACHE_DIR_ENV = "ODDZETA_CACHE_DIR"
CACHE_FILENAME = "tangent.tsv"
#: Largest tangent index served; B_2n needs T_n, so this caps Bernoulli indices at 10 000.
MAX_TANGENT_INDEX = 5_000
# modulus of the consistency check on cached values; prime, and above every (2n-1) served
_CHECK_PRIME = (1 << 61) - 1

# T_1, T_2, ... shared by the whole process; it only grows, stored entries never change
_tangents: list[int] = []
_cache_dir: str | None = None


def _tangent_numbers(count: int) -> list[int]:
    """[T_1, ..., T_count] by Brent & Harvey's integer TangentNumbers algorithm.

    O(count^2) additions and multiplications by small integers (R. P. Brent and
    D. Harvey, *Fast computation of Bernoulli, Tangent and Secant numbers*,
    arXiv:1108.0286).  The algorithm is not incremental: a longer list is
    computed from scratch.
    """
    t = [0] * (count + 1)
    t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


@contextmanager
def cache_dir(directory: str | None):
    """Keep the disk cache in ``directory`` inside the block, in place of ``$ODDZETA_CACHE_DIR``.

    ``None`` leaves the environment variable in charge.  The previous setting
    is restored on exit, so the choice never outlives the block.
    """
    global _cache_dir
    saved, _cache_dir = _cache_dir, directory
    try:
        yield
    finally:
        _cache_dir = saved


def _cache_path() -> str | None:
    directory = _cache_dir if _cache_dir is not None else os.environ.get(CACHE_DIR_ENV)
    return os.path.join(directory, CACHE_FILENAME) if directory else None


def _load_cache(path: str) -> list[int]:
    """Longest clean, checked prefix T_1, T_2, ... of a cache file; [] if it cannot be read.

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
            for n, line in enumerate(fh, 1):
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
    """T_n from the shared list, growing it (from the disk cache if that holds enough)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_TANGENT_INDEX:
        raise ResourceLimitError(
            f"tangent index {n} exceeds configured maximum {MAX_TANGENT_INDEX}"
        )
    have = len(_tangents)
    if n > have:
        path = _cache_path()
        values = _load_cache(path) if path else []
        if len(values) < n or values[:have] != _tangents:
            # grow by at most a quarter past the request: rising requests recompute
            # O(log n) times and the list never exceeds 5/4 of the largest request
            values = _tangent_numbers(min(max(n, have * 5 // 4), MAX_TANGENT_INDEX))
            if path:
                _save_cache(path, values)
        _tangents.extend(values[have:MAX_TANGENT_INDEX])
    return _tangents[n - 1]


def tangent_coeff(n: int) -> Fraction:
    """Maclaurin coefficient c_n = T_n / (2n-1)! of tan x = sum_{n>=1} c_n x^(2n-1)."""
    return Fraction(tangent_number(n), factorial(2 * n - 1))


def bernoulli(m: int) -> Fraction:
    """Exact B_m (convention B_1 = -1/2), from the tangent numbers.

    B_2n = (-1)^(n+1) * 2n * T_n / (4^n (4^n - 1)); odd indices above 1 vanish.
    """
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
