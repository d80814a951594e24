"""Numerical checks of the alternating Fourier identities behind the series.

Two identity shapes are checked at arbitrary angles 0 < theta < pi:

* ``S1(k)``: sum_m (-1)^(m+1) sin(m theta) / m^(2k) equals a truncated
  ladder series in theta plus a polynomial with eta-value coefficients.
* ``S2(k)``: the analogous cosine sum with exponent 2k+1.

The Fourier side converges slowly and is evaluated with a smoothed partial
sum (average of the last two partial sums) of the requested series only.
Where it is cheaper, the M-term sum is summed by parts p times: that leaves p
boundary terms in powers of c = (1 + i tan(theta/2)) / 2, with u^M by binary
powering, and a sum whose terms fall like m^-(e+p), cut after a few hundred
terms under a bound checked in integers.  A call then costs O(cut + p^2 + log M)
operations instead of M.  Near pi, where |c| = 1 / (2 cos(theta/2)) grows, at
high digits, where p grows, and for small M, the direct loop runs instead: at
a generic theta its sin or cos(m theta) come from the three-term recurrence in
binary fixed point, run from m = 0 in one block, whose drift bound is quadratic
in the term count and holds for any count, so guard bits sized from that count
keep it a few ulp without re-anchoring; at pi/2 only the odd (S1) or even (S2)
m are summed.  The ladder side converges geometrically and is held at full
working precision, so the residual tracks the Fourier truncation error and
must shrink as the term count grows.
"""

from __future__ import annotations

from collections import namedtuple
from math import ceil, comb, cos, factorial, gcd, isqrt, lgamma, log, log2

from .coeffs import d_denominator, e_column
from .errors import ResourceLimitError
from .highprec import (
    Ball,
    _ceil_div,
    _chudnovsky,
    _divround,
    _product_error,
    _series_terms,
    _working_bits,
    _working_scale,
    compute_pi,
    sum_series,
)

__all__ = [
    "IDENTITY_TAGS",
    "IdentityResidual",
    "canonical_theta_token",
    "check_identity",
    "fourier_lhs",
    "residual_sweep",
    "rhs_eval",
    "sweep_to_csv",
    "tan_half_residual",
]

IDENTITY_TAGS = ("S1", "S2")

# safe strict lower bound for pi, as (p, q); rational theta must stay below it
_PI_LOWER = (314159265, 10**8)
# most digits a string angle may have, |exponent| counted as digits: its numerator and
# denominator then stay printable, since Python prints at most 4300 digits of an integer
MAX_THETA_DIGITS = 4000
# most Fourier terms a check may sum: the direct loop, which runs near pi and at high
# digits, takes about 21 s for 10^6 terms at 1000 digits
MAX_FOURIER_TERMS = 1_000_000
# the work of summation by parts, in generic direct-loop terms at 30 digits: per kept
# term at the direct loop's precision, fixed, per order p and per p^2; and the work
# of one m of the pi/2 direct loop
_ABEL_TERM_COST = 2.5
_ABEL_FIXED_COST = 500
_ABEL_ORDER_COST = 25
_ABEL_SQUARE_COST = 0.5
_HALF_PI_TERM_COST = 0.33


def canonical_theta_token(theta) -> str:
    """Deterministic token for an angle: ``pi/<q>``, or the reduced ``p/q`` or ``p``
    that ``str(Fraction(theta))`` gives; a string is read in integers."""
    if not isinstance(theta, str):
        from fractions import Fraction  # imported on use: the command line passes strings

        if not isinstance(theta, (Fraction, int, float)):
            raise TypeError(f"unsupported theta specification: {theta!r}")
        try:
            return str(Fraction(theta))
        except (ZeroDivisionError, OverflowError):  # an infinite float
            raise ValueError(f"theta={theta} is not a finite number") from None
    theta = theta.strip().replace(" ", "")
    if theta.startswith("pi/"):
        try:
            q = int(theta[3:])
        except ValueError:  # not an integer: refused with the q < 2 angles
            q = 0
        if q < 2:
            raise ValueError(f"theta={theta}: a pi/<q> angle needs an integer q >= 2")
        return f"pi/{q}"
    num, den = _read_rational(theta)
    if den == 0:
        raise ValueError(f"theta={theta} is not a finite number")
    g = gcd(num, den)
    return f"{num // g}" if den == g else f"{num // g}/{den // g}"


def _digit_groups(text: str) -> bool:
    """True where ``text`` is decimal digits in groups joined by single underscores."""
    return all(group.isdecimal() for group in text.split("_"))


def _read_rational(theta: str) -> tuple[int, int]:
    """(p, q), unreduced, of ``[+-]p/q`` or ``[+-]d[.d][e[+-]d]`` with digits in _ groups,
    the strings Fraction reads once stripped.  Its size, the digits and |exponent|
    counted, is refused above MAX_THETA_DIGITS before 10^|exponent| is built."""
    sign = -1 if theta.startswith("-") else 1
    body = theta[1:] if theta.startswith(("+", "-")) else theta
    p, slash, q = body.partition("/")
    if slash:
        whole, frac, exponent = p, "", ""
        valid = _digit_groups(p) and _digit_groups(q)
    else:
        mantissa, e, exponent = body.replace("E", "e").partition("e")
        whole, _, frac = mantissa.partition(".")
        valid = (
            (_digit_groups(whole) or (not whole and frac[:1].isdecimal()))
            and (not frac or _digit_groups(frac))
            and (not e or _digit_groups(exponent.removeprefix("+").removeprefix("-")))
        )
    if not valid:
        raise ValueError(f"theta={theta} is not a number, a ratio p/q of integers or pi/<q>")
    whole, frac, q = whole.replace("_", ""), frac.replace("_", ""), q.replace("_", "")
    try:
        shift = int(exponent or 0)
    except ValueError:  # past int()'s digit limit, so far past the ceiling
        shift = MAX_THETA_DIGITS
    if len(whole) + len(frac) + len(q) + abs(shift) > MAX_THETA_DIGITS:
        raise ValueError(f"theta has more than {MAX_THETA_DIGITS} digits, |exponent| counted")
    num, den = sign * int(whole + frac or 0), int(q or 1) * 10 ** len(frac)
    return (num * 10**shift, den) if shift >= 0 else (num, den * 10**-shift)


def _rational(token: str) -> tuple[int, int]:
    """(p, q) of a canonical rational token ``p/q`` or ``p``."""
    num, _, den = token.partition("/")
    return int(num), int(den or 1)


def _angle(theta, scale: int) -> tuple[str, Ball]:
    """(token, ball) of the angle, range-checked, printed at ``scale`` places.

    A pi/q angle is divided from :func:`compute_pi` at that scale, computed here.
    An angle that rounds to 1 unit of 10^-scale or less is refused: both sides would
    then all but vanish and agree whatever they compute.
    """
    token = canonical_theta_token(theta)
    if token.startswith("pi/"):
        q, pi = int(token[3:]), compute_pi(scale)
        tiny, angle = 2 * pi.rounded() < 3 * q, pi.mul_ratio(1, q)
    else:
        num, den = _rational(token)
        if not 0 < num * _PI_LOWER[1] < _PI_LOWER[0] * den:
            raise ValueError(
                f"theta={token} outside the open interval (0, pi); rational angles "
                f"must stay below {_PI_LOWER[0] / _PI_LOWER[1]}"
            )
        bits = _working_bits(scale)
        tiny, angle = 2 * num * 10**scale < 3 * den, Ball((num << bits) // den, 1, bits, scale)
    if tiny:
        raise ValueError(
            f"theta={token} is within 1 ulp of 0 at {scale} working digits; raise --digits"
        )
    return token, angle


def _exponent(identity: str, k: int) -> int:
    """The exponent e of an (identity, k) check, 2k for S1 and 2k + 1 for S2, both checked."""
    if identity not in IDENTITY_TAGS:
        raise ValueError(f"identity must be one of {IDENTITY_TAGS}, got {identity!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    return 2 * k + (identity == "S2")


def _direct_bits(scale: int, terms: int) -> int:
    """Bits of the generic direct loop: the output's, and guard bits for its drift."""
    return (10**scale).bit_length() + 2 * terms.bit_length() + 4


def _sin_cos(token: str, bits: int) -> tuple[int, int, int]:
    """(sin, cos, err) of a range-checked angle in units of 2^-bits, each within err.

    The angle is converted once to x 2^-f with f = bits + 64, the guard bits
    :func:`_chudnovsky` needs: a rational by one floor division, within 1, and pi/q
    from that pi, within ceil(e_pi / q) + 1.  One Taylor loop runs over
    t_j = floor(t_(j-1) x / (j 2^f)), below X^j / j! 2^f for X = x 2^-f < 4 by d_j, and
    adds t_j to cos (even j) or sin (odd j), with the sign of j mod 4.  As
    d_j <= 4 d_(j-1) / j + 1 and d_1 = 0, every d_j is below 5.  The loop stops at the
    first t_J = 0, so X^J / J! 2^f < 5, which with f >= 64 puts J above X: the omitted
    terms of each series alternate and fall from below 5.  Either sum is then within
    5 J + 5 of its value at X, the angle's error moves it by no more than that error,
    and rounding to 2^-bits adds 1/2.
    """
    fine = bits + 64
    if token.startswith("pi/"):
        q = int(token[3:])
        pi, pi_err = _chudnovsky(fine)
        x, x_err = _divround(pi, q), _ceil_div(pi_err, q) + 1
    else:
        num, den = _rational(token)
        x, x_err = (num << fine) // den, 1
    parts = [0, 0, 0, 0]
    t, j = 1 << fine, 0
    while t:
        parts[j & 3] += t
        j += 1
        t = (t * x >> fine) // j
    half = 1 << 63
    s = (parts[1] - parts[3] + half) >> 64
    c = (parts[0] - parts[2] + half) >> 64
    return s, c, _ceil_div(5 * j + 5 + x_err + half, 1 << 64)


def _tan_half(s: int, c: int, e: int, bits: int) -> tuple[int, int]:
    """(t, err) with |tan(theta/2) 2^bits - t| <= err, from :func:`_sin_cos`'s triple.

    tan(theta/2) = sin / (1 + cos); for a quotient of values within e,
    |s/d - s'/d'| <= e (d + |s|) / (d (d - e)).
    """
    d = (1 << bits) + c
    if d <= e:
        raise ArithmeticError(f"theta is too close to pi for tan(theta/2) at {bits} bits")
    return _divround(s << bits, d), _ceil_div(e * (d + abs(s)) << bits, d * (d - e)) + 1


def _alternating_trig(s: int, c: int, e: int, bits: int, terms: int, cosine: bool):
    """(values, drift) for z_m = (-1)^(m+1) sin(m theta), or cos, m = 1..terms.

    ``values`` yields z_m * 2^bits as integers from the three-term recurrence
    z_(m+1) = -2 cos(theta) z_m - z_(m-1), one multiply and one shift per
    step, started from the exact z_0 (0 for sine, -1 for cosine) and z_1, the
    :func:`_sin_cos` triple (s, c, e) at 2^-bits.  ``drift`` bounds every value's
    error in units of 2^-bits.

    The error obeys the same recurrence with local error <= 1/2 (the shift)
    + 2 e |z| 2^-bits, so with |U_j(cos)| <= j+1 it stays below
    n e + n^2 (1/2 + 2 e) after n values; the n^2/2 the sum gives leaves
    room for |z| slightly above 2^bits.  The bound holds for any n, so guard
    bits of twice the term count's bit length keep it a few output ulp for
    the whole run, with no re-anchoring.
    """
    coef, half = -2 * c, 1 << (bits - 1)
    drift = terms * e + _ceil_div(terms * terms * (4 * e + 1), 2)

    def values():
        prev, z = -(1 << bits) if cosine else 0, c if cosine else s
        for _ in range(terms):
            yield z
            prev, z = z, ((coef * z + half) >> bits) - prev

    return values(), drift


def _generic_sum(exponent: int, token: str, terms: int, scale: int) -> tuple[int, int, int]:
    """(twice the smoothed sum, its unit, err) of sum_m z_m / m^exponent at a generic theta."""
    bits = _direct_bits(scale, terms)
    values, drift = _alternating_trig(*_sin_cos(token, bits), bits, terms, exponent % 2 == 1)
    total = 0
    for m, z in enumerate(values, 1):
        last = z // m**exponent
        total += last
    # each value's drift enters divided by m^exponent, and sum_m m^-2 < 2;
    # each floor division adds one more unit
    return 2 * total - last, 1 << bits, 2 * drift + terms


def _half_pi_sum(exponent: int, terms: int, scale: int) -> tuple[int, int, int]:
    """The :func:`_generic_sum` triple at theta = pi/2, where only odd (sine) or
    even (cosine) m contribute, each with an exact +-1."""
    # one floor per summed term, (terms + 1) // 2 in all, below 2^-2 output ulp
    bits = (10**scale).bit_length() + terms.bit_length() + 2
    one = 1 << bits
    total = last = 0
    sign = 1
    for m in range(exponent % 2 + 1, terms + 1, 2):
        last = sign * (one // m**exponent)
        total += last
        sign = -sign
    # the smoothing drops half the term at m = terms, which is zero unless summed
    return 2 * total - (last if m == terms else 0), one, (terms + 1) // 2


def _modulus(z: tuple[int, int]) -> int:
    """An integer above |z| for a complex fixed-point value z = (re, im)."""
    return isqrt(z[0] * z[0] + z[1] * z[1]) + 1


def _ball_mul(a, err_a: int, b, err_b: int, bits: int):
    """(a b rounded to 2^-bits, its error), the real product's bound on the moduli:
    rounding both parts adds below one unit."""
    half = 1 << (bits - 1)
    re = (a[0] * b[0] - a[1] * b[1] + half) >> bits
    im = (a[0] * b[1] + a[1] * b[0] + half) >> bits
    return (re, im), _product_error(_modulus(a), err_a, _modulus(b), err_b, bits)


def _leading_differences(values: list[int]) -> list[int]:
    """Delta^j v_0 for j = 0..len(values)-1, where Delta v_i = v_i - v_(i+1)."""
    out = []
    while values:
        out.append(values[0])
        values = [x - y for x, y in zip(values, values[1:])]
    return out


def _horner(coefs, errs, z, err_z: int, bits: int):
    """(sum_j coefs[j] z^j, its error) by Horner's rule, ``errs`` bounding the coefficients'."""
    acc, err = coefs[-1], errs[-1]
    for a, err_a in zip(coefs[-2::-1], errs[-2::-1]):
        (re, im), e = _ball_mul(acc, err, z, err_z, bits)
        acc, err = (a[0] + re, a[1] + im), err_a + e
    return acc, err


def _abel_sum(
    exponent: int, token: str, terms: int, scale: int, p: int, cut: int, guard: int
) -> tuple[int, int, int]:
    """The :func:`_generic_sum` triple by ``p``-fold summation by parts, cut at ``cut``.

    With u = -e^(i theta), w_m = m^-exponent and Delta^j w_m = sum_i (-1)^i C(j,i) w_(m+i),
    S1's partial sum is -Im T and S2's -Re T, where T = sum_(m<=M) u^m w_m.  Abel's
    partial summation (K. Knopp, Theory and Application of Infinite Series), applied
    p times with c = u / (u-1) = (1 + i tan(theta/2)) / 2, gives
        T = sum_(j<p) c^(j+1) (u^(M-j) Delta^j w_(M-j) - Delta^j w_1)
            + c^p sum_(m<=M-p) u^m Delta^p w_m.
    The last sum is kept to m <= ``cut`` as sum_(i<=p) (-1)^i C(p,i) u^-i (P_(cut+i) - P_i)
    over the prefix sums P_n of u^n w_n.  Since (-1)^p (x^-e)^(p) falls, each dropped term
    is below e (e+1) ... (e+p-1) m^(-e-p), so the dropped part is below
    e (e+1) ... (e+p-1) cut^(1-e-p) / (e+p-1).  That bound is checked in integers: if
    |c|^p times it passes 2^(guard-1) units of the result, half the ``guard`` bits'
    allowance, ``ArithmeticError``.  Every other quantity is a complex ball whose error
    :func:`_ball_mul` carries; the ``guard`` bits absorb the 2^p of the binomials and
    |c|^p.  The cost is O(cut + p^2 + log M) operations.
    """
    if not 0 < p < terms or cut < 1:
        raise ValueError("summation by parts needs 0 < p < terms and cut >= 1")
    bits = (10**scale).bit_length() + guard
    one = 1 << bits
    s, co, e = _sin_cos(token, bits)
    u, err_u = (-co, -s), 2 * e  # both parts, so twice for the modulus
    tan, err_tan = _tan_half(s, co, e, bits)  # Im c = tan(theta/2) / 2, halved within 1/2
    c, err_c = (one >> 1, _divround(tan, 2)), err_tan // 2 + 1
    rest = terms - p  # the last sum runs over m = 1..rest
    cut = min(cut, rest)
    tail = 0
    if cut < rest:
        order = exponent + p - 1
        tail = _ceil_div(factorial(order) << bits, factorial(exponent - 1) * order * cut**order)
        # |c|^p from the top 64 bits of |c|, rounded up
        shift = max(bits - 64, 0)
        c_top = _ceil_div(_modulus(c) + err_c, 1 << shift)
        if _ceil_div(tail * c_top**p, 1 << (bits - shift) * p) > 1 << (guard - 1):
            raise ArithmeticError(f"p={p}, cut={cut} leave a tail above the guard digits")
    # u^n, n <= cut + p, each by one rounded product: its error grows by at most
    # err_u + 2 per step while n (err_u + 2) err_u <= 2^bits, which the guard bits keep,
    # and the floors of u^n w_n add below 2 each; sum_(m<=n) m^(1-e) <= H_n <= bit_length(n)
    count = cut + p
    if count * (err_u + 2) * err_u > one:
        raise ArithmeticError(f"{bits} bits are too few for {count} powers of u")
    err_prefix = (err_u + 2) * count.bit_length() + 2 * count
    half = 1 << (bits - 1)
    ur, ui = u
    vr, vi = one, 0
    powers, prefix = [(one, 0)], [(0, 0)]
    sum_re = sum_im = 0
    for n in range(1, count + 1):
        vr, vi = (vr * ur - vi * ui + half) >> bits, (vr * ui + vi * ur + half) >> bits
        w = n**exponent
        sum_re += vr // w
        sum_im += vi // w
        if n <= p:
            powers.append((vr, vi))
        prefix.append((sum_re, sum_im))
    kept, err_kept = (0, 0), 0
    for i in range(p + 1):
        (vr, vi), (ar, ai), (br, bi) = powers[i], prefix[cut + i], prefix[i]
        diff, err_diff = (ar - br, ai - bi), 2 * err_prefix
        (re, im), e = _ball_mul((vr, -vi), i * (err_u + 2), diff, err_diff, bits)
        sign = (-1) ** i * comb(p, i)
        kept = (kept[0] + sign * re, kept[1] + sign * im)
        err_kept += comb(p, i) * e
    # Delta^j w_1, and Delta^j w_(M-j) = (-1)^j Delta^j of w_M, w_(M-1), ...: floors of
    # w below 1 each, so the j-th difference is within 2^j
    head = _leading_differences([one // m**exponent for m in range(1, p + 1)])
    ends = _leading_differences([one // m**exponent for m in range(terms, terms - p, -1)])
    errs = [1 << j for j in range(p)]
    # the terms at M: c^(j+1) u^(M-j) (-1)^j = c u^M conj(c)^j, as -c/u = conj(c)
    end_sum, err_end = _horner([(x, 0) for x in ends], errs, c, err_c, bits)
    # the top coefficient Delta^(p-1) w_1 - (kept sum + dropped part) carries their bounds
    coefs = [(x, 0) for x in head[:-1]] + [(head[-1] - kept[0], -kept[1])]
    head_sum, err_head = _horner(coefs, errs[:-1] + [errs[-1] + err_kept + tail], c, err_c, bits)
    u_m, err_um = (one, 0), 0
    base, err_base, n = u, err_u, terms
    while n:
        if n & 1:
            u_m, err_um = _ball_mul(u_m, err_um, base, err_base, bits)
        n >>= 1
        if n:
            base, err_base = _ball_mul(base, err_base, base, err_base, bits)
    (xr, xi), err_x = _ball_mul(u_m, err_um, (end_sum[0], -end_sum[1]), err_end, bits)
    inner = (xr - head_sum[0], xi - head_sum[1])
    (tr, ti), err_t = _ball_mul(c, err_c, inner, err_x + err_head, bits)
    # twice the smoothed sum: 2 T - u^M w_M, whose S1 or S2 part is taken with a minus sign
    w = terms**exponent
    twice = 2 * ti - u_m[1] // w if exponent % 2 == 0 else 2 * tr - u_m[0] // w
    return -twice, one, 2 * err_t + _ceil_div(err_um, w) + 2


def _abel_plan(
    exponent: int, theta: float, half_pi: bool, terms: int, scale: int
) -> tuple[int, int, int] | None:
    """(p, cut, guard) for :func:`_abel_sum` at the angle ``theta`` (``half_pi`` at pi/2) if
    its estimated work is below the direct loop's, else None.  Floats only choose;
    :func:`_abel_sum` certifies the choice.

    For each p, cut is the least that keeps |c|^p times the dropped part's bound a
    quarter of :func:`_abel_sum`'s allowance, and guard covers 2^p |c|^p times the
    prefix sums' error; the p of least estimated work wins.
    """
    log2_c = -log2(2 * cos(theta / 2))  # log2 |c|
    out_bits = (10**scale).bit_length()
    direct = terms * (_HALF_PI_TERM_COST if half_pi else 1)
    direct_bits = _direct_bits(scale, terms)
    best = None
    for p in range(1, terms):
        fixed = _ABEL_FIXED_COST + _ABEL_ORDER_COST * p + _ABEL_SQUARE_COST * p * p
        if fixed >= (best[0] if best else direct):
            break
        order = exponent + p - 1
        log_rising = (lgamma(exponent + p) - lgamma(exponent)) / log(2)
        log_cut = (p * log2_c + log_rising - log2(order) + out_bits + 3) / order
        cut = min(ceil(2 ** min(log_cut, 60.0)), terms - p)
        guard = ceil(p * (log2_c + 1)) + (cut + p).bit_length() + 8
        cost = fixed + _ABEL_TERM_COST * cut * (out_bits + guard) / direct_bits
        if cost < (best[0] if best else direct):
            best = cost, p, cut, guard
    return best[1:] if best else None


def _check_fourier_terms(fourier_terms: int) -> None:
    if fourier_terms < 2:
        raise ValueError("fourier_terms must be >= 2")
    if fourier_terms > MAX_FOURIER_TERMS:
        raise ResourceLimitError(
            f"{fourier_terms} Fourier terms exceed the configured maximum {MAX_FOURIER_TERMS}"
        )


def fourier_lhs(identity: str, k: int, theta, fourier_terms: int, digits: int = 30) -> Ball:
    """Smoothed partial sum of the alternating sine (S1) or cosine (S2) series, summed
    by parts where :func:`_abel_plan` finds that cheaper, else by the direct loop; the
    tag, k, term count and angle are checked first, the angle at the working scale."""
    exponent = _exponent(identity, k)
    _check_fourier_terms(fourier_terms)
    scale = _working_scale(digits)
    token, angle = _angle(theta, scale)
    plan = _abel_plan(exponent, angle.mid / 2**angle.bits, token == "pi/2", fourier_terms, scale)
    if plan:
        twice, unit, err = _abel_sum(exponent, token, fourier_terms, scale, *plan)
    elif token == "pi/2":
        twice, unit, err = _half_pi_sum(exponent, fourier_terms, scale)
    else:
        twice, unit, err = _generic_sum(exponent, token, fourier_terms, scale)
    # the sum is twice 2^-b with b the bit length of unit = 2^(b-1), within err / unit
    return Ball(twice, 2 * err, unit.bit_length(), scale).shift(angle.bits)


def rhs_eval(identity: str, k: int, theta, series_terms: int, digits: int = 30) -> Ball:
    """Ladder-series side of the identity at full working precision.

    S1: (-1)^k/2 * sum_n D_n(2k) theta^(2n+2k-1)
        + sum_{r<k} (-1)^(k-r-1) A_(2r+1) theta^(2k-2r-1) / (2k-2r-1)!
    S2: (-1)^(k+1)/2 * sum_n D_n(2k+1) theta^(2n+2k)
        + sum_{r<=k} (-1)^(k-r) A_(2r+1) theta^(2k-2r) / (2k-2r)!

    Each S1/S2 difference follows from the parity of the column index e = 2k (S1)
    or 2k+1 (S2).
    """
    e = _exponent(identity, k)
    if series_terms < 1:
        raise ValueError("series_terms must be >= 1")
    odd = e % 2
    scale = _working_scale(digits)
    token, th = _angle(theta, scale)
    # geometric bound on the omitted ladder tail: the term ratio is strictly below
    # (theta/pi)^2 for every n, the moment lemma of coeffs at angle theta, since
    # D_n(e) theta^(2n+e-1) = 4 theta^(e-1) lambda(2n) y^(2n) / ((2n)...(2n+e-1)) with
    # y = theta/pi; bounded by a/b on the printed angle and pi, rounded outward, and judged
    # before the column is read, which may cost tangent numbers to series_terms
    a, b = (th.rounded() + 2) ** 2, (compute_pi(scale).rounded() - 2) ** 2
    if 1000 * a >= 999 * b:
        raise ValueError(f"theta={token} is too close to pi for a usable ladder tail bound")
    column = e_column(1, series_terms)
    # the eta-polynomial terms first, from the top r down: past the tangent index ceiling
    # the highest eta sum fails before any lower one runs or the D sum builds (e + 1)!
    poly = th._replace(mid=0, rad=0)
    for r in reversed(range(k + odd)):
        exponent = e - 2 * r - 1
        # A_(2r+1): ln 2 for r = 0, eta(2r+1) above
        term = th.pow_int(exponent).mul(sum_series(2 * r + 1, digits + 6).value.shift(th.bits))
        poly += term.mul_ratio((-1) ** (k - r - 1 + odd), factorial(exponent))
    # D_n(k) = N_n(1) / d_denominator(n, k), the power carried over the denominator row to row
    den = d_denominator(1, e)
    mantissas, errs = zip(*_series_terms(th.pow_int(e + 1), th.mul(th), column, den, e))
    # the tail is below (|last| + its bound) rho / (1 - rho) with rho = a/b, then halved
    tail = (abs(mantissas[-1]) + errs[-1]) * a // (2 * (b - a)) + 1
    acc = poly._replace(mid=sum(mantissas), rad=sum(errs)).mul_ratio((-1) ** (k + odd), 2)
    return poly + acc._replace(rad=acc.rad + tail)


class IdentityResidual(
    namedtuple(
        "IdentityResidual", "identity k theta_token fourier_terms series_terms residual"
    )
):
    """|Fourier partial sum - ladder series| for one (identity, k, theta) check."""

    __slots__ = ()


def check_identity(
    identity: str,
    k: int,
    theta,
    fourier_terms: int,
    series_terms: int,
    digits: int = 30,
) -> IdentityResidual:
    """|:func:`fourier_lhs` - :func:`rhs_eval`| for one (identity, k, theta) check.

    The inputs are refused in this order, each before any sum runs: the Fourier term
    count, then the angle's form, read here to the token the record names; then
    :func:`rhs_eval` checks the identity tag, k and ``series_terms``, refuses an angle
    outside (0, pi) or too close to pi for its tail bound, and reads the tangent number
    at ``series_terms``, so a count past the tangent index ceiling is refused before
    :func:`fourier_lhs` runs.  Each side reads the angle once and computes pi at its own
    scale where it needs it: a pi/q angle, the ladder's tail bound and each eta sum.
    """
    _check_fourier_terms(fourier_terms)
    token = canonical_theta_token(theta)
    rhs = rhs_eval(identity, k, token, series_terms, digits)
    lhs = fourier_lhs(identity, k, token, fourier_terms, digits)
    return IdentityResidual(identity, k, token, fourier_terms, series_terms, abs(lhs - rhs))


def tan_half_residual(theta, fourier_terms: int, digits: int = 15) -> Ball:
    """Informational check of the k = 0 sine identity against (1/2) tan(theta/2).

    The raw sine sum only converges in the Cesaro sense, so the full (C, 1)
    mean of the partial sums is used; expect only a handful of digits even
    at large term counts.
    """
    _check_fourier_terms(fourier_terms)
    scale = _working_scale(digits)
    token, _ = _angle(theta, scale)  # refuses an angle outside (0, pi) or within 1 ulp of 0
    # twice the direct loop's bits: 1 + cos(theta), above 2^-57 for any angle below
    # _PI_LOWER, then stays far above the error of sin and cos in tan(theta/2)
    bits = 2 * _direct_bits(scale, fourier_terms)
    s, c, e = _sin_cos(token, bits)
    values, drift = _alternating_trig(s, c, e, bits, fourier_terms, cosine=False)
    running = acc = 0
    for z in values:
        running += z
        acc += running
    t, err_t = _tan_half(s, c, e, bits)
    # |mean - t/2| in units of 2^-(bits+1) / M: every partial sum carries at most
    # M drift, and so does their mean, and t/2 carries err_t / 2
    err = fourier_terms * (2 * fourier_terms * drift + err_t)
    gap = Ball(abs(2 * acc - fourier_terms * t), err, bits + 1, scale)
    return gap.mul_ratio(1, fourier_terms).shift(_working_bits(scale))


def residual_sweep(
    ks,
    thetas,
    fourier_terms_for_k,
    series_terms: int = 80,
    digits: int = 30,
) -> list[IdentityResidual]:
    """Residuals for every (identity, k, theta) combination, in fixed order."""
    out = []
    for identity in IDENTITY_TAGS:
        for k in ks:
            terms = fourier_terms_for_k(k)
            for theta in thetas:
                out.append(check_identity(identity, k, theta, terms, series_terms, digits))
    return out


def sweep_to_csv(results) -> str:
    """CSV rows ``identity,k,theta,fourier_terms,residual`` for a sweep."""
    lines = ["identity,k,theta,fourier_terms,residual"]
    for r in results:
        lines.append(
            f"{r.identity},{r.k},{r.theta_token},{r.fourier_terms},{r.residual.to_sci(6)}"
        )
    return "\n".join(lines) + "\n"
