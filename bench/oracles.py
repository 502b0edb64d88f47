"""
Result checks that share no code with the ``affinetl`` scalar kernel.

Values arrive as the exact text the program prints, ``P(v)`` or
``P(v)/(Q(v))`` with integer coefficients.  The checks parse that text into
plain coefficient dicts and test identities by evaluation at points where
the value is known and by cross-multiplication, never by a polynomial gcd.
"""
from __future__ import annotations

import hashlib
import json
import re

_TERM = re.compile(r"([+-]?)(\d+)?(\*)?(v(?:\^(\d+))?)?")


def parse_poly(text: str) -> dict:
    """``-3*v^4+v+2`` -> {4: -3, 1: 1, 0: 2}."""
    poly: dict = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, coeff, star, var, exp = m.groups()
        well_formed = (coeff or var) and bool(star) == bool(coeff and var) and (sign or pos == 0)
        if not well_formed:
            raise ValueError(f"bad polynomial text {text!r} at {pos}")
        c = int(coeff) if coeff else 1
        k = (int(exp) if exp else 1) if var else 0
        poly[k] = poly.get(k, 0) + (-c if sign == "-" else c)
        pos = m.end()
    if not poly:
        raise ValueError("empty polynomial text")
    return {k: c for k, c in poly.items() if c}


def _strip_parens(text: str) -> str:
    return text[1:-1] if text.startswith("(") and text.endswith(")") else text


def parse_rational(text: str) -> tuple[dict, dict]:
    """Numerator and denominator of a printed value of Q(v)."""
    text = text.strip()
    num, sep, den = text.partition("/")
    if sep and not den.startswith("("):
        raise ValueError(f"bad rational text {text!r}")
    return parse_poly(_strip_parens(num)), parse_poly(_strip_parens(den)) if sep else {0: 1}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


def poly_pow(a: dict, n: int) -> dict:
    out = {0: 1}
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def braid_cycles(text: str, gens: int) -> int:
    """Cycles of the braid's permutation of ``gens`` strands: ``s_i`` swaps
    strands i and i+1, ``a`` swaps strands 1 and ``gens``."""
    perm = list(range(gens))
    for tok in text.split():
        name = tok[:-3] if tok.endswith("^-1") else tok
        i, j = (0, gens - 1) if name == "a" else (int(name[1:]) - 1, int(name[1:]))
        perm[i], perm[j] = perm[j], perm[i]
    seen, cycles = set(), 0
    for start in range(gens):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = perm[k]
    return cycles


# the powers of z = e^(i pi/3) as a + b z, since z^2 = z - 1
_Z_POWERS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def poly_at_z(p: dict) -> tuple[int, int]:
    """p(z) = a + b z exactly, for z = e^(i pi/3)."""
    a = b = 0
    for k, c in p.items():
        x, y = _Z_POWERS[k % 6]
        a, b = a + c * x, b + c * y
    return a, b


def check_invariant(braid: str, gens: int, text: str) -> bool:
    """The invariant of a closure with c components is (-2)^(c-1) at v = 1
    and (-1)^(c-1) at v = e^(i pi/3): the values of its Jones polynomial
    (t = v^2) at t = 1 and t = e^(2 pi i/3)."""
    num, den = parse_rational(text)
    c = braid_cycles(braid, gens)
    at_one = sum(den.values())  # den(1)
    if at_one == 0 or sum(num.values()) != (-2) ** (c - 1) * at_one:
        return False
    sign = (-1) ** (c - 1)
    (na, nb), (da, db) = poly_at_z(num), poly_at_z(den)
    return (da, db) != (0, 0) and (na, nb) == (sign * da, sign * db)


def check_solve(text: str, kmax: int) -> bool:
    """alpha_k = -v/(1+q), beta_k = (-1)^k/(1+q)^(3k), beta'_k = q^(3k) beta_k
    for k = 1..kmax, with q = v^2; ``text`` holds the alphas, betas and
    beta' values one per line in that order."""
    values = [parse_rational(line) for line in text.splitlines()]
    if len(values) != 3 * kmax:
        return False
    one_plus_q = {0: 1, 2: 1}
    for k in range(1, kmax + 1):
        (an, ad), (bn, bd), (rn, rd) = values[k - 1], values[kmax + k - 1], values[2 * kmax + k - 1]
        sign = (-1) ** k
        cube = poly_pow(one_plus_q, 3 * k)
        if poly_mul(an, one_plus_q) != poly_mul({1: -1}, ad):
            return False
        if poly_mul(bn, cube) != {k2: sign * c for k2, c in bd.items()}:
            return False
        if poly_mul(rn, cube) != {k2 + 6 * k: sign * c for k2, c in rd.items()}:
            return False
    return True


def check_verify(text: str) -> bool:
    """The JSON report of ``verify`` passes and every check in it is ok."""
    report = json.loads(text)
    checks = report["checks"]
    return report["ok"] is True and bool(checks) and all(c["ok"] is True for c in checks)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
