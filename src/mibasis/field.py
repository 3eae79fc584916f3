"""Prime-field scalars and dense univariate polynomial arithmetic.

Scalars are plain Python ints in [0, p).  A polynomial is a list of such
ints, index i holding the coefficient of X^i, normalized so the last entry
is nonzero; [] is the zero polynomial, whose degree is the distinguished
value MINUS_INF.

All operations hang off a PrimeField instance, which fixes the prime (odd,
below 2**62).  Polynomial products use one kernel per regime, chosen from
the prime and the operand sizes:

=============================================  ===============================
regime                                         kernel
=============================================  ===============================
``poly_mul``, (p-1)^2 * min(len f, len g)      numpy int64 convolution; no
below 2^63                                     coefficient sum can overflow
``poly_mul``, larger bound (62-bit primes)     Kronecker substitution
``polymat.mat_mul``, limbs certified by        one batched float64 FFT of the
``polymat.fft_limbs`` (every p at any          entries' limbs, rounded
size reached in practice), padding below       exactly
``polymat.FFT_MAX_PADDING``
``polymat.mat_mul``, otherwise                 Kronecker substitution, inner
                                               sums taken on packed integers
=============================================  ===============================

Kronecker substitution evaluates a polynomial at X = 2^(8w), w bytes being
wide enough that no coefficient of the product overflows its digit; one
Python integer product then does the whole convolution.  ``kron_pack`` and
``kron_unpack`` are the two directions of that map.

No solve calls simultaneous reduction (``multi_mod``) or Chinese
remaindering (``crt``): residuals take one polynomial-matrix product and
Taylor shifts instead.  Both remain because perfbench's tracer binds them by
name; they are direct forms on code that solves run, ``poly_mod`` per
modulus and one ``modmat.solve_right``.
"""

from __future__ import annotations

import numpy as _np

from . import modmat

MINUS_INF = float("-inf")

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def digit_bytes(bound: int) -> int:
    """Bytes per Kronecker digit, enough to hold any value in [0, bound]."""
    return (bound.bit_length() + 7) // 8


def kron_pack(f: list[int], width: int) -> int:
    """f evaluated at X = 2^(8*width): coefficients as little-endian digits."""
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in f]), "little")


def kron_unpack(n: int, width: int, p: int) -> list[int]:
    """Inverse of kron_pack up to reduction: digits of n mod p, normalized."""
    raw = n.to_bytes((n.bit_length() + 7) // 8, "little")
    return PrimeField.normalize(
        [int.from_bytes(raw[i : i + width], "little") % p for i in range(0, len(raw), width)]
    )


class PrimeField:
    """Arithmetic context for F_p with p an odd prime below 2**62."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError("p is not prime")
        if p == 2:
            raise ValueError("p must be an odd prime")
        if p >= 1 << 62:
            raise ValueError("p must fit in 62 bits")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    # -- scalars -----------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    # -- polynomial basics -------------------------------------------------

    @staticmethod
    def normalize(coeffs: list[int]) -> list[int]:
        """Strip trailing zeros (coefficients assumed already reduced)."""
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        return coeffs[:n]

    def poly(self, coeffs) -> list[int]:
        """Build a normalized polynomial, reducing coefficients mod p."""
        return self.normalize([c % self.p for c in coeffs])

    @staticmethod
    def deg(f: list[int]):
        """Degree of f, MINUS_INF for the zero polynomial."""
        return len(f) - 1 if f else MINUS_INF

    def poly_add(self, f: list[int], g: list[int]) -> list[int]:
        if len(f) < len(g):
            f, g = g, f
        out = f[:]
        for i, c in enumerate(g):
            out[i] = (out[i] + c) % self.p
        return self.normalize(out)

    def poly_sub(self, f: list[int], g: list[int]) -> list[int]:
        n = max(len(f), len(g))
        out = [0] * n
        for i, c in enumerate(f):
            out[i] = c
        for i, c in enumerate(g):
            out[i] = (out[i] - c) % self.p
        return self.normalize(out)

    def poly_scale(self, f: list[int], c: int) -> list[int]:
        c %= self.p
        if c == 0:
            return []
        return [c * x % self.p for x in f]

    @staticmethod
    def poly_trunc(f: list[int], k: int) -> list[int]:
        """f mod X^k."""
        return PrimeField.normalize(f[:max(k, 0)])

    @staticmethod
    def poly_shift_up(f: list[int], k: int) -> list[int]:
        """f * X^k."""
        return [0] * k + f if f else []

    def poly_monic(self, f: list[int]) -> list[int]:
        if not f:
            return []
        return self.poly_scale(f, self.inv(f[-1]))

    # -- multiplication ------------------------------------------------------

    def poly_mul(self, f: list[int], g: list[int]) -> list[int]:
        """Product of two polynomials.

        numpy int64 convolution while every coefficient sum fits the word,
        that is (p-1)^2 * min(len f, len g) < 2^63; Kronecker substitution on
        Python integers beyond.
        """
        if not f or not g:
            return []
        p = self.p
        bound = (p - 1) * (p - 1) * min(len(f), len(g))
        if bound < 1 << 63:
            out = _np.convolve(_np.asarray(f, dtype=_np.int64), _np.asarray(g, dtype=_np.int64))
            return self.normalize((out % p).tolist())
        width = digit_bytes(bound)
        return kron_unpack(kron_pack(f, width) * kron_pack(g, width), width, p)

    # -- division, gcd ------------------------------------------------------

    def poly_divmod(self, f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        r = f[:]
        dg = len(g) - 1
        if len(r) - 1 < dg:
            return [], self.normalize(r)
        inv_lead = self.inv(g[-1])
        q = [0] * (len(r) - dg)
        for i in range(len(r) - 1, dg - 1, -1):
            c = r[i] % p
            if c:
                c = c * inv_lead % p
                q[i - dg] = c
                for j, gc in enumerate(g):
                    r[i - dg + j] = (r[i - dg + j] - c * gc) % p
        return self.normalize(q), self.normalize(r[:dg])

    def poly_mod(self, f: list[int], g: list[int]) -> list[int]:
        return self.poly_divmod(f, g)[1]

    def poly_gcd(self, f: list[int], g: list[int]) -> list[int]:
        a, b = f, g
        while b:
            a, b = b, self.poly_mod(a, b)
        return self.poly_monic(a)

    # -- Taylor shift, simultaneous reduction, Chinese remaindering ---------

    def taylor_shift(self, f: list[int], x: int) -> list[int]:
        """f(X + x), by splitting f at powers of two.

        f = lo + X^k hi with k = 2^i < len(f) <= 2^(i+1) gives
        f(X + x) = lo(X + x) + (X + x)^k hi(X + x); the powers (X + x)^(2^i)
        come from repeated squaring once per call, and pieces of at most 16
        coefficients go by Horner's rule.
        """
        p = self.p
        x %= p
        if x == 0 or not f:
            return f[:]
        powers = [[x, 1]]  # (X + x)^(2^i) for every 2^i < len(f) that a split uses
        while len(f) > 16 and 1 << len(powers) < len(f):
            powers.append(self.poly_mul(powers[-1], powers[-1]))

        def shift(g: list[int]) -> list[int]:
            if len(g) <= 16:
                out: list[int] = []
                for c in reversed(g):
                    # out <- out * (X + x) + c
                    out = [(x * a + b) % p for a, b in zip(out + [0], [c] + out)]
                return self.normalize(out)
            i = (len(g) - 1).bit_length() - 1
            lo = shift(self.normalize(g[: 1 << i]))
            return self.poly_add(lo, self.poly_mul(powers[i], shift(g[1 << i :])))

        return shift(f)

    def multi_mod(self, f: list[int], moduli: list[list[int]]) -> list[list[int]]:
        """Remainders of f by each of the nonzero polynomials ``moduli``."""
        if any(not q for q in moduli):
            raise ValueError("zero modulus")
        return [self.poly_mod(f, q) for q in moduli]

    def crt(self, residues: list[list[int]], moduli: list[list[int]]) -> list[int]:
        """Unique f of degree < n = sum(deg moduli) with f mod m_i = r_i.

        On polynomials of degree < n the map f -> (f mod m_i)_i is linear,
        and a bijection when the nonzero ``moduli`` are pairwise coprime:
        one solve_right of the n x n system whose row t holds X^t mod each
        m_i.  A singular system means the moduli share a factor.
        """
        rems = self.multi_mod([1], moduli)  # ValueError on a zero modulus
        if len(residues) != len(moduli):
            raise ValueError("residue/modulus count mismatch")
        if any(len(r) >= len(q) for r, q in zip(residues, moduli)):
            raise ValueError("residue degree not below modulus degree")
        degs = [len(q) - 1 for q in moduli]

        def padded(rems: list[list[int]]) -> list[int]:
            return [c for r, d in zip(rems, degs) for c in r + [0] * (d - len(r))]

        rows = []
        for _ in range(sum(degs)):
            rows.append(padded(rems))
            rems = [self.poly_mod(self.poly_shift_up(r, 1), q) for r, q in zip(rems, moduli)]
        try:
            f = modmat.solve_right(rows, [padded(residues)], self.p)
        except ValueError:
            raise ValueError("moduli are not pairwise coprime") from None
        return self.normalize(f[0].tolist())

    # -- binomials -----------------------------------------------------------

    def binomial(self, n: int, k: int) -> int:
        """C(n, k) mod p, via the digit product when n >= p."""
        if k < 0 or k > n:
            return 0
        p = self.p
        if n < p:
            return self._binom_small(n, k)
        acc = 1
        while n or k:
            acc = acc * self._binom_small(n % p, k % p) % p
            if acc == 0:
                return 0
            n //= p
            k //= p
        return acc

    def _binom_small(self, n: int, k: int) -> int:
        """C(n, k) mod p for n < p, by the product formula."""
        if k < 0 or k > n:
            return 0
        p = self.p
        num = den = 1
        for t in range(1, min(k, n - k) + 1):
            num = num * (n - t + 1) % p
            den = den * t % p
        return num * pow(den, -1, p) % p
