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

Simultaneous reduction (``multi_mod``) and Chinese remaindering (``crt``)
walk one SubproductTree down and up; a tree built once for fixed moduli
serves any number of polynomials.  No solve calls ``crt``, ``multi_mod`` or
``SubproductTree``: residuals on long blocks take one polynomial-matrix
product and Taylor shifts instead.  They stay because tests cover them and
perfbench's tracer wraps ``crt`` and ``multi_mod`` by name.
"""

from __future__ import annotations

import numpy as _np

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

    def poly_eval(self, f: list[int], x: int) -> int:
        acc = 0
        for c in reversed(f):
            acc = (acc * x + c) % self.p
        return acc

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

    def poly_pow(self, f: list[int], e: int) -> list[int]:
        result = [1]
        base = f
        while e:
            if e & 1:
                result = self.poly_mul(result, base)
            e >>= 1
            if e:
                base = self.poly_mul(base, base)
        return result

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

    def poly_xgcd(self, f: list[int], g: list[int]):
        """(g, u, v) monic with u*f + v*g = gcd."""
        r0, r1 = f, g
        u0, u1 = [1], []
        v0, v1 = [], [1]
        while r1:
            q, r = self.poly_divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, self.poly_sub(u0, self.poly_mul(q, u1))
            v0, v1 = v1, self.poly_sub(v0, self.poly_mul(q, v1))
        if r0:
            c = self.inv(r0[-1])
            return self.poly_scale(r0, c), self.poly_scale(u0, c), self.poly_scale(v0, c)
        return [], u0, v0

    # -- Taylor shift, simultaneous reduction, Chinese remaindering ---------

    def taylor_shift(self, f: list[int], x: int) -> list[int]:
        """f(X + x), by splitting halves and binary powers of (X + x)."""
        x %= self.p
        if x == 0 or not f:
            return f[:]
        if len(f) <= 16:
            out: list[int] = []
            for c in reversed(f):
                out = self.poly_add(self.poly_mul(out, [x, 1]), [c] if c else [])
            return out
        k = len(f) // 2
        lo = self.taylor_shift(self.normalize(f[:k]), x)
        hi = self.taylor_shift(f[k:], x)
        return self.poly_add(lo, self.poly_mul(self.poly_pow([x, 1], k), hi))

    def multi_mod(self, f: list[int], moduli) -> list[list[int]]:
        """Remainders of f by each modulus, going down a subproduct tree.

        ``moduli`` is a list of nonzero polynomials or a SubproductTree built
        over them, which many polynomials can then share.
        """
        tree = moduli if isinstance(moduli, SubproductTree) else SubproductTree(self, moduli)
        rems = [f]
        for level in reversed(tree.levels):
            rems = [
                self.poly_mod(rems[i // 2], q) if len(rems[i // 2]) >= len(q) else rems[i // 2]
                for i, q in enumerate(level)
            ]
        return rems

    def crt(self, residues: list[list[int]], moduli) -> list[int]:
        """Unique f of degree < sum(deg moduli) matching all residues.

        Goes up a subproduct tree: each leaf holds r_i * c_i mod m_i, c_i
        being the tree's cofactor, and each node f_L * M_R + f_R * M_L.
        ``moduli`` is a list of pairwise coprime nonzero polynomials or a
        SubproductTree built over them, which many residue vectors can then
        share.
        """
        tree = moduli if isinstance(moduli, SubproductTree) else SubproductTree(self, moduli)
        leaves = tree.levels[0]
        if len(residues) != len(leaves):
            raise ValueError("residue/modulus count mismatch")
        for r, q in zip(residues, leaves):
            if len(r) >= len(q):
                raise ValueError("residue degree not below modulus degree")
        if not leaves:
            return []
        vals = [
            self.poly_mod(self.poly_mul(r, c), q)
            for r, c, q in zip(residues, tree.cofactors(), leaves)
        ]
        for level in tree.levels[:-1]:
            vals = [
                self.poly_add(
                    self.poly_mul(vals[i], level[i + 1]), self.poly_mul(vals[i + 1], level[i])
                )
                if i + 1 < len(level)
                else vals[i]
                for i in range(0, len(level), 2)
            ]
        return vals[0]

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


class SubproductTree:
    """Fixed moduli with their subproduct tree and CRT cofactors.

    Built once and passed to PrimeField.multi_mod and PrimeField.crt in place
    of the moduli list, it serves every polynomial reduced modulo them and
    every residue vector lifted from them (von zur Gathen & Gerhard, Modern
    Computer Algebra, ch. 10).  ``levels[0]`` holds the moduli; each level
    above multiplies neighbours pairwise, an odd last node moving up
    unchanged, so that ``levels[-1][0]`` is their product M.
    """

    __slots__ = ("field", "levels", "_cofactors")

    def __init__(self, field: PrimeField, moduli: list[list[int]]):
        if any(not q for q in moduli):
            raise ValueError("zero modulus")
        levels = [list(moduli)]
        while len(levels[-1]) > 1:
            level = levels[-1]
            levels.append(
                [
                    field.poly_mul(level[i], level[i + 1]) if i + 1 < len(level) else level[i]
                    for i in range(0, len(level), 2)
                ]
            )
        self.field = field
        self.levels = levels
        self._cofactors = None

    def cofactors(self) -> list[list[int]]:
        """Per modulus m_i, the inverse of M / m_i modulo m_i.

        Computed on first use: M / m_i mod m_i comes down the tree, each
        child taking its parent's value times its sibling modulo itself, and
        one extended gcd per modulus inverts it.  Raises ValueError unless
        the moduli are pairwise coprime.
        """
        if self._cofactors is None:
            f = self.field
            rest = [[1]]
            for level in reversed(self.levels[:-1]):
                rest = [
                    f.poly_mod(f.poly_mul(rest[i // 2], level[i ^ 1]), q)
                    if i ^ 1 < len(level)
                    else rest[i // 2]
                    for i, q in enumerate(level)
                ]
            cof = []
            for a, q in zip(rest, self.levels[0]):
                g, u, _ = f.poly_xgcd(a, q)  # u * a = g mod q
                if len(g) != 1:
                    raise ValueError("moduli are not pairwise coprime")
                cof.append(u)
            self._cofactors = cof
        return self._cofactors
