"""Integer recurrences (Fibonacci, Lucas, and seeded variants) behind every map family.

All sequences are 1-indexed and satisfy term(n) = term(n-1) + term(n-2) for
n >= 3. Exact terms are refused past the signed 64-bit range so that
downstream determinant identities stay exact; :func:`term_mod` reduces
modulo its modulus for arbitrarily large indices.

One fast-doubling kernel, :func:`_lucas_pair`, computes the Lucas sequence
U(P, Q) mod m. The Fibonacci numbers behind every series are U(1, -1), and
by Cayley-Hamilton a 2x2 matrix power is fixed by U(trace, det), so
``maps.power_mod`` runs on the same kernel (Lucas, "Theorie des fonctions
numeriques simplement periodiques", Amer. J. Math. 1, 1878; Wall,
"Fibonacci series modulo m", Amer. Math. Monthly 67(6), 1960).
"""

import enum
import functools

from .errors import SequenceOverflowError

INT64_MAX = 2**63 - 1


class SequenceFamily(enum.Enum):
    """The five named seed pairs. Arbitrary seeds are out of scope; use raw maps."""

    FIB01 = (0, 1)
    FIB11 = (1, 1)
    FIB32 = (3, 2)
    FIB31 = (3, 1)
    LUCAS = (2, 1)

    @property
    def seeds(self) -> tuple[int, int]:
        return self.value


#: Seeded-Fibonacci families usable on the numerator row of a Fibonacci-Lucas map.
FLT_SERIES = (SequenceFamily.FIB11, SequenceFamily.FIB32, SequenceFamily.FIB31)


@functools.lru_cache(maxsize=None)
def max_index(family: SequenceFamily) -> int:
    """Largest n whose exact term still fits in a signed 64-bit integer."""
    a, b = family.seeds
    n = 2
    while b <= INT64_MAX:
        a, b = b, a + b
        n += 1
    return n - 1


def term(family: SequenceFamily, n: int) -> int:
    """Exact n-th term (1-indexed); raises SequenceOverflowError past 64 bits.

    Every term up to max_index is below 2^63, so it equals its residue mod
    2^63 and comes from term_mod's fast doubling.
    """
    if n > max_index(family):
        raise SequenceOverflowError(family.name, n, max_index(family))
    return term_mod(family, n, 1 << 63)


def term_mod(family: SequenceFamily, n: int, modulus: int) -> int:
    """term(family, n) mod modulus, in O(log n) steps of modular arithmetic.

    term(n) = a*F(n-2) + b*F(n-1) for seeds (a, b) and the Fibonacci numbers
    F = U(1, -1), which the Lucas kernel gives as one pair.
    """
    if n < 1:
        raise ValueError(f"sequence index must be >= 1, got {n}")
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    a, b = family.seeds
    if n == 1:
        return a % modulus
    f, g = _lucas_pair(1, -1, n - 2, modulus)
    return (a * f + b * g) % modulus


def _lucas_pair(p: int, q: int, k: int, modulus: int) -> tuple[int, int]:
    """(U_k, U_(k+1)) mod modulus for the Lucas sequence U_0 = 0, U_1 = 1,
    U_(j+2) = p*U_(j+1) - q*U_j, with k >= 0.

    Fast doubling over the bits of k: U_2j = U_j*(2*U_(j+1) - p*U_j) and
    U_(2j+1) = U_(j+1)^2 - q*U_j^2.
    """
    u, v = 0, 1  # U_j, U_(j+1) mod modulus, j from the leading bits of k
    for bit in bin(k)[2:]:
        u, v = u * (2 * v - p * u) % modulus, (v * v - q * u * u) % modulus
        if bit == "1":
            u, v = v, (p * v - q * u) % modulus
    return u, v
