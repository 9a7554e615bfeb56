"""Correctness oracles that share no code with modscramble.

Everything here is rebuilt from the definitions in the README: 2x2 matrix
arithmetic mod N, the pixel permutation out[M^t (x, y) mod N] = in[x, y],
the canonical PNM layout, the seeded Fibonacci/Lucas families and the
reference tables the package reproduces. The benchmark compares each output
of the library against these, so a wrong answer counts as a failed
operation no matter how fast it came back.
"""

import numpy as np

IDENTITY = (1, 0, 0, 1)


class CheckError(Exception):
    """An output disagreed with an oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ------------------------------------------------------------ 2x2 arithmetic


def mat_mul(x, y, n):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n, (c * e + d * g) % n, (c * f + d * h) % n)


def mat_pow(m, e, n):
    result, base = IDENTITY, tuple(v % n for v in m)
    while e:
        if e & 1:
            result = mat_mul(result, base, n)
        base = mat_mul(base, base, n)
        e >>= 1
    return result


def prime_factors(p):
    out, q = set(), 2
    while q * q <= p:
        while p % q == 0:
            out.add(q)
            p //= q
        q += 1
    if p > 1:
        out.add(p)
    return out


def check_exact_period(m, p, n, what):
    """p is the period of m mod n: m^p = I and m^(p/q) != I for every prime q | p."""
    require(isinstance(p, int) and p >= 1, f"{what}: period {p!r} is not a positive integer")
    require(mat_pow(m, p, n) == IDENTITY, f"{what}: M^{p} is not the identity mod {n}")
    for q in prime_factors(p):
        require(mat_pow(m, p // q, n) != IDENTITY, f"{what}: M^{p // q} is already the identity")


def small_order(m, n):
    """Order by iteration; for the small moduli of the equivalence reports only."""
    m = tuple(v % n for v in m)
    acc, p = m, 1
    while acc != IDENTITY:
        acc = mat_mul(acc, m, n)
        p += 1
    return p


# ------------------------------------------------------------ permutations


def destinations(m, n):
    """Flat destination index of every source pixel under one pass of m.

    Built as outer sums of per-axis residues, in int32: every intermediate
    stays below n^2, far inside the int32 range for any image side here.
    """
    a, b, c, d = (v % n for v in m)
    r = np.arange(n, dtype=np.int32)
    xp = np.add.outer(a * r % n, b * r % n) % n
    yp = np.add.outer(c * r % n, d * r % n) % n
    return xp * n + yp


def scramble_pixels(px, m, n):
    """out[M (x, y)] = in[x, y] for a pixel array of shape (n, n) or (n, n, 3)."""
    flat_in = px.reshape(n * n, -1)
    out = np.empty_like(flat_in)
    out[destinations(m, n).ravel()] = flat_in
    return out.reshape(px.shape)


def spot_check_scramble(src, out, m, n, rng, points=256, what="scramble"):
    """Sampled points: out[M (x, y)] == in[x, y]."""
    a, b, c, d = (v % n for v in m)
    for x, y in rng.integers(0, n, size=(points, 2)).tolist():
        xp, yp = (a * x + b * y) % n, (c * x + d * y) % n
        require(
            np.array_equal(out[xp, yp], src[x, y]),
            f"{what}: pixel ({x}, {y}) did not move to ({xp}, {yp})",
        )


def unscramble_pixels(px, m, n):
    """Inverse of scramble_pixels: rec[x, y] = in[M (x, y)]."""
    flat = px.reshape(n * n, -1)
    return flat[destinations(m, n).ravel()].reshape(px.shape)


# ------------------------------------------------------------ PNM


def encode_pnm(px):
    n = px.shape[0]
    magic = b"P5" if px.ndim == 2 else b"P6"
    return magic + b"\n%d %d\n255\n" % (n, n) + px.tobytes()


def decode_pnm(data, n, channels, what):
    """Pixels of a canonical P5/P6 stream, checking the header byte for byte."""
    header = (b"P5" if channels == 1 else b"P6") + b"\n%d %d\n255\n" % (n, n)
    require(data[: len(header)] == header, f"{what}: header is not the canonical {header!r}")
    require(len(data) == len(header) + n * n * channels, f"{what}: raster has the wrong size")
    px = np.frombuffer(data, dtype=np.uint8, offset=len(header))
    return px.reshape((n, n) if channels == 1 else (n, n, 3))


def sum_squared_error(a, b):
    diff = a.astype(np.int64) - b.astype(np.int64)
    return int(np.sum(diff * diff))


# ------------------------------------------------------------ map families


def series(seeds, count):
    """First count terms, 1-indexed as in the package: terms[i - 1] is term i."""
    a, b = seeds
    terms = [a, b]
    while len(terms) < count:
        terms.append(terms[-2] + terms[-1])
    return terms


_FLT = {"f11lt": ((1, 1), "F(11)LT"), "f32lt": ((3, 2), "F(32)LT"), "f31lt": ((3, 1), "F(31)LT")}


def survey_map(family, i):
    """(label, entries) of one survey cell, from the README's family table."""
    if family == "gft":
        f = series((0, 1), i + 3)
        return f"GFT_{i}", (f[i - 1], f[i], f[i + 1], f[i + 2])
    if family == "gat":
        return f"GAT(k={i},v1)", (i, i + 1, 1, 1)
    if family == "triangular":
        return f"TRI(k={i},v0)", (0, 1, 1, i)
    seeds, name = _FLT[family]
    s, lucas = series(seeds, i + 1), series((2, 1), i + 1)
    return f"{name}_{i}", (s[i - 1], s[i], lucas[i - 1], lucas[i])


def standard_maps(lo, hi):
    """Both fixed maps, then every survey family over lo..hi, in the package's order."""
    maps = [("arnold", (2, 1, 1, 1)), ("fibonacci-q", (1, 1, 1, 0))]
    for i in range(lo, hi + 1):
        for fam in ("gft", "gat", "f11lt", "f32lt", "f31lt", "triangular"):
            maps.append(survey_map(fam, i))
    return maps


def readme_key_matrix():
    """f11lt i=6: (S_6, S_7 / L_6, L_7) with S seeded 1,1 and Lucas seeded 2,1."""
    return survey_map("f11lt", 6)[1]


def equivalence_partition(maps, n):
    """Classes of maps with equal orbit state sets on a pairwise-distinct reference.

    With distinct reference pixels, a state is determined by the matrix that
    produced it, so two maps share a state set exactly when their proper
    powers {M^k : 1 <= k < period} coincide.
    """
    groups = {}
    for label, m in maps:
        powers, acc = set(), tuple(v % n for v in m)
        while acc != IDENTITY:
            powers.add(acc)
            acc = mat_mul(acc, m, n)
        groups.setdefault(frozenset(powers), []).append(label)
    return [tuple(labels) for labels in groups.values()]


# ------------------------------------------------------------ reference values

#: Period table at N = 128, parameters 1..16 (RESULTS.md, all 80 cells match).
SURVEY_128 = {
    "gft": [128, 64, 128, 128, 16, 128, 128, 64, 128, 128, 8, 128, 128, 64, 128, 128],
    "gat": [128, 192, 64, 192, 128, 192, 32, 192, 128, 192, 64, 192, 128, 192, 16, 192],
    "f11lt": [128, 64, 128, 128, 16, 128, 128, 64, 128, 128, 8, 128, 128, 64, 128, 128],
    "f32lt": [64, 96, 192, 32, 192, 96, 64, 12, 192, 32, 192, 48, 64, 96, 192, 32],
    "f31lt": [64, 64, 32, 64, 64, 8, 64, 64, 32, 64, 64, 4, 64, 64, 32, 64],
}

#: Unimodular 2x2 matrices with entries in 0..99.
UNIMODULAR_0_99 = 24030

#: Pattern-equivalence classes of standard_family_maps(1, 8) at N = 3.
CLASSES_N3 = 19
FLAGGED_N3 = 13
