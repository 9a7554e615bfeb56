"""The benchmark's three workloads: seeded inputs, operations and their checks.

An operation's ``run`` makes only library calls, and is the part that is
timed. Its ``check`` compares the output against the oracles in
``oracles.py`` and returns the output bytes that go into the run's digest.
Inputs come from ``numpy.random.default_rng([seed, stream])`` and are made
before the operation starts, so the library sees only finished inputs.

Every call goes through the module attribute (``pnm.read_pnm``, not a name
imported from it), so the traced mode can wrap it in place.
"""

import contextlib
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

import modscramble.cli  # noqa: F401  (loads every module of the package)
from oracles import (
    CLASSES_N3,
    FLAGGED_N3,
    SURVEY_128,
    UNIMODULAR_0_99,
    check_exact_period,
    decode_pnm,
    encode_pnm,
    equivalence_partition,
    mat_mul,
    mat_pow,
    readme_key_matrix,
    require,
    scramble_pixels,
    small_order,
    spot_check_scramble,
    standard_maps,
    sum_squared_error,
    survey_map,
    unscramble_pixels,
)

pnm = sys.modules["modscramble.pnm"]
keyfile = sys.modules["modscramble.keyfile"]
scr = sys.modules["modscramble.scramble"]
analysis = sys.modules["modscramble.analysis"]
cli = sys.modules["modscramble.cli"]

#: Seed of the fixed warm-up inputs, which do not depend on --seed.
WARMUP_SEED = 0


class Op:
    """One operation: ``run()`` is timed, ``check(output)`` returns digest bytes."""

    __slots__ = ("label", "run", "check", "pixels")

    def __init__(self, label, run, check, pixels):
        self.label = label
        self.run = run
        self.check = check
        self.pixels = pixels  # image pixels passed through scramble or unscramble


def _key_text(family, params, n, t):
    return json.dumps({"version": 1, "family": family, "params": params, "n": n, "iterations": t})


def _readme_key(n):
    """The README example key (f11lt i=6, t=20) at modulus n, and its matrix power."""
    return _key_text("f11lt", {"i": 6}, n, 20), mat_pow(readme_key_matrix(), 20, n)


# ------------------------------------------------------------ bulk-images

BULK_N = 2048
#: Channels of successive images: three gray, then one RGB.
BULK_CHANNELS = (1, 1, 1, 3)


def _roundtrip(key_text, data):
    key = keyfile.loads_key(key_text)
    scrambled = pnm.write_pnm(scr.scramble(pnm.read_pnm(data), key))
    recovered = scr.unscramble(pnm.read_pnm(scrambled), key)
    return scrambled, pnm.write_pnm(recovered)


def _bulk_op(key_text, m_t, px, rng):
    n, channels = px.shape[0], 3 if px.ndim == 3 else 1
    data = encode_pnm(px)
    check_rng = np.random.default_rng(rng.integers(2**63))

    def check(out):
        scrambled, recovered = out
        require(recovered == data, "roundtrip bytes differ from the input")
        spot_check_scramble(px, decode_pnm(scrambled, n, channels, "scrambled"), m_t, n, check_rng)
        return [scrambled, recovered]

    label = "gray" if channels == 1 else "rgb"
    return Op(label, lambda: _roundtrip(key_text, data), check, 2 * n * n)


def _bulk_image(rng, channels):
    shape = (BULK_N, BULK_N) if channels == 1 else (BULK_N, BULK_N, 3)
    return rng.integers(0, 256, shape, dtype=np.uint8)


def bulk_images(seed, tmp):
    rng = np.random.default_rng([seed, 1])
    key_text, m_t = _readme_key(BULK_N)
    for channels in itertools.cycle(BULK_CHANNELS):
        yield _bulk_op(key_text, m_t, _bulk_image(rng, channels), rng)


# ------------------------------------------------------------ fresh-keys

FRESH_MODULI = (257, 1031)
#: Base (N, B) pairs, drawn once from a fixed stream and then repeated.
FRESH_BASES = 200


def _invertible(rng, n):
    """Random entries (a, b, c, d) in [0, n) with gcd(det, n) = 1."""
    while True:
        a, b, c, d = (int(v) for v in rng.integers(0, n, 4))
        if math.gcd((a * d - b * c) % n, n) == 1:
            return a, b, c, d


def _fresh_base(rng):
    n = int(rng.integers(FRESH_MODULI[0], FRESH_MODULI[1] + 1))
    return n, _invertible(rng, n)


def _fresh_inputs(n, base, rng):
    """A raw key with random entries, and an image it scrambled.

    The key is P B P^-1 mod N for a random invertible P. Conjugation keeps
    the order of B, so the heavy-tailed period-search cost of a cycle of
    bases is the same for every seed, on keys and images that differ.
    """
    p = _invertible(rng, n)
    a, b, c, d = p
    det_inv = pow((a * d - b * c) % n, -1, n)
    p_inv = tuple(v * det_inv % n for v in (d, -b, -c, a))
    key = mat_mul(mat_mul(p, base, n), p_inv, n)
    t = int(rng.integers(1, 1000))
    key_text = _key_text("raw", {"entries": list(key)}, n, t)
    px = rng.integers(0, 256, (n, n), dtype=np.uint8)
    scrambled = encode_pnm(scramble_pixels(px, mat_pow(key, t, n), n))
    return key_text, scrambled, encode_pnm(px), n


def _unscramble_file(key_text, data):
    key = keyfile.loads_key(key_text)
    return pnm.write_pnm(scr.unscramble(pnm.read_pnm(data), key))


def _fresh_op(key_text, scrambled, expected, n):
    def check(out):
        require(out == expected, "unscrambled bytes differ from the original image")
        return [out]

    return Op("fresh", lambda: _unscramble_file(key_text, scrambled), check, n * n)


def fresh_keys(seed, tmp):
    base_rng = np.random.default_rng([0, 4])  # not seeded: the same bases for every seed
    bases = [_fresh_base(base_rng) for _ in range(FRESH_BASES)]
    rng = np.random.default_rng([seed, 2])
    for n, base in itertools.cycle(bases):
        yield _fresh_op(*_fresh_inputs(n, base, rng))


# ------------------------------------------------------------ research

FAMILIES = ("gft", "gat", "f11lt", "f32lt", "f31lt")
ATTACK_N = 1024
FILE_N = 512
EQUIVALENCE_MODULI = (3, 16, 64)
ATTACK_KINDS = ("salt-pepper", "gaussian", "speckle", "crop", "compress")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(label, argv, check_doc, pixels=0):
    """A CLI command whose stdout is checked by check_doc(stdout) -> digest bytes."""

    def check(out):
        code, stdout, stderr = out
        require(code == 0, f"exit code {code}: {stderr.strip()}")
        return [stdout.encode()] + check_doc(stdout)

    return Op(label, lambda: _cli(argv), check, pixels)


def _survey_op(n):
    argv = ["survey", "--families", ",".join(FAMILIES), "--range", "1..16",
            "--n", str(n), "--format", "json"]

    def check_doc(stdout):
        rows = json.loads(stdout)["rows"]
        require([r["family"] for r in rows] == list(FAMILIES), "survey rows out of order")
        for row in rows:
            require(not any(row["errors"]), f"survey cell errors: {row['errors']}")
            for i, p in enumerate(row["periods"], start=1):
                label, entries = survey_map(row["family"], i)
                check_exact_period(entries, p, n, f"{label} mod {n}")
            if n == 128:
                require(row["periods"] == SURVEY_128[row["family"]],
                        f"{row['family']} row differs from the golden table")
        return []

    return _cli_op(f"survey-{n}", argv, check_doc)


def _enumerate_op():
    def check_doc(stdout):
        doc = json.loads(stdout)
        require(doc["count"] == UNIMODULAR_0_99, f"count {doc['count']} != {UNIMODULAR_0_99}")
        require(doc["det_plus_one"] + doc["det_minus_one"] == doc["count"], "sign split")
        require(doc["matches_reference"] is True, "matches_reference is not true")
        return []

    return _cli_op("enumerate", ["enumerate", "--lo", "0", "--hi", "99", "--format", "json"],
                   check_doc)


def _period_op():
    def check_doc(stdout):
        check_exact_period((2, 4, 1, 1), json.loads(stdout)["period"], 1009, "(2,4/1,1) mod 1009")
        return []

    argv = ["period", "--family", "raw", "--entries", "2,4,1,1", "--n", "1009", "--format", "json"]
    return _cli_op("period", argv, check_doc)


def _attack_args(kind, rng):
    if kind == "salt-pepper":
        return ["--density", "0.05"]
    if kind == "gaussian":
        return ["--variance", "100"]
    if kind == "speckle":
        return ["--variance", "0.05"]
    if kind == "crop":
        r0, c0 = (int(v) for v in rng.integers(0, ATTACK_N - 256, 2))
        return ["--rect", f"{r0},{c0},256,256", "--fill", str(int(rng.integers(256)))]
    return ["--quality", "10"]


def _attack_op(kind, image_path, key_path, px, m_t, tmp, rng):
    """scramble -> attack -> unscramble; the recovered image must be the exact
    inverse permutation of the attacked one, with equal MSE on both sides."""
    attacked_path, recovered_path = tmp / f"{kind}-attacked.pgm", tmp / f"{kind}-recovered.pgm"
    argv = ["attack", str(image_path), str(key_path), "--attack", kind, *_attack_args(kind, rng),
            "--seed", str(int(rng.integers(2**31))), "--format", "json",
            "--attacked-out", str(attacked_path), "--recovered-out", str(recovered_path)]
    n = px.shape[0]
    scrambled = scramble_pixels(px, m_t, n)

    def check_doc(stdout):
        report = json.loads(stdout)
        attacked_bytes, recovered_bytes = attacked_path.read_bytes(), recovered_path.read_bytes()
        attacked = decode_pnm(attacked_bytes, n, 1, "attacked")
        recovered = decode_pnm(recovered_bytes, n, 1, "recovered")
        require(np.array_equal(recovered, unscramble_pixels(attacked, m_t, n)),
                "recovered image is not the inverse permutation of the attacked one")
        mse = sum_squared_error(scrambled, attacked) / px.size
        require(report["mse_on_scrambled"] == mse, "mse_on_scrambled differs from the oracle")
        require(report["mse_on_recovered"] == sum_squared_error(px, recovered) / px.size,
                "mse_on_recovered differs from the oracle")
        require(report["mse_on_scrambled"] == report["mse_on_recovered"], "MSE isometry broken")
        return [attacked_bytes, recovered_bytes]

    return _cli_op(f"attack-{kind}", argv, check_doc, 2 * n * n)


def _file_ops(tmp, rng):
    """File scramble then unscramble of one RGB image, through the CLI."""
    px = rng.integers(0, 256, (FILE_N, FILE_N, 3), dtype=np.uint8)
    key_text, m_t = _readme_key(FILE_N)
    src, key, out, back = (tmp / f for f in ("in512.ppm", "key512.json", "s512.ppm", "r512.ppm"))
    src.write_bytes(encode_pnm(px))
    key.write_text(key_text)
    check_rng = np.random.default_rng(rng.integers(2**63))

    def check_scrambled(stdout):
        data = out.read_bytes()
        spot_check_scramble(px, decode_pnm(data, FILE_N, 3, "scrambled"), m_t, FILE_N, check_rng)
        return [data]

    def check_recovered(stdout):
        data = back.read_bytes()
        require(data == src.read_bytes(), "file roundtrip bytes differ from the input")
        return [data]

    pixels = FILE_N * FILE_N
    return [
        _cli_op("scramble-512", ["scramble", str(src), str(key), str(out)], check_scrambled, pixels),
        _cli_op("unscramble-512", ["unscramble", str(out), str(key), str(back)], check_recovered,
                pixels),
    ]


def _distinct_reference(n, rng):
    """An n x n RGB grid whose pixels are pairwise distinct (a shuffled 24-bit id)."""
    if n == 3:  # the acceptance suite's reference, A = (1 2 3 / 4 5 6 / 7 8 9)
        return scr.ImageGrid(np.arange(1, 10, dtype=np.uint8).reshape(3, 3))
    ids = rng.permutation(n * n).astype(np.uint32)
    rgb = np.stack([(ids >> 16) & 255, (ids >> 8) & 255, ids & 255], axis=-1)
    return scr.ImageGrid(rgb.astype(np.uint8).reshape(n, n, 3))


def _equivalence_op(n, rng):
    reference = _distinct_reference(n, rng)
    expected = equivalence_partition(standard_maps(1, 8), n)
    if n == 3:
        require(len(expected) == CLASSES_N3, "oracle disagrees with the N = 3 class count")
    orbit_pixels = sum(small_order(m, n) - 1 for _, m in standard_maps(1, 8)) * n * n

    def run():
        return analysis.equivalence_classes(analysis.standard_family_maps(1, 8), reference, n)

    def check(report):
        classes = list(report.classes)
        require(classes == expected, f"classes at N = {n} differ from the subgroup oracle")
        if n == 3:
            require(len(classes) == CLASSES_N3, f"{len(classes)} classes, expected {CLASSES_N3}")
            flagged = sum(len(c) > 1 for c in classes)
            require(flagged == FLAGGED_N3, f"{flagged} flagged, expected {FLAGGED_N3}")
        return [json.dumps(classes).encode()]

    return Op(f"equivalence-{n}", run, check, orbit_pixels)


def _attack_inputs(tmp, rng):
    px = rng.integers(0, 256, (ATTACK_N, ATTACK_N), dtype=np.uint8)
    key_text, m_t = _readme_key(ATTACK_N)
    image_path, key_path = tmp / "in1024.pgm", tmp / "key1024.json"
    image_path.write_bytes(encode_pnm(px))
    key_path.write_text(key_text)
    return image_path, key_path, px, m_t


def research(seed, tmp):
    rng = np.random.default_rng([seed, 3])
    image_path, key_path, px, m_t = _attack_inputs(tmp, rng)
    cycle = [_survey_op(128), _survey_op(1024), _enumerate_op(), _period_op()]
    cycle += [_attack_op(kind, image_path, key_path, px, m_t, tmp, rng)
              for kind in ATTACK_KINDS]
    cycle += _file_ops(tmp, rng)
    cycle += [_equivalence_op(n, rng) for n in EQUIVALENCE_MODULI]
    yield from itertools.cycle(cycle)


# ------------------------------------------------------------ entry points

_STREAMS = {"bulk-images": bulk_images, "fresh-keys": fresh_keys, "research": research}

#: Operations after which each stream repeats its mix of work; runs stop
#: on a whole cycle, so every run measures the same mix.
CYCLE = {"bulk-images": len(BULK_CHANNELS), "fresh-keys": FRESH_BASES, "research": 4 + len(ATTACK_KINDS) + 2 + len(EQUIVALENCE_MODULI)}


def operations(name, seed, tmp: Path):
    """Endless, seed-determined stream of operations for one workload."""
    tmp.mkdir(parents=True, exist_ok=True)
    return _STREAMS[name](seed, tmp)


def write_warmup(name, directory: Path):
    """Write the fixed inputs of the workload's warm-up operation."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WARMUP_SEED, 0])
    if name == "bulk-images":
        (directory / "key.json").write_text(_readme_key(BULK_N)[0])
        (directory / "in.pgm").write_bytes(encode_pnm(_bulk_image(rng, 1)))
    elif name == "fresh-keys":
        key_text, scrambled, _, _ = _fresh_inputs(*_fresh_base(rng), rng)
        (directory / "key.json").write_text(key_text)
        (directory / "in.pgm").write_bytes(scrambled)
    else:
        _attack_inputs(directory, rng)


def load_warmup(name, directory: Path):
    """The warm-up operation as a callable, from files written by write_warmup.

    It reads only files, so a fresh interpreter can time it after a cold
    import without loading anything the import itself would not.
    """
    if name == "research":
        argv = ["attack", str(directory / "in1024.pgm"), str(directory / "key1024.json"),
                "--attack", "gaussian", "--format", "json"]
        return lambda: _cli(argv)
    key_text, data = (directory / "key.json").read_text(), (directory / "in.pgm").read_bytes()
    if name == "bulk-images":
        return lambda: _roundtrip(key_text, data)
    return lambda: _unscramble_file(key_text, data)
