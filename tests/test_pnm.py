import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modscramble import (
    ImageGrid,
    ModScrambleError,
    PnmFormatError,
    ScrambleKey,
    make_arnold,
    make_flt,
    read_pnm,
    scramble,
    unscramble,
    write_pnm,
)
from modscramble import SequenceFamily as F
from modscramble.cli import main
from modscramble.keyfile import write_key_file
from modscramble.pnm import HEADER_MAX_BYTES, _parse_header, load_pnm, save_pnm
from modscramble.scramble import SIDE_BOUND

from conftest import grid, random_gray, random_rgb


def test_reads_the_3x3_reference_grid():
    data = b"P5 3 3 255 " + bytes(range(1, 10))
    img = read_pnm(data)
    assert img.side == 3 and img.channels == 1
    assert img.pixels.tolist() == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]


def test_canonical_one_pixel_file():
    img = grid([[0]])
    assert write_pnm(img) == b"P5\n1 1\n255\n\x00"


def test_writer_is_deterministic():
    img = random_gray(9, seed=2)
    assert write_pnm(img) == write_pnm(img)


def test_canonical_roundtrip_is_byte_exact():
    img = random_gray(17, seed=5)
    data = write_pnm(img)
    assert write_pnm(read_pnm(data)) == data


@given(n=st.integers(min_value=1, max_value=24), seed=st.integers(0, 2**32 - 1), color=st.booleans())
@settings(max_examples=100)
def test_roundtrip_random_grids(n, seed, color):
    img = random_rgb(n, seed=seed) if color else random_gray(n, seed=seed)
    assert read_pnm(write_pnm(img)) == img


def test_p6_color_roundtrip():
    img = random_rgb(5, seed=1)
    data = write_pnm(img)
    assert data.startswith(b"P6\n5 5\n255\n")
    assert read_pnm(data) == img


def test_comments_accepted_on_read_never_emitted():
    data = b"P5 # format\n# height and width\n3\n3 # still header\n255\n" + bytes(9)
    img = read_pnm(data)
    assert img.side == 3
    assert b"#" not in write_pnm(img)


def test_non_square_rejected_with_both_dimensions_named():
    data = b"P6 2 3 255 " + bytes(2 * 3 * 3)
    with pytest.raises(PnmFormatError) as err:
        read_pnm(data)
    assert "2" in str(err.value) and "3" in str(err.value)


def test_wrong_maxval_rejected():
    with pytest.raises(PnmFormatError) as err:
        read_pnm(b"P5 3 3 65535 " + bytes(18))
    assert "255" in str(err.value)


def test_truncated_data_rejected():
    with pytest.raises(PnmFormatError) as err:
        read_pnm(b"P5 3 3 255 " + bytes(5))
    assert "9" in str(err.value) and "5" in str(err.value)


def test_bytes_after_the_raster_are_ignored():
    img = random_rgb(5, seed=3)
    assert read_pnm(write_pnm(img) + b"\nP5 1 1 255 \x07 trailing") == img


def test_unknown_magic_rejected():
    with pytest.raises(PnmFormatError):
        read_pnm(b"P2 3 3 255 " + bytes(9))


def test_garbage_header_rejected():
    with pytest.raises(PnmFormatError):
        read_pnm(b"P5 three 3 255 " + bytes(9))
    with pytest.raises(PnmFormatError):
        read_pnm(b"P5 3 3")
    with pytest.raises(PnmFormatError, match="missing whitespace after maxval"):
        read_pnm(b"P5 3 3 255")


@pytest.mark.parametrize(
    "header",
    [
        b"P5 4_0 4_0 0255 ",
        b"P5 +40 40 255 ",
        b"P5 40 40 +255 ",
        b"P5 40 40 2_55 ",
    ],
)
def test_header_fields_are_ascii_digits_only(header, tmp_path, capsys):
    data = header + bytes(40 * 40)
    with pytest.raises(PnmFormatError, match="malformed header"):
        read_pnm(data)
    (tmp_path / "in.pgm").write_bytes(data)
    write_key_file(tmp_path / "k.json", ScrambleKey(make_arnold(), 40, 1))
    rc = main(["scramble", str(tmp_path / "in.pgm"), str(tmp_path / "k.json"), str(tmp_path / "out.pgm")])
    assert rc == 2
    assert "malformed header" in capsys.readouterr().err
    assert not (tmp_path / "out.pgm").exists()


def test_header_fields_may_have_leading_zeros():
    img = read_pnm(b"P5 003 03 0255 " + bytes(range(1, 10)))
    assert img.pixels.tolist() == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]


_HEADER_TOKENS = (
    st.integers(-2, 20).map(str)
    | st.sampled_from(["255", "0255", "4_0", "+3", "0x3", "1e1", "#c\n", "\u0663", "99999999999"])
    | st.text(alphabet="0123456789+-_# \n\t", min_size=1, max_size=5)
)


@given(
    magic=st.sampled_from([b"P5", b"P6"]),
    tokens=st.lists(_HEADER_TOKENS, max_size=4),
    separator=st.sampled_from([b" ", b"\n", b"\t"]),
    raster=st.integers(0, 3 * 20 * 20 + 2),
)
@settings(max_examples=50, deadline=None)
def test_read_pnm_fuzz_parses_or_raises_a_library_error(magic, tokens, separator, raster):
    data = separator.join([magic] + [t.encode() for t in tokens]) + separator + bytes(raster)
    try:
        img = read_pnm(data)
    except ModScrambleError:
        return
    assert isinstance(img, ImageGrid)
    assert img.side * img.side * img.channels <= raster


def test_scramble_survives_a_save_load_cycle():
    # lossless container mid-pipeline: recovery stays bit-exact
    img = random_gray(32, seed=10)
    key = ScrambleKey(make_flt(F.FIB11, 6), 32, 9)
    stored = write_pnm(scramble(img, key))
    assert unscramble(read_pnm(stored), key) == img


def test_a_huge_magic_is_shown_in_part(tmp_path, capsys):
    data = b"P" + b"5" * 1_000_000  # no whitespace: the whole stream is the magic
    with pytest.raises(PnmFormatError, match="unsupported magic") as err:
        read_pnm(data)
    assert len(str(err.value)) < 300
    (tmp_path / "big.pgm").write_bytes(data)
    write_key_file(tmp_path / "k.json", ScrambleKey(make_arnold(), 40, 1))
    rc = main(["unscramble", str(tmp_path / "big.pgm"), str(tmp_path / "k.json"), str(tmp_path / "out.pgm")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 300
    assert not (tmp_path / "out.pgm").exists()


@pytest.mark.parametrize("make_image", [random_gray, random_rgb], ids=["gray", "rgb"])
def test_save_pnm_writes_the_bytes_of_write_pnm(make_image, tmp_path):
    img = make_image(17, seed=6)
    key = ScrambleKey(make_flt(F.FIB11, 6), 17, 4)
    for grid_ in (img, scramble(img, key), unscramble(img, key)):
        save_pnm(tmp_path / "out.pnm", grid_)
        assert (tmp_path / "out.pnm").read_bytes() == write_pnm(grid_)


def test_read_pnm_of_bytes_is_a_read_only_view_of_its_raster():
    data = write_pnm(random_rgb(6, seed=7))
    img = read_pnm(data)
    assert np.shares_memory(img.pixels, np.frombuffer(data, dtype=np.uint8))
    assert not img.pixels.flags.writeable
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 0


def test_read_pnm_copies_a_mutable_buffer():
    data = bytearray(write_pnm(random_gray(5, seed=8)))
    img = read_pnm(data)
    expected = img.pixels.copy()
    data[-25:] = bytes(25)
    assert np.array_equal(img.pixels, expected)
    assert not np.shares_memory(img.pixels, np.frombuffer(data, dtype=np.uint8))


@pytest.mark.parametrize("n, channels", [(5, 1), (300, 1), (200, 3)])  # rasters in and past the header read
def test_load_pnm_reads_what_read_pnm_reads(tmp_path, n, channels):
    img = random_rgb(n, seed=n) if channels == 3 else random_gray(n, seed=n)
    data = b"P6 # a comment\n" if channels == 3 else b"P5\n"
    data += b"%d %d 255\n" % (n, n) + img.tobytes() + b"trailing bytes"
    (tmp_path / "in.pnm").write_bytes(data)
    loaded = load_pnm(tmp_path / "in.pnm")
    assert loaded == read_pnm(data) == img
    assert not loaded.pixels.flags.writeable


def test_a_raster_larger_than_its_file_is_refused_before_it_is_allocated(tmp_path):
    (tmp_path / "big.ppm").write_bytes(b"P6 46340 46340 255\n" + bytes(100))  # the largest side
    tracemalloc.start()
    try:
        with pytest.raises(PnmFormatError, match="expected 6442186800 bytes, got 100"):
            load_pnm(tmp_path / "big.ppm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * HEADER_MAX_BYTES


def test_a_header_past_the_bound_is_refused_by_load_pnm(tmp_path):
    data = b"P5 #" + b"c" * HEADER_MAX_BYTES + b"\n3 3 255\n" + bytes(9)
    assert read_pnm(data).side == 3  # read_pnm has no header bound
    comment = b"#" + b"c" * (HEADER_MAX_BYTES - 12) + b"\n"
    maxval_at_the_bound = b"P5 3 3 " + comment + b"255" + b"\n" + bytes(9)  # 255 ends at the bound
    assert read_pnm(maxval_at_the_bound).side == 3
    for long_header in (data, maxval_at_the_bound):
        (tmp_path / "long.pgm").write_bytes(long_header)
        with pytest.raises(PnmFormatError, match=f"header is longer than {HEADER_MAX_BYTES} bytes"):
            load_pnm(tmp_path / "long.pgm")
    # a file that ends inside a short header is truncated, not too long
    (tmp_path / "short.pgm").write_bytes(b"P5 3 3 255")
    with pytest.raises(PnmFormatError, match="missing whitespace after maxval"):
        load_pnm(tmp_path / "short.pgm")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("missing", [0, 1, 70000])  # raster bytes cut off the end
def test_load_pnm_reads_a_pipe_to_the_end_of_its_raster(tmp_path, missing):
    # a pipe has no size to check first: a short raster is found at its end
    n = 362  # a raster of 131044 bytes, past the first header read
    img = random_gray(n, seed=1)
    data = b"P5 %d %d 255\n" % (n, n) + img.tobytes()
    data = data[: len(data) - missing]
    fifo = tmp_path / "in.pgm"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        if missing == 0:
            assert load_pnm(fifo) == img
        else:
            with pytest.raises(PnmFormatError, match=f"expected {n * n} bytes, got {n * n - missing}"):
                load_pnm(fifo)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_that_claims_a_huge_raster_is_refused_at_its_end(tmp_path, capsys):
    # 6,442,186,800 raster bytes declared at the largest side, 5 sent: nothing
    # that size may be allocated
    side = SIDE_BOUND
    fifo = tmp_path / "in.ppm"
    os.mkfifo(fifo)
    write_key_file(tmp_path / "k.json", ScrambleKey(make_arnold(), 40, 1))

    def write():
        with open(fifo, "wb") as fh:
            fh.write(b"P6 %d %d 255\n" % (side, side) + bytes(5))

    writer = threading.Thread(target=write)
    writer.start()
    try:
        rc = main(["scramble", str(fifo), str(tmp_path / "k.json"), str(tmp_path / "out.pgm")])
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert rc == 2
    assert f"truncated pixel data: expected {side * side * 3} bytes, got 5" in capsys.readouterr().err
    assert not (tmp_path / "out.pgm").exists()


def test_a_header_side_above_the_bound_is_refused():
    with pytest.raises(PnmFormatError, match=f"image side 46341 is above the side bound of {SIDE_BOUND}"):
        _parse_header(b"P5 46341 46341 255\n")
    assert _parse_header(b"P6 46340 46340 255\n") == (SIDE_BOUND, 3, 19)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_that_streams_a_raster_past_the_side_bound_is_refused_at_its_header(tmp_path, capsys):
    # the header declares 10**10 bytes and the writer sends zeros until the pipe closes
    fifo = tmp_path / "in.pgm"
    os.mkfifo(fifo)
    write_key_file(tmp_path / "k.json", ScrambleKey(make_arnold(), 4, 1))
    sent = []

    def write():
        try:
            with open(fifo, "wb", buffering=0) as fh:
                fh.write(b"P5 100000 100000 255\n")
                while True:
                    sent.append(fh.write(bytes(1 << 16)))
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        rc = main(["scramble", str(fifo), str(tmp_path / "k.json"), str(tmp_path / "out.pgm")])
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert rc == 2
    assert "image side 100000 is above the side bound" in capsys.readouterr().err
    assert sum(sent) < 1 << 20  # the reader stopped at its header read
    assert not (tmp_path / "out.pgm").exists()


def test_load_pnm_reads_a_regular_raster_with_no_second_copy(tmp_path):
    img = random_rgb(2048, seed=12)
    save_pnm(tmp_path / "in.ppm", img)
    tracemalloc.start()
    try:
        loaded = load_pnm(tmp_path / "in.ppm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == img
    assert peak < 1.1 * img.pixels.nbytes
