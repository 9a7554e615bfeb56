"""Self-contained binary PNM codec: P5 (8-bit gray) and P6 (8-bit RGB).

Canonical writer output, byte for byte:

    b"P5\\n" (or b"P6\\n")
    b"<width> <height>\\n"
    b"255\\n"
    raw pixel bytes, row-major (3 bytes per pixel for P6)

The reader accepts any whitespace between header tokens and '#' comments
through the end of the line; comments are never emitted on write. Bytes
after the raster are ignored. read_pnm and load_pnm share one header parser,
which refuses a side above SIDE_BOUND; load_pnm reads at most
HEADER_MAX_BYTES of header and then exactly the raster the header declares.
"""

import os
import stat

import numpy as np

from .errors import PnmFormatError, clip
from .scramble import SIDE_BOUND, ImageGrid

_WHITESPACE = b" \t\n\r\x0b\x0c"

#: Most bytes of a file that load_pnm reads as its header, comments included:
#: a longer header is refused, so an endless input cannot make it read forever.
HEADER_MAX_BYTES = 1 << 16
#: Most bytes load_pnm asks of an input that is not a regular file in one read.
_STREAM_CHUNK = 1 << 20


def _tokens(data: bytes, ended):
    """Yield (token, next_offset) over header fields, skipping comments.

    ended(message) makes the error raised when data ends inside the header.
    """
    i = 0
    n = len(data)
    while True:
        while i < n:
            if data[i] in _WHITESPACE:
                i += 1
            elif data[i] == ord("#"):
                nl = data.find(b"\n", i)
                i = n if nl < 0 else nl + 1
            else:
                break
        if i >= n:
            raise ended("truncated header")
        j = i
        while j < n and data[j] not in _WHITESPACE:
            j += 1
        yield data[i:j], j
        i = j


def _parse_header(data: bytes, bound: int | None = None) -> tuple[int, int, int]:
    """(side, channels, raster offset) of the square P5/P6 header that starts data.

    data is the first bound bytes of a longer stream when bound is given: a
    header that runs to the end of a full bound is then reported as too long.
    """

    def ended(message):
        if bound is not None and len(data) >= bound:
            message = f"header is longer than {bound} bytes"
        return PnmFormatError(message)

    toks = _tokens(data, ended)
    magic, _ = next(toks)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise PnmFormatError(f"unsupported magic {clip(magic)}; only binary P5/P6")
    fields = []
    offset = 0
    for name in ("width", "height", "maxval"):
        try:
            tok, offset = next(toks)
            if not tok.isdigit():  # ASCII digits only: int() also takes b"+5" and b"4_0"
                raise ValueError(tok)
            fields.append(int(tok))
        except ValueError:
            raise PnmFormatError(f"malformed header: bad {name}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmFormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PnmFormatError(f"maxval must be 255 (8-bit), got {maxval}")
    if width != height:
        raise PnmFormatError(
            f"image is {width} wide x {height} high; a square image is required"
        )
    if width > SIDE_BOUND:
        raise PnmFormatError(f"image side {width} is above the side bound of {SIDE_BOUND}")
    # Exactly one whitespace byte separates the header from the raster.
    if offset >= len(data):
        raise ended("missing whitespace after maxval")
    if data[offset] not in _WHITESPACE:
        raise PnmFormatError("missing whitespace after maxval")
    return width, channels, offset + 1


def _truncated(need: int, got: int) -> PnmFormatError:
    return PnmFormatError(f"truncated pixel data: expected {need} bytes, got {got}")


def _shape(side: int, channels: int) -> tuple[int, ...]:
    return (side, side) if channels == 1 else (side, side, 3)


def read_pnm(data: bytes) -> ImageGrid:
    """Decode a binary P5/P6 stream into a square grid.

    The grid of an immutable bytes input is a read-only view of its raster,
    made with no copy. The raster of a bytearray is copied, so the caller
    may go on changing the bytearray.
    """
    side, channels, start = _parse_header(data)
    need = side * side * channels
    if len(data) - start < need:
        raise _truncated(need, len(data) - start)
    px = np.frombuffer(data, dtype=np.uint8, count=need, offset=start)
    px = px.reshape(_shape(side, channels))
    return ImageGrid._own(px) if isinstance(data, bytes) else ImageGrid(px)


def _header(img: ImageGrid) -> bytes:
    magic = b"P5" if img.channels == 1 else b"P6"
    return magic + b"\n%d %d\n255\n" % (img.side, img.side)


def write_pnm(img: ImageGrid) -> bytes:
    """Canonical, deterministic serialization of a grid, made with one copy of the pixels."""
    return b"".join((_header(img), img.pixels))


def _read_stream(fh, head: bytes, need: int) -> bytes:
    """Exactly need bytes: head, then reads of at most _STREAM_CHUNK from fh.

    The bytes are held only as they arrive, so a header that declares more
    than the stream holds costs no more memory than the stream.
    """
    chunks = [head[:need]]
    got = len(chunks[0])
    while got < need:
        chunk = fh.read(min(need - got, _STREAM_CHUNK))
        if not chunk:
            raise _truncated(need, got)
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def load_pnm(path) -> ImageGrid:
    """Read a P5/P6 file: at most HEADER_MAX_BYTES of header, then exactly its raster.

    A side above SIDE_BOUND is refused from the header read alone. A regular
    file that holds fewer raster bytes than its header declares is refused
    before the raster is allocated, else its raster is read with one call.
    Any other input (a pipe, a device) is read in chunks, so a header that
    claims more than arrives is refused at the end of the stream.
    """
    with open(path, "rb") as fh:
        head = fh.read(HEADER_MAX_BYTES)
        side, channels, start = _parse_header(head, HEADER_MAX_BYTES)
        need = side * side * channels
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raster = _read_stream(fh, head[start:], need)
        elif info.st_size - start < need:
            raise _truncated(need, info.st_size - start)
        else:
            fh.seek(start)
            raster = fh.read(need)
            if len(raster) < need:  # the file shrank after its size was read
                raise _truncated(need, len(raster))
    px = np.frombuffer(raster, dtype=np.uint8)
    return ImageGrid._own(px.reshape(_shape(side, channels)))


def save_pnm(path, img: ImageGrid) -> None:
    """Write the bytes of write_pnm(img) without joining them: header, then pixel buffer."""
    with open(path, "wb") as fh:
        fh.write(_header(img))
        fh.write(memoryview(img.pixels))
