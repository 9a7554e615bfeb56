"""Self-contained binary PNM codec: P5 (8-bit gray) and P6 (8-bit RGB).

Canonical writer output, byte for byte:

    b"P5\\n" (or b"P6\\n")
    b"<width> <height>\\n"
    b"255\\n"
    raw pixel bytes, row-major (3 bytes per pixel for P6)

The reader accepts any whitespace between header tokens and '#' comments
through the end of the line; comments are never emitted on write.
"""

import numpy as np

from .errors import PnmFormatError, clip
from .scramble import ImageGrid

_WHITESPACE = b" \t\n\r\x0b\x0c"


def _tokens(data: bytes):
    """Yield (token, next_offset) over header fields, skipping comments."""
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
            raise PnmFormatError("truncated header")
        j = i
        while j < n and data[j] not in _WHITESPACE:
            j += 1
        yield data[i:j], j
        i = j


def read_pnm(data: bytes) -> ImageGrid:
    """Decode a binary P5/P6 stream into a square grid."""
    toks = _tokens(data)
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
    # Exactly one whitespace byte separates the header from the raster.
    if offset >= len(data) or data[offset] not in _WHITESPACE:
        raise PnmFormatError("missing whitespace after maxval")
    start = offset + 1
    need = width * height * channels
    if len(data) - start < need:
        raise PnmFormatError(
            f"truncated pixel data: expected {need} bytes, got {len(data) - start}"
        )
    # A view of the raster in data; ImageGrid makes the one copy.
    px = np.frombuffer(data, dtype=np.uint8, count=need, offset=start)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return ImageGrid(px.reshape(shape))


def _header(img: ImageGrid) -> bytes:
    magic = b"P5" if img.channels == 1 else b"P6"
    return magic + b"\n%d %d\n255\n" % (img.side, img.side)


def write_pnm(img: ImageGrid) -> bytes:
    """Canonical, deterministic serialization of a grid, made with one copy of the pixels."""
    return b"".join((_header(img), img.pixels))


def load_pnm(path) -> ImageGrid:
    with open(path, "rb") as fh:
        return read_pnm(fh.read())


def save_pnm(path, img: ImageGrid) -> None:
    """Write the bytes of write_pnm(img) without joining them: header, then pixel buffer."""
    with open(path, "wb") as fh:
        fh.write(_header(img))
        fh.write(memoryview(img.pixels))
