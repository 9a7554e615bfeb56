"""Exception hierarchy, split by CLI exit-code category."""

#: Most characters of an untrusted value that an error message shows.
SHOWN_CHARS = 80


def clip(text: str) -> str:
    """text for an error message, cut to SHOWN_CHARS characters with its length noted.

    Key files and images are untrusted input; a message that echoes a value
    from them (a field name, a family, a magic number) shows it through here,
    so a huge value cannot make a huge message.
    """
    if len(text) <= SHOWN_CHARS:
        return text
    return f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


class ModScrambleError(Exception):
    """Base class for all library errors."""


class DataError(ModScrambleError):
    """Bad input data or formats (CLI exit code 2)."""


class MathError(ModScrambleError):
    """Arithmetic guards and map-validity failures (CLI exit code 3)."""


class IntegerOverflowError(MathError, OverflowError):
    """An exact computation left the signed 64-bit range."""


class SequenceOverflowError(IntegerOverflowError):
    """A sequence term is not representable in 64 bits.

    Carries ``max_index``, the largest index whose term still fits.
    """

    def __init__(self, family_name: str, n: int, max_index: int):
        self.family_name = family_name
        self.n = n
        self.max_index = max_index
        super().__init__(
            f"term {n} of {family_name} exceeds the 64-bit signed range; "
            f"largest representable index for {family_name} is {max_index}"
        )


class InvalidScramblerError(MathError):
    """The map is not a bijection mod N (det shares a factor with N)."""

    def __init__(self, label: str, n: int, det_mod: int, gcd: int):
        self.label = label
        self.n = n
        self.det_mod = det_mod
        self.gcd = gcd
        super().__init__(
            f"map {label} is not invertible mod {n}: "
            f"det = {det_mod} (mod {n}), gcd(det, {n}) = {gcd}"
        )


class WorkBoundError(MathError):
    """An exhaustive search or a factorisation would exceed its documented work bound."""


class GridShapeError(DataError):
    """Image is not square, or sizes disagree between operands."""


class PnmFormatError(DataError):
    """Malformed or unsupported PNM stream."""


class KeyFormatError(DataError):
    """Key file violates the documented JSON schema."""
