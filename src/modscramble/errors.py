"""Exception hierarchy, split by CLI exit-code category."""

import math

#: Most characters of an untrusted value that an error message shows.
SHOWN_CHARS = 80


def clip(value) -> str:
    """value for an error message: its repr, or an exception's own text, cut
    to SHOWN_CHARS characters with its length noted.

    Key files and images are untrusted input; a message that echoes a value
    from them (a field name, a family, a magic number) shows it through here,
    so a huge value cannot make a huge message. An int too long for repr (past
    the int-to-str digit limit) is shown by its digit count.
    """
    try:
        text = str(value) if isinstance(value, BaseException) else repr(value)
    except ValueError:  # an int past the digit limit, or a container holding one
        if not isinstance(value, int):
            return f"<{type(value).__name__} holding an int past the digit limit>"
        digits = int(abs(value).bit_length() * math.log10(2)) + 1
        digits -= abs(value) < 10 ** (digits - 1)
        return f"<int of {digits} digits>"
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
        super().__init__(self._message())

    def _message(self) -> str:
        return (
            f"term {self.n} of {self.family_name} exceeds the 64-bit signed range; "
            f"largest representable index for {self.family_name} is {self.max_index}"
        )


class ParameterOverflowError(SequenceOverflowError):
    """A map parameter i needs a sequence term past 64 bits.

    Carries the family tag, i as ``n``, and as ``max_index`` the largest i
    the family accepts.
    """

    def _message(self) -> str:
        return (
            f"{self.family_name} i = {self.n}: a term exceeds the 64-bit signed range; "
            f"largest accepted i for {self.family_name} is {self.max_index}"
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
    """An exhaustive search, a factorisation or a stored orbit would exceed its
    documented work or memory bound."""


class GridShapeError(DataError):
    """Image is not square, or sizes disagree between operands."""


class PnmFormatError(DataError):
    """Malformed or unsupported PNM stream."""


class KeyFormatError(DataError):
    """Key file violates the documented JSON schema."""
