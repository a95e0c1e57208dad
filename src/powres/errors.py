"""Domain exceptions shared across the package.

Each type carries the CLI exit status it maps to in exit_code: 1 for a
domain error, 2 for a usage error, 3 for a size cap.
"""


class PowresError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class NotPrime(PowresError):
    """The supplied modulus failed deterministic primality verification."""


class TooSmall(PowresError):
    """The prime is below the supported minimum (p >= 5)."""


class BadN(PowresError):
    """n is not a positive odd divisor of p - 1."""


class BadResidue(PowresError):
    """The residue argument is 0 mod p."""


class NotResidue(PowresError):
    """m is not an n-th power residue modulo p."""


class ScaleLimit(PowresError):
    """The request exceeds a size cap (enumeration, sieve, modulus)."""

    exit_code = 3


class NotEnumerated(ScaleLimit):
    """A container sized by the input would exceed the enumeration cap."""


class BadRadius(PowresError):
    """The interval radius K is not an integer in [1, (p - 1) / 2]."""


class ZeroFrequency(PowresError):
    """r = 0 mod p, where the envelope 1/(2*||r/p||) is undefined."""


class EmptyRange(PowresError):
    """The requested prime range contains no usable prime."""

    exit_code = 2


class InvariantViolation(PowresError):
    """A mathematical invariant failed: the computation itself is wrong."""
