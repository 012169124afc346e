"""Exception types shared across the toolkit."""


class FieldConstructionError(ValueError):
    """Raised when a field spec is invalid (reducible modulus, non-primitive generator)."""


class SingularMatrixError(Exception):
    """Raised when an inversion or solve hits a rank-deficient matrix.

    Carries the rank that elimination achieved before giving up.
    """

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class PacketFormatError(ValueError):
    """Base class for wire-format parse failures."""


class BadMagicError(PacketFormatError):
    """Frame does not start with the expected magic byte."""


class TruncatedFrameError(PacketFormatError):
    """Frame ends before the advertised header or payload is complete."""


class UnknownSchemeError(PacketFormatError):
    """Frame carries a scheme id this toolkit does not know."""


class SchemeMismatchError(ValueError):
    """Packet fed to a decoder configured for a different scheme."""


class InsufficientPacketsError(ValueError):
    """Fixed-rate decode attempted with fewer packets than required."""


class DuplicatePacketError(ValueError):
    """Fixed-rate decode received the same coded row more than once."""
