# spectral_forge/errors.py
"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: schema problems are exit 2, failed
verifications exit 1, and constructions outside the supported hypotheses
(including evaluation at punctures) exit 64.
"""

from __future__ import annotations

__all__ = [
    "SpectralForgeError",
    "SchemaError",
    "VerificationError",
    "UnsupportedError",
    "PunctureError",
    "InvalidFamilyError",
    "MultipleFibreRestrictionError",
    "NoSurjectionError",
]


class SpectralForgeError(Exception):
    """Base class for package-specific failures."""


class SchemaError(SpectralForgeError):
    """Scenario file malformed or self-inconsistent."""


class VerificationError(SpectralForgeError):
    """A property or consistency check failed beyond tolerance."""


class UnsupportedError(SpectralForgeError):
    """Requested construction lies outside the supported hypotheses."""


class PunctureError(UnsupportedError):
    """Evaluation hit a zero or pole of a rational map."""


class InvalidFamilyError(SpectralForgeError):
    """Family data violates a structural invariant (e.g. negative c2)."""


class MultipleFibreRestrictionError(UnsupportedError):
    """Restriction at a multiple fibre; use the cyclic cover instead."""


class NoSurjectionError(SpectralForgeError):
    """No surjection onto the requested line bundle exists on this fibre."""
