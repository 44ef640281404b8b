"""Exception hierarchy; the CLI maps these onto exit codes."""
from __future__ import annotations


class ToricresError(Exception):
    """Base class for all package errors."""


class MathFailure(ToricresError):
    """The computation is well-posed but the answer does not exist or a
    mathematical precondition fails (degenerate system, bad twist...)."""
    exit_code = 1


class InputError(ToricresError):
    """Malformed or inconsistent user input."""
    exit_code = 2


class ResourceGuard(ToricresError):
    """A configured size/time guard tripped before completion."""
    exit_code = 3


class UnsupportedGeometryError(MathFailure):
    """Geometry outside the supported range (torsion classes, bad span...)."""


class ExactnessFailure(MathFailure):
    """A complex's determinant was asked for, but its exactness proof
    failed: the complex has nonzero generic homology."""
