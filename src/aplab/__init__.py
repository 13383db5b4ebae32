"""Numerical laboratory for time discretizations of stiff anisotropic
transport: four schemes for the field-aligned toy model, two for the
rigid-rotation toy model, with exact references, stability and conditioning
diagnostics, and a reproducible CSV experiment runner. Import each name from
its module (``aplab.grid``, ``aplab.experiments``, ...); the package exports
only ``__version__``."""

__version__ = "0.1.0"

__all__ = ["__version__"]
