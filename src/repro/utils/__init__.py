"""Shared low-level utilities used across the library.

The submodules here deliberately contain no clustering logic: they provide
reproducible random-number handling (:mod:`repro.utils.rng`), the
``timed`` helper the experiment drivers use (:mod:`repro.utils.timer`) and
the argument checks the public entries make once
(:mod:`repro.utils.validation`).
"""

from repro.utils.rng import as_generator
from repro.utils.timer import timed
from repro.utils.validation import (
    check_integer,
    check_points,
    check_positive,
    check_weights,
)

__all__ = [
    "as_generator",
    "timed",
    "check_integer",
    "check_points",
    "check_positive",
    "check_weights",
]
