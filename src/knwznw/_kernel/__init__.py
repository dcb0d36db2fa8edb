"""Arithmetic kernel: exact rationals and dense polynomial helpers.

The implementation lives in ``_pure``; this package re-exports it, so
calls between kernel functions stay inside the submodule.  ``BACKEND``
names the implementation and is printed in ``knwznw verify`` output.
"""

from ._pure import (RAT0, RAT1, Rat, poly_add, poly_deriv, poly_divmod,
                    poly_eval, poly_gcd, poly_mul, poly_neg, poly_scale,
                    poly_sub, poly_trim)

BACKEND = "python"

__all__ = [
    "BACKEND", "Rat", "RAT0", "RAT1", "poly_trim", "poly_add", "poly_neg",
    "poly_sub", "poly_scale", "poly_mul", "poly_divmod", "poly_gcd",
    "poly_deriv", "poly_eval",
]
