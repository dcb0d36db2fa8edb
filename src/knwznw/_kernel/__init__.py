"""Arithmetic kernel: exact rationals, dense polynomial helpers and
dict-keyed integer forms (D, {key: int}).  Module actions, Sugawara
images and the structure constants of products and brackets are summed
as integer forms; Rat is built from one only at a public boundary.

The implementation lives in ``_pure``; this package re-exports it, so
calls between kernel functions stay inside the submodule.  ``BACKEND``
names the implementation and is printed in ``knwznw verify`` output.
"""

from ._pure import (RAT0, RAT1, ZERO_FORM, Rat, add_scaled, canonical, form,
                    merge, poly_add, poly_deriv, poly_divmod, poly_eval,
                    poly_gcd, poly_mul, poly_neg, poly_scale, poly_sub,
                    poly_trim, rats, widen)

BACKEND = "python"

__all__ = [
    "BACKEND", "Rat", "RAT0", "RAT1", "poly_trim", "poly_add", "poly_neg",
    "poly_sub", "poly_scale", "poly_mul", "poly_divmod", "poly_gcd",
    "poly_deriv", "poly_eval", "ZERO_FORM", "form", "add_scaled",
    "canonical", "rats", "merge", "widen",
]
