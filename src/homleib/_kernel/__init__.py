"""The polynomial kernel (pure Python, see _polypure)."""

from ._polypure import (
    add_terms,
    merge_keys,
    mul_terms,
    pow_terms,
    scale_terms,
    sub_terms,
    substitute_terms,
    substitution,
)
