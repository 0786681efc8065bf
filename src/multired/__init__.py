"""Multifraction reduction in homogeneous gcd-monoids.

`validate` checks a presentation's atom names and homogeneity only; the
atom table of a `MonoidContext` refuses one that is not complemented at
its first element, naming the relation."""

from .presentation import (
    Presentation,
    parse_presentation,
    format_presentation,
    preset,
    preset_names,
    validate,
)
from .monoid import (
    BasicTable,
    Caps,
    Element,
    IDENTITY,
    MonoidContext,
    Side,
)
from .multifraction import (
    EMPTY,
    Multifraction,
    format_multifraction,
    from_signed_word,
    inverse,
    parse_multifraction,
    product,
    unit,
)
from . import harness, reduction, vankampen

__all__ = [
    "Presentation",
    "parse_presentation",
    "format_presentation",
    "preset",
    "preset_names",
    "validate",
    "BasicTable",
    "Caps",
    "Element",
    "IDENTITY",
    "MonoidContext",
    "Side",
    "EMPTY",
    "Multifraction",
    "format_multifraction",
    "from_signed_word",
    "inverse",
    "parse_multifraction",
    "product",
    "unit",
    "harness",
    "reduction",
    "vankampen",
]
