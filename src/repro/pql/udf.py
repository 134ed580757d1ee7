"""Function registry: PQL built-in functions plus user-defined functions.

PQL terms may contain function calls (``E = elem(V, 2)``) and body literals
may be boolean function calls (``udf_diff(D1, D2, $eps)``). The paper's
queries rely on a per-analytic ``udf-diff``; Ariadne's facade registers the
analytic's value-distance function here under that name.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional

from repro.errors import PQLSemanticError


def _elem(sequence: Any, index: Any) -> Any:
    """``elem(V, i)``: the i-th component of a composite value."""
    return sequence[int(index)]


def _outside(value: Any, low: Any, high: Any) -> bool:
    """``outside(v, lo, hi)``: v is outside the closed range [lo, hi].

    The paper's Query 7 checks that errors/ratings fall in 0-5; as printed
    the query conjoins ``e < 0, e > 5`` which is unsatisfiable — the intended
    reading is a range check, which this builtin provides.
    """
    return value < low or value > high


def _within(value: Any, low: Any, high: Any) -> bool:
    return low <= value <= high


BUILTIN_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "abs": abs,
    "sqrt": math.sqrt,
    "floor": math.floor,
    "ceil": math.ceil,
    "float": float,
    "int": int,
    "len": len,
    "min2": min,
    "max2": max,
    "elem": _elem,
    "outside": _outside,
    "within": _within,
    "is_inf": math.isinf,
    "is_finite": math.isfinite,
}


class FunctionRegistry:
    """Built-in functions plus user registrations for one query binding."""

    def __init__(self, extra: Optional[Dict[str, Callable[..., Any]]] = None):
        self._functions: Dict[str, Callable[..., Any]] = dict(BUILTIN_FUNCTIONS)
        if extra:
            for name, fn in extra.items():
                self.register(name, fn)

    def register(self, name: str, fn: Callable[..., Any]) -> None:
        if not callable(fn):
            raise PQLSemanticError(f"UDF {name!r} is not callable")
        self._functions[name] = fn

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def get(self, name: str) -> Callable[..., Any]:
        try:
            return self._functions[name]
        except KeyError:
            raise PQLSemanticError(f"unknown function {name!r}") from None
