"""Analytic abstraction.

An :class:`Analytic` bundles a vertex program factory with the metadata
Ariadne needs to reason about it declaratively:

* ``value_diff`` — the ``udf-diff`` comparison of the paper's apt query
  (absolute difference for PageRank/SSSP/WCC, euclidean distance for ALS);
* ``provenance_value`` — how a vertex value is projected into the
  ``value(x, d, i)`` provenance relation (identity for scalars; analytics
  with composite state project the semantically meaningful part);
* ``result_vector`` — the result as a vector of provenance values for the
  paper's normalized Lp error metric (Section 6.2.2).

``make_program()`` returns a *fresh* program instance per run so that any
program-local state (ALS convergence tracking) never leaks across runs.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.engine.vertex import VertexProgram


class Analytic:
    """Base class for the analytics Ariadne manages provenance for."""

    name = "analytic"

    def make_program(self) -> VertexProgram:
        raise NotImplementedError

    # -- apt query / provenance hooks -----------------------------------
    def value_diff(self, d1: Any, d2: Any) -> float:
        """Distance between two vertex values (the paper's udf-diff)."""
        if d1 is None or d2 is None:
            return float("inf")
        return abs(float(d1) - float(d2))

    def provenance_value(self, value: Any) -> Any:
        """Projection of a vertex value recorded as ``value(x, d, i)``."""
        return value

    # -- error metrics ---------------------------------------------------
    def result_vector(self, values: Dict[Any, Any]) -> List[float]:
        """The run result as a flat vector in sorted-vertex order: each
        vertex's provenance value as a float. ALS's vector values have
        no such projection; its quality measure is the RMSE
        (:func:`repro.analytics.als.rmse_of_run`)."""
        vector = []
        for v in sorted(values, key=repr):
            value = self.provenance_value(values[v])
            if isinstance(value, (tuple, list)):
                raise TypeError(
                    f"{self.name} has vector values and no result vector; "
                    f"measure it with repro.analytics.rmse_of_run")
            vector.append(float(value))
        return vector

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Analytic {self.name}>"
