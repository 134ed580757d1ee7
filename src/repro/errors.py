"""Exception hierarchy for the repro (Ariadne reproduction) library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Invalid graph construction or access (unknown vertex, bad edge...)."""


class EngineError(ReproError):
    """Vertex-centric engine misuse or internal failure."""


class VertexProgramError(EngineError):
    """An analytic's vertex program raised during ``compute``.

    Wraps the original exception and records the vertex id and superstep so
    crash-culprit determination has a starting point even without provenance.
    """

    def __init__(self, vertex_id: object, superstep: int, cause: BaseException):
        self.vertex_id = vertex_id
        self.superstep = superstep
        self.cause = cause
        super().__init__(
            f"vertex program failed at vertex {vertex_id!r}, "
            f"superstep {superstep}: {cause!r}"
        )


class ProvenanceError(ReproError):
    """Provenance capture or store failure."""


class PQLError(ReproError):
    """Base class for PQL (provenance query language) errors."""


class PQLSyntaxError(PQLError):
    """Lexing or parsing failed.

    Carries the 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class PQLSemanticError(PQLError):
    """The query parsed but violates a semantic restriction.

    Examples: unsafe rule (unbound head variable), unstratifiable negation,
    arity mismatch with a built-in provenance predicate.
    """


class PQLCompatibilityError(PQLSemanticError):
    """The query is not VC-compatible (Definition 4.1 of the paper) or is
    requested in an evaluation mode its direction class does not allow
    (e.g. online evaluation of a backward query)."""


class BudgetExceededError(PQLError):
    """A query evaluation exceeded one of its per-request budgets.

    ``kind`` names the exhausted resource — ``"depth"`` (provenance layers
    visited), ``"rows"`` (derived result rows), ``"timeout"`` (wall-clock
    deadline), or ``"cancelled"`` (the caller revoked the budget, e.g. a
    server request was cancelled) — and ``limit`` is the configured bound,
    so callers can surface a structured error without parsing the message.
    """

    def __init__(self, kind: str, limit: object, detail: str = ""):
        self.kind = kind
        self.limit = limit
        self.detail = detail
        message = f"query budget exceeded: {kind} (limit {limit!r})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)

    def to_dict(self) -> dict:
        return {"error": "budget_exceeded", "kind": self.kind,
                "limit": self.limit, "detail": self.detail}


class BenchmarkError(ReproError):
    """Benchmark harness configuration or execution failure."""
