"""Layer programs: one rule, one layer, one pass over column batches.

Section 5.1's layered evaluation visits the provenance graph a layer at a
time, and every store hands out a layer of one relation as one column batch
with each vertex's rows contiguous. A *layer program* evaluates a rule plan
against that shape directly: the rule's location variable starts as a
**column** holding every evaluation site of the layer, each plan step
transforms the whole column set at once, and the rule runs once per (rule,
layer) instead of once per (rule, layer, vertex) — the superstep-as-a-join
shape. Online, the layer is the superstep being evaluated and the sites
are the vertices it executed (``repro.runtime.db.OnlineDatabase``).

* A **stored scan** reads one whole-layer batch per layer it can match in
  (``store.column_batches``: a sealed slab's
  :class:`~repro.provenance.store.ColumnBatch`, the in-memory store's
  :class:`~repro.provenance.store.Layer`, or the online superstep's
  frames and stored slices). Known scalar positions (the anchored time,
  literals) become one selection pass over a column — a slab's string
  literals compare as dictionary codes, never decoded. The location joins
  through the batch's ``vertex -> (start, count)`` group table, so no
  location column is ever decoded and membership in the table *is* the
  location check. Known columnar positions (a remote location bound by an
  earlier atom's payload, a time bound by ``evolution``) turn the scan into
  a hash join keyed on (location, those positions), built over the probed
  vertices' group ranges only; a columnar time joins each slab with just
  the input rows that ask for it.
* A **derived scan** (``back_trace(Y, J)``, ``!change(Y, J)``) is a
  stored scan too: the database's derived facts are layers of the same
  shape (``db.derived``, one per superstep that derived rows, the layer of
  a bound time and the ``None`` layer only when one is bound). A head
  predicate that also has stored rows (a query that derives into
  ``superstep``) reads both: per input row, the stored matches, then the
  derived ones.
* **Locality** (``db.locality``, the online view): an input row whose
  location is not its site reads only what that vertex shipped to the site
  — the layers of its relation up to the superstep of its last message
  there (``db.shipped_through`` / ``db.shipped_layers``), through the same
  matchers. A scan the compiler proved complete (``ScanStep.complete``: a
  sender's rows before the anchor) reads like a local one, no watermark.
* An **exists scan** with absorbed filters (``fwd_lineage(Y, W, J), J < I``)
  runs once per distinct row of the columns it reads, not once per input.
* **Late materialization**: only the columns bound by variables a later
  step or the head reads are gathered; over a slab everything else stays
  an undecoded mmap'd segment.
* A **copy program** (:class:`CopyProgram`) replaces the whole plan of a
  rule that only projects one relation at the location and anchor —
  Query 2's capture rules: its head rows are the batch's rows, per site.
* **Static relations** (``edge`` / ``vertex``) are one batch per
  database, built from the graph's adjacency lists on first read
  (``db.static``); any site reads them, locality or not.
* **Free mode** (static setup rules only): the location is a bind, so
  the scan reads the whole relation — its stored, then its derived
  batches — once per input row.
* **Aggregate heads** reduce the program's solutions per group: the
  distinct witnesses (every body variable's value) in enumeration order,
  so a float ``sum`` / ``avg`` accumulates in one fixed order.

**Identity.** A program computes, for every site, exactly the solutions a
nested-loop join over the plan computes there: selection and joins compare
with Python ``==``, rows stay in site-major order with each partition's
matches in batch row order (a derived partition's in arrival order, the
order an aggregate's float sums are pinned in), and head rows are
deduplicated by the ``Database.add_rows`` insert. A key no hash table can
hold (a pickle-lane column) is matched by equality inside the location's
group range. Moving the site loop inside only changes *when* a rule's rows
are inserted (after all sites instead of after each), which a
non-recursive stratum cannot observe and a recursive one absorbs in its
fixpoint loop. :mod:`repro.pql.seminaive` is the independent
row-at-a-time oracle the tests hold every program to.

``QueryBudget``: every selection, build, probe, gather and head loop charges
its row count up front and ticks the budget once per
:data:`VECTOR_TICK_STRIDE` rows, so cancellation and deadlines fire inside
a layer, between kernels.
"""

from __future__ import annotations

import operator
import time
from functools import reduce
from itertools import chain, compress, count, repeat
from operator import itemgetter
from typing import (
    Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.errors import PQLError, PQLSemanticError
from repro.pql.ast import Aggregate, BinOp, Const, FuncCall, Param, Term, Var
from repro.pql.eval import _compare, _select_plan
from repro.pql.plan import (
    BIND,
    CHECK_TERM,
    CHECK_VAR,
    CallStep,
    CompareStep,
    CompiledRule,
    RulePlan,
    ScanStep,
)
from repro.pql.udf import FunctionRegistry
from repro.provenance.model import CORE_SCHEMAS, STATIC

Row = Tuple[Any, ...]

#: Kernels tick the query budget once per this many processed rows.
VECTOR_TICK_STRIDE = 256

#: Hidden column carrying input-row indices through absorbed post-filters.
_SRC = "\x00src"
#: The location of an input row whose exists scan has passed: no group's.
_PASSED = object()


# ---------------------------------------------------------------------------
# evaluation state and terms
# ---------------------------------------------------------------------------
class _State:
    """``scalars`` holds the per-run constants (the anchor time, scalar
    binds); ``columns`` maps every other live variable to one of ``n``
    equal-length sequences — the location variable from the start."""

    __slots__ = ("functions", "scalars", "columns", "n")

    def __init__(self, functions: FunctionRegistry, scalars: Dict[str, Any],
                 columns: Dict[str, Any], n: int) -> None:
        self.functions, self.scalars = functions, scalars
        self.columns, self.n = columns, n

    def take(self, idx: List[int], keep: Set[str],
             subset: bool = False) -> None:
        """Gather rows ``idx`` of the columns in ``keep`` (the rest are
        dead). ``subset``: ``idx`` is an ascending selection, so a full-
        length one is the identity."""
        if subset and len(idx) == self.n:
            return
        self.columns = {
            name: list(map(col.__getitem__, idx))
            for name, col in self.columns.items() if name in keep
        }
        self.n = len(idx)


class _Term:
    """A compiled term. A ``scalar`` term depends on no column and has a
    ``value``; any other has a ``column`` computed in one pass over its
    operand columns (``var`` names the column a plain variable reads).
    Mirrors :func:`repro.pql.eval.eval_term`."""

    __slots__ = ("fn", "scalar", "var")

    def __init__(self, fn: Any, scalar: bool, var: Optional[str] = None) -> None:
        self.fn, self.scalar, self.var = fn, scalar, var

    def value(self, state: _State) -> Any:
        return self.fn(state)

    def column(self, state: _State) -> Any:
        if self.scalar:
            return [self.fn(state)] * state.n
        return self.fn(state)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}


def _compile_term(term: Term, col_vars: Set[str]) -> _Term:
    if isinstance(term, Var):
        name = term.name
        if name in col_vars:
            return _Term(lambda st: st.columns[name], False, name)

        def load(st: _State) -> Any:
            try:
                return st.scalars[name]
            except KeyError:
                raise PQLError(
                    f"internal: variable {name} unbound at evaluation"
                ) from None

        return _Term(load, True)
    if isinstance(term, Const):
        value = term.value
        return _Term(lambda st: value, True)
    if isinstance(term, BinOp):
        if term.op not in _ARITHMETIC:
            raise PQLError(f"unknown operator {term.op!r}")
        op = _ARITHMETIC[term.op]
        left, right = _compile_term(term.left, col_vars), _compile_term(
            term.right, col_vars)
        if left.scalar and right.scalar:
            return _Term(lambda st: op(left.value(st), right.value(st)), True)
        return _Term(
            lambda st: list(map(op, left.column(st), right.column(st))), False)
    if isinstance(term, FuncCall):
        args, name = [_compile_term(a, col_vars) for a in term.args], term.name
        # Looked up when reached: an unknown function only errors on a
        # branch that gets there.
        if all(a.scalar for a in args):
            return _Term(lambda st: st.functions.get(name)(
                *[a.value(st) for a in args]), True)
        return _Term(lambda st: list(map(
            st.functions.get(name), *[a.column(st) for a in args])), False)
    if isinstance(term, Param):
        raise PQLSemanticError(f"unbound parameter ${term.name}")
    raise PQLError(f"cannot evaluate term {term!r}")


def _term_vars(term: Any, into: Set[str]) -> None:
    if isinstance(term, Var):
        into.add(term.name)
    elif isinstance(term, BinOp):
        _term_vars(term.left, into)
        _term_vars(term.right, into)
    elif isinstance(term, FuncCall):
        for a in term.args:
            _term_vars(a, into)


def _step_reads(step: Any) -> Set[str]:
    """Variable names a plan step *reads* (not its fresh binds)."""
    names: Set[str] = set()
    if isinstance(step, ScanStep):
        for op, payload in step.arg_ops:
            if op == CHECK_VAR:
                names.add(payload)
            elif op == CHECK_TERM:
                _term_vars(payload, names)
        for post in step.post_filters:
            names |= _step_reads(post)
    elif isinstance(step, CompareStep):
        _term_vars(step.left, names)
        _term_vars(step.right, names)
        if step.bind_var is not None:
            names.discard(step.bind_var)
    elif isinstance(step, CallStep):
        for a in step.args:
            _term_vars(a, names)
    return names


def _as_list(col: Any) -> Any:
    """Typed views index slowly from Python; one C-level copy pays for any
    loop over the column."""
    return col.tolist() if isinstance(col, memoryview) else col


def _shift(part: Tuple[List[int], Dict[str, List[Any]]], idx: List[int],
           ) -> Tuple[List[int], Dict[str, List[Any]]]:
    """Matches of the input subset ``idx``, renumbered as full input rows."""
    src, binds = part
    return list(map(idx.__getitem__, src)), binds


# ---------------------------------------------------------------------------
# non-scan ops. ``run`` returns False when no solution can survive; ``keep``
# names the variables still read after the op.
# ---------------------------------------------------------------------------
class _BindOp:
    kind = "filter"

    def __init__(self, var: str, term: _Term) -> None:
        self.var, self.term = var, term

    def describe(self) -> str:
        return f"let {self.var} ({'scalar' if self.term.scalar else 'column'})"

    def run(self, state: _State, ctx: "VectorContext") -> bool:
        if self.term.scalar:
            state.scalars[self.var] = self.term.value(state)
        else:
            ctx.tick(state.n)
            state.columns[self.var] = self.term.column(state)
        return True


class _FilterOp:
    kind = "filter"

    def __init__(self, op: str, left: _Term, right: _Term,
                 keep: Set[str]) -> None:
        self.op, self.left, self.right, self.keep = op, left, right, keep

    def describe(self) -> str:
        scalar = self.left.scalar and self.right.scalar
        return f"filter {self.op} ({'scalar' if scalar else 'column'})"

    def run(self, state: _State, ctx: "VectorContext") -> bool:
        op, left, right = self.op, self.left, self.right
        if left.scalar and right.scalar:
            return _compare(op, left.value(state), right.value(state))
        ctx.tick(state.n)
        pairs = zip(left.column(state), right.column(state))
        state.take([i for i, (a, b) in enumerate(pairs) if _compare(op, a, b)],
                   self.keep, subset=True)
        return True


class _CallOp:
    kind = "filter"

    def __init__(self, func: str, args: List[_Term], negated: bool,
                 keep: Set[str]) -> None:
        self.func, self.args, self.negated, self.keep = func, args, negated, keep

    def describe(self) -> str:
        return f"filter {'not ' if self.negated else ''}{self.func}/{len(self.args)}"

    def run(self, state: _State, ctx: "VectorContext") -> bool:
        fn, negated = state.functions.get(self.func), self.negated
        if all(a.scalar for a in self.args):
            return bool(fn(*[a.value(state) for a in self.args])) != negated
        ctx.tick(state.n)
        rows = zip(*[a.column(state) for a in self.args])
        state.take([i for i, args in enumerate(rows)
                    if bool(fn(*args)) != negated], self.keep, subset=True)
        return True


def _compile_test(step: Any, col_vars: Set[str], keep: Set[str]) -> Any:
    if isinstance(step, CompareStep):
        return _FilterOp(step.op, _compile_term(step.left, col_vars),
                         _compile_term(step.right, col_vars), keep)
    return _CallOp(step.func, [_compile_term(a, col_vars) for a in step.args],
                   step.negated, keep)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------
class _ScanOp:
    """One relational scan against the scalar/columnar variable split at its
    position in the plan. Whether the relation is static, stored, derived
    or both is the database's to say, so that is decided per run; every
    matcher returns the matching input-row indices (ascending; once per
    match, or once per input row when only existence matters) plus the
    bound columns aligned to them.

    ``site_var`` is the location variable the sites bind (``None`` in free
    mode)."""

    def __init__(self, step: ScanStep, col_vars: Set[str], keep: Set[str],
                 site_var: Optional[str]) -> None:
        self.step, self.keep = step, keep
        self.arity = len(step.arg_ops)
        schema = CORE_SCHEMAS.get(step.relation)
        # edge / vertex: answered from the graph, readable from any site
        self.static = schema is not None and schema.kind == STATIC
        # free mode: the location is a bind, the scan reads every row
        self.unlocated = step.arg_ops[0][0] not in (CHECK_VAR, CHECK_TERM)
        # Under locality (online), a row whose location is not its
        # evaluation site reads what that vertex shipped to the site.
        self.site_var = site_var
        self.remote = (site_var is not None and not self.static
                       and step.arg_ops[0] != (CHECK_VAR, site_var))
        # ... unless the compiler proved the read complete (Theorem 5.4):
        # then it reads the vertex's layers as a local scan does.
        self.watermarked = self.remote and not step.complete
        # Positions whose values are known before the scan runs.
        self.known: Dict[int, _Term] = {}
        self.local_checks: List[Tuple[int, int]] = []
        binds: List[Tuple[int, str]] = []
        first_bind: Dict[str, int] = {}
        for pos, (op, payload) in enumerate(step.arg_ops):
            if op == CHECK_TERM:
                self.known[pos] = _compile_term(payload, col_vars)
            elif op == CHECK_VAR and payload in first_bind:
                # repeated variable within this atom: row-local check
                self.local_checks.append((first_bind[payload], pos))
            elif op == CHECK_VAR:
                self.known[pos] = _compile_term(Var(payload), col_vars)
            elif op == BIND:
                first_bind.setdefault(payload, pos)
                binds.append((pos, payload))
        self.scalar_pos = [p for p, t in self.known.items() if p and t.scalar]
        self.key_pos = [p for p, t in self.known.items() if p and not t.scalar]
        self.kind = "join" if self.key_pos else "selection"
        # Absorbed post-filters (exists scans) run over every match with
        # the binds they read; otherwise only binds read later are gathered
        # and a scan with none of those just keeps or drops its input rows.
        filter_reads: Set[str] = set()
        for post in step.post_filters:
            filter_reads |= _step_reads(post)
        inner = col_vars | {name for _pos, name in binds}
        self.filters = [
            _compile_test(post, inner, filter_reads | {_SRC})
            for post in step.post_filters
        ]
        self.filter_reads = filter_reads
        self.reads = _step_reads(step)
        wanted = filter_reads if self.filters else keep
        self.gather = [(pos, name) for pos, name in binds if name in wanted]
        self.semi = step.exists or step.negated or not self.gather
        self.first_only = self.semi and not self.filters

    def describe(self) -> str:
        """The scan's kernel: its source, matcher and what it keeps."""
        notes = ["graph batch" if self.static else "store"]
        if self.unlocated:
            notes.append("whole relation")
        elif self.key_pos:
            notes.append(f"join on location + {self.key_pos}")
        else:
            notes.append("location spans")
        if self.scalar_pos:
            notes.append(f"select {self.scalar_pos}")
        if self.remote:
            notes.append("remote" if self.watermarked
                         else "remote, proven complete")
        if self.filters:
            notes.append(f"{len(self.filters)} post-filter(s) per distinct input")
        if self.step.negated:
            notes.append("anti-join")
        elif self.first_only:
            notes.append("first match")
        if self.gather and not self.semi:
            notes.append("gather " + ", ".join(n for _p, n in self.gather))
        return f"{self.kind} {self.step.relation} ({'; '.join(notes)})"

    def run(self, state: _State, ctx: "VectorContext") -> bool:
        local = self.watermarked and ctx.db.locality
        outer, inverse = state, None
        if self.filters:  # an exists scan: matched once per distinct input
            state, inverse = self._distinct(state, local)
        if self.unlocated:
            src, binds = self._match_all(state, ctx)
        elif not local:
            src, binds = self._merge(self._match_stored(state, ctx))
        else:
            src, binds = self._match_local(state, ctx)
        ctx.batched_scans += 1
        if inverse is not None:
            hit, state = set(src), outer
            src = [i for i, d in enumerate(inverse) if d in hit]
        if self.step.negated:
            hit = set(src)
            src = [i for i in range(state.n) if i not in hit]
        state.take(src, self.keep, subset=self.semi)
        if not self.semi:
            state.columns.update(binds)
        return True

    def _distinct(self, state: _State,
                  local: bool) -> Tuple[_State, Optional[List[int]]]:
        """The distinct rows of the columns this scan reads (its outcome's
        only inputs — and, under locality, the site the read is made
        from), and each input row's index among them; an unhashable value
        makes every input row its own."""
        names = [name for name in state.columns if name in self.reads
                 or local and name == self.site_var]
        index: Dict[Row, int] = {}
        try:
            inverse = [index.setdefault(key, len(index)) for key in (
                zip(*[state.columns[name] for name in names]) if names
                else [()] * state.n)]
        except TypeError:
            return state, None
        columns = dict(zip(names, map(list, zip(*index))))
        return _State(state.functions, state.scalars, columns, len(index)), inverse

    def _match_local(self, state: _State, ctx: "VectorContext",
                     ) -> Tuple[List[int], Dict[str, List[Any]]]:
        """Matches of every input row under locality: rows whose location
        is their site read the site's own relations, and the rest the
        layers the located vertex had shipped to the site — those up to
        the superstep of its last message there (``db.shipped_through``).
        """
        site = state.columns[self.site_var]
        loc = self.known[0].column(state)
        far = list(compress(count(), map(operator.ne, loc, site)))
        if not far:
            return self._merge(self._match_stored(state, ctx))
        asks: Dict[Any, List[int]] = {}  # superstep shipped through -> rows
        if len(far) < state.n:
            asks[None] = list(compress(count(), map(operator.eq, loc, site)))
        for i, through in zip(far, ctx.db.shipped_through(
                [site[i] for i in far], [loc[i] for i in far])):
            if through is not None:  # None: shipped the site nothing
                asks.setdefault(through, []).append(i)
        parts = []
        for through, idx in asks.items():
            if len(idx) == state.n:
                parts += self._match_stored(state, ctx, through)
            else:
                parts += [_shift(part, idx) for part in self._match_stored(
                    self._subset(state, idx), ctx, through)]
        return self._merge(parts)

    def _subset(self, state: _State, idx: List[int]) -> _State:
        """Rows ``idx`` of the columns a match reads."""
        return _State(state.functions, state.scalars, {
            name: list(map(col.__getitem__, idx))
            for name, col in state.columns.items()
            if name in self.reads or name == self.site_var
        }, len(idx))

    def _merge(self, parts: List[Tuple[List[int], Dict[str, List[Any]]]],
               ) -> Tuple[List[int], Dict[str, List[Any]]]:
        """Matches of several sources back in input-row order (stable, so
        one input row's matches stay in source order)."""
        if len(parts) == 1:
            return parts[0]
        src = [i for part, _binds in parts for i in part]
        if self.first_only or self.filters:  # existence only
            return sorted(set(src)), {}
        order = sorted(range(len(src)), key=src.__getitem__)
        return [src[k] for k in order], {
            name: list(map(
                [v for _src, binds in parts for v in binds[name]].__getitem__,
                order))
            for _pos, name in self.gather
        }

    def _batches(self, ctx: "VectorContext", supersteps: Optional[List[Any]],
                 through: Any = None) -> List[Any]:
        """The relation's column batches: the graph's for ``edge`` /
        ``vertex``, else the store's and then, for a head predicate, the
        derived layers (either one per requested superstep) — or, with a
        ``through``, the layers another vertex had shipped by its message
        at that superstep (locality)."""
        if through is not None:
            return ctx.db.shipped_layers(self.step.relation, supersteps,
                                         through)
        return _batches(ctx.db, self.step.relation, supersteps, self.static)

    # -- stored relations: whole-layer column batches --------------------
    def _match_stored(self, state: _State, ctx: "VectorContext",
                      through: Any = None,
                      ) -> List[Tuple[List[int], Dict[str, List[Any]]]]:
        """One match part per batch with any match, in batch order (the
        batches of ``through``: see :meth:`_batches`)."""
        step = self.step
        time_term = self.known.get(step.time_arg) if step.time_arg else None
        if time_term is None:  # every layer (or the static slab)
            return self._match_batches(state, ctx,
                                       self._batches(ctx, None, through))
        if time_term.scalar:
            return self._match_batches(state, ctx, self._batches(
                ctx, [time_term.value(state)], through))
        # A columnar time: each input row matches in its own time's slab,
        # so each slab is joined with just the rows that ask for it.
        asks: Dict[Any, List[int]] = {}
        for i, t in enumerate(time_term.column(state)):
            asks.setdefault(t, []).append(i)
        if len(asks) == 1:
            return self._match_batches(state, ctx,
                                       self._batches(ctx, list(asks), through))
        parts = []
        for t, idx in asks.items():
            parts.extend(_shift(part, idx) for part in self._match_batches(
                self._subset(state, idx), ctx, self._batches(ctx, [t], through)))
        return parts

    def _match_batches(self, state: _State, ctx: "VectorContext",
                       batches: List[Any],
                       ) -> List[Tuple[List[int], Dict[str, List[Any]]]]:
        known = self.known
        loc = known[0].column(state)
        expected = {pos: known[pos].value(state) for pos in self.scalar_pos}
        key_cols = [known[pos].column(state) for pos in self.key_pos]
        parts: List[Tuple[List[int], Dict[str, List[Any]]]] = []
        for batch in batches:
            if batch.arity != self.arity:
                continue  # rows of this arity can never match the atom
            sel = self._select(batch, expected, ctx)
            if sel is not None and not sel:
                continue
            if not key_cols:
                src, rows = self._span_match(batch.groups(), sel, loc, ctx)
            elif any(batch.lane(pos) == "pkl" for pos in self.key_pos):
                src, rows = self._range_match(batch, sel, loc, key_cols, ctx)
            else:
                src, rows = self._hash_match(batch, sel, loc, key_cols, ctx)
            if not src:
                continue
            ctx.batch_rows += len(src)
            ctx.tick(len(src) * len(self.gather))
            binds = {
                name: list(map(_as_list(batch.values(pos)).__getitem__, rows))
                for pos, name in self.gather
            }
            if self.filters:  # an input row that passed reads no more batches
                src, binds = self._passing(state, src, binds, ctx), {}
                if src:
                    loc = list(loc)
                    for i in src:
                        loc[i] = _PASSED
            if src:
                parts.append((src, binds))
        return parts

    def _passing(self, state: _State, src: List[int],
                 binds: Dict[str, List[Any]], ctx: "VectorContext",
                 ) -> List[int]:
        """The input rows among ``src`` with a match (bound to ``binds``)
        that passes the absorbed filters, each once."""
        columns = {
            name: list(map(col.__getitem__, src))
            for name, col in state.columns.items() if name in self.filter_reads
        }
        columns.update(binds)
        columns[_SRC] = src
        inner = _State(state.functions, state.scalars, columns, len(src))
        if all(f.run(inner, ctx) for f in self.filters):
            return list(dict.fromkeys(inner.columns[_SRC]))
        return []

    def _select(self, batch: Any, expected: Dict[int, Any],
                ctx: "VectorContext") -> Optional[List[int]]:
        """Row ids of ``batch`` passing every known-scalar and row-local
        check; ``None`` means *all rows*."""
        sel: Optional[List[int]] = None
        for pos, value in expected.items():
            if batch.lane(pos) == "str":
                value = batch.code_of(pos, value)
                if value is None:
                    return []  # literal absent from this slab's dictionary
                col: Any = batch.codes(pos)
            else:
                col = batch.values(pos)
            if sel is None:
                ctx.tick(batch.count)
                col = _as_list(col)
                if col.count(value) != len(col):
                    sel = [i for i, v in enumerate(col) if v == value]
            else:
                ctx.tick(len(sel))
                sel = [i for i in sel if col[i] == value]
            if sel is not None and not sel:
                return sel
        for pos_a, pos_b in self.local_checks:
            ca, cb = batch.values(pos_a), batch.values(pos_b)
            ids = range(batch.count) if sel is None else sel
            ctx.tick(len(ids))
            sel = [i for i in ids if ca[i] == cb[i]]
        return sel

    def _span_match(self, groups: Dict[Any, Tuple[int, int]],
                    sel: Optional[List[int]], loc: Any, ctx: "VectorContext",
                    ) -> Tuple[List[int], List[int]]:
        """Location-only join: a vertex's matches are its contiguous row
        range in the slab (minus what the selection dropped)."""
        ctx.tick(len(loc))
        if sel is None and self.first_only:
            return [i for i, v in enumerate(loc) if v in groups], []
        spans = list(map(groups.get, loc))
        src = [i for i, span in enumerate(spans) if span is not None]
        if not src:
            return [], []
        starts, counts = zip(*map(spans.__getitem__, src))
        rows = list(chain.from_iterable(
            map(range, starts, map(operator.add, starts, counts))))
        src = list(chain.from_iterable(map(repeat, src, counts)))
        if sel is not None:
            kept = list(map(set(sel).__contains__, rows))
            src, rows = list(compress(src, kept)), list(compress(rows, kept))
            if self.first_only:  # each input row's first survivor
                kept = list(map(operator.ne, src, [None, *src[:-1]]))
                src, rows = (list(compress(src, kept)),
                             list(compress(rows, kept)))
        return src, rows

    def _hash_match(self, batch: Any, sel: Optional[List[int]], loc: Any,
                    key_cols: List[Any], ctx: "VectorContext",
                    ) -> Tuple[List[int], List[int]]:
        """Hash join keyed on (location, known columnar positions): build
        over the selected rows of the probed vertices' group ranges only (a
        key holds its location, so no other row can match), probe once per
        input row."""
        groups = batch.groups()
        ok = None if sel is None else set(sel)
        ids: List[int] = []
        locs: List[Any] = []
        for vertex in dict.fromkeys(loc):
            span = groups.get(vertex)
            if span is None:
                continue
            rows: Any = range(span[0], span[0] + span[1])
            if ok is not None:
                rows = [r for r in rows if r in ok]
            ids.extend(rows)
            locs.extend([vertex] * len(rows))
        cols = [locs] + [list(map(_as_list(batch.values(pos)).__getitem__, ids))
                         for pos in self.key_pos]
        ctx.build_rows += len(ids)
        ctx.tick(len(ids) + len(loc))
        table: Dict[Any, List[int]] = {}
        for row, key in zip(ids, zip(*cols)):
            bucket = table.get(key)
            if bucket is None:
                table[key] = [row]
            else:
                bucket.append(row)
        get, first_only = table.get, self.first_only
        src: List[int] = []
        rows: List[int] = []
        for i, key in enumerate(zip(loc, *key_cols)):
            try:
                bucket = get(key)
            except TypeError:
                continue  # an unhashable probe value equals no typed cell
            if bucket is None:
                continue
            if first_only:
                src.append(i)
            else:
                src.extend([i] * len(bucket))
                rows.extend(bucket)
        return src, rows

    def _range_match(self, batch: Any, sel: Optional[List[int]], loc: Any,
                     key_cols: List[Any], ctx: "VectorContext",
                     ) -> Tuple[List[int], List[int]]:
        """Equality join for keys no hash table can hold (a pickle lane
        may carry unhashable values): each input row is compared with the
        selected rows of its location's group range, in row order."""
        groups = batch.groups()
        ok = None if sel is None else set(sel)
        cols = [_as_list(batch.values(pos)) for pos in self.key_pos]
        src: List[int] = []
        rows: List[int] = []
        for i, (vertex, *key) in enumerate(zip(loc, *key_cols)):
            span = groups.get(vertex)
            if span is None:
                continue
            ctx.tick(span[1])
            for row in range(span[0], span[0] + span[1]):
                if (ok is None or row in ok) and all(
                        col[row] == k for col, k in zip(cols, key)):
                    src.append(i)
                    rows.append(row)
                    if self.first_only:
                        break
        return src, rows

    # -- free mode: the whole relation -----------------------------------
    def _match_all(self, state: _State, ctx: "VectorContext",
                   ) -> Tuple[List[int], Dict[str, List[Any]]]:
        """An unlocated scan (static setup rules): every input row reads
        every row of the relation — its stored, then its derived
        batches."""
        expected = {pos: self.known[pos].value(state) for pos in self.scalar_pos}
        checks = [(pos, self.known[pos].column(state)) for pos in self.key_pos]
        parts = []
        for batch in self._batches(ctx, None):
            if batch.arity == self.arity:
                sel = self._select(batch, expected, ctx)
                src, binds = self._cross(
                    state, ctx, range(batch.count) if sel is None else sel,
                    checks, batch.values)
                if self.filters:
                    src, binds = self._passing(state, src, binds, ctx), {}
                parts.append((src, binds))
        return self._merge(parts)

    def _cross(self, state: _State, ctx: "VectorContext", ids: Any,
               checks: List[Tuple[int, Any]], values: Any,
               ) -> Tuple[List[int], Dict[str, List[Any]]]:
        """Every input row against the rows ``ids`` of one source, whose
        column ``pos`` is ``values(pos)``; ``checks`` pairs a position
        with the input column it must equal."""
        if checks:
            cols = [(_as_list(values(pos)), col) for pos, col in checks]
            src: List[int] = []
            rows: List[int] = []
            for i in range(state.n):
                for row in ids:
                    if all(have[row] == want[i] for have, want in cols):
                        src.append(i)
                        rows.append(row)
                        if self.first_only:
                            break
        else:
            rows = list(ids[:1] if self.first_only else ids)
            src = [i for i in range(state.n) for _ in rows]
            rows *= state.n
        ctx.tick(len(src) * (1 + len(self.gather)))
        return src, {
            name: list(map(_as_list(values(pos)).__getitem__, rows))
            for pos, name in self.gather
        }


# ---------------------------------------------------------------------------
# the compiled program
# ---------------------------------------------------------------------------
class LayerProgram:
    """A rule plan compiled to column ops; immutable once built, memoized
    on the rule (:func:`layer_program`). A plan that pre-binds the location
    starts from the sites as a column; a free-mode plan (static setup
    rules) from one empty solution."""

    def __init__(self, crule: CompiledRule, plan: RulePlan) -> None:
        self.loc_var = (
            crule.loc_var if crule.loc_var in plan.prebound else None
        )
        self.time_var = (
            crule.time_var if crule.time_var in plan.prebound else None
        )
        self.aggregate = crule.is_aggregate
        col_vars: Set[str] = set() if self.loc_var is None else {self.loc_var}
        terms = [arg.term if isinstance(arg, Aggregate) else arg
                 for arg in crule.head_args]
        # Variables still read strictly *after* step k — the late
        # materialization decision (a bind nobody reads is never gathered).
        # An aggregate's witness reads every body variable.
        acc: Set[str] = set(crule.body_vars) if self.aggregate else set()
        for term in terms:
            _term_vars(term, acc)
        needed_after: List[Set[str]] = []
        for step in reversed(plan.steps):
            needed_after.insert(0, set(acc))
            acc |= _step_reads(step)
        self.ops: List[Any] = []
        bound = set(plan.prebound)
        for step, keep in zip(plan.steps, needed_after):
            op: Any
            if isinstance(step, ScanStep):
                op = _ScanOp(step, col_vars, keep, self.loc_var)
                if not op.semi:
                    col_vars.update(name for _pos, name in op.gather)
                    bound.update(name for _pos, name in op.gather)
            elif isinstance(step, CompareStep) and step.bind_var is not None:
                expr = step.right if step.bind_from_left else step.left
                op = _BindOp(step.bind_var, _compile_term(expr, col_vars))
                bound.add(step.bind_var)
                if not op.term.scalar:
                    col_vars.add(step.bind_var)
            else:
                op = _compile_test(step, col_vars, keep)
            self.ops.append(op)
        self.head = [_compile_term(term, col_vars) for term in terms]
        # aggregate heads: head position -> its aggregate function (None:
        # a group-key position), and the witness columns (a variable an
        # exists scan projected away is no part of a witness)
        self.funcs = [arg.func if isinstance(arg, Aggregate) else None
                      for arg in crule.head_args]
        self.witness = [_compile_term(Var(name), col_vars)
                        for name in crule.body_vars
                        if name in bound] if self.aggregate else []

    def describe(self) -> List[str]:
        """One line per column op, then the head."""
        start = ("sites as column " + self.loc_var if self.loc_var
                 else "one empty solution (free mode)")
        lines = [start] + [op.describe() for op in self.ops]
        if self.aggregate:
            lines.append("aggregate " + ", ".join(
                func for func in self.funcs if func is not None)
                + " per group, distinct witnesses in order")
        else:
            lines.append(f"head: {len(self.head)} column(s)")
        return lines

    def run(self, sites: Sequence[Any], anchor_time: Optional[int],
            ctx: "VectorContext") -> List[Any]:
        """Head rows of the rule's solutions at every site, site-major.
        Duplicates are allowed — the caller's set insert deduplicates. An
        aggregate returns one ``(group key, head row)`` per group
        (:meth:`_reduce`)."""
        # Naive evaluation lists a vertex once per superstep it ran in; a
        # site's solutions do not depend on how often it is listed.
        scalars = {} if self.time_var is None else {self.time_var: anchor_time}
        if self.loc_var is None:  # free mode: one empty solution
            state = _State(ctx.functions, scalars, {}, 1)
        else:
            sites = list(dict.fromkeys(sites))
            state = _State(ctx.functions, scalars, {self.loc_var: sites},
                           len(sites))
        for op in self.ops:
            if not state.n:
                return []
            started = time.perf_counter()
            alive = op.run(state, ctx)
            ctx.time_kernel(op.kind, started)
            if not alive:
                return []
        started = time.perf_counter()
        ctx.tick(state.n)
        if self.aggregate:
            rows = self._reduce(state)
            ctx.time_kernel("aggregate", started)
            return rows
        rows = list(zip(*[term.column(state) for term in self.head]))
        ctx.time_kernel("head", started)
        return rows

    def _reduce(self, state: _State) -> List[Tuple[Row, Row]]:
        """Group and reduce: one head row per distinct witness (every
        bound body variable's value, the location among them, so per
        site), first occurrences in enumeration order — equal witnesses
        give equal head rows — then each group's aggregates over its rows
        in that order, which fixes a float ``sum`` / ``avg``. Groups come
        out in first-seen order, as ``(group key, head row)``."""
        rows = dict(zip(zip(*[t.column(state) for t in self.witness]),
                        zip(*[t.column(state) for t in self.head]))).values()
        funcs = self.funcs
        key_at = [pos for pos, func in enumerate(funcs) if func is None]
        key_of = itemgetter(*key_at)  # a bare value for a one-column key
        groups: Dict[Any, List[Row]] = {}
        for row in rows:
            key = key_of(row)
            members = groups.get(key)
            if members is None:
                groups[key] = [row]
            else:
                members.append(row)
        out = []
        for key, members in groups.items():
            head = list(members[0])
            for pos, func in enumerate(funcs):
                if func is not None:
                    head[pos] = _aggregate(func, [m[pos] for m in members])
            out.append((key if len(key_at) > 1 else (key,), tuple(head)))
        return out


def _aggregate(func: str, values: List[Any]) -> Any:
    """One aggregate over a group's values, in order: ``sum`` / ``avg``
    add left to right from 0 (never a compensated sum), ``min`` /
    ``max`` keep the first extreme."""
    if func == "count":
        return len(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    total = reduce(operator.add, values, 0)
    return total if func == "sum" else total / len(values)


class CopyProgram:
    """A *projection at the anchor*: one scan of a relation R at the
    location and (when R has a superstep attribute) the anchor superstep,
    distinct variables, no constant, filter or negation, optionally joined
    with ``superstep(X, I)`` at the anchor ``I``; the head is a tuple of
    those variables. Query 2's five rules and Query 11's ``prov_value`` /
    ``prov_send`` have this shape.

    Such a rule appends R's rows to its head: per site in site order, R's
    rows in batch order, one head row per row — or one per site when the
    head reads no column of R but the location. The rows come out as
    :class:`CopiedRows`, the head's columns, which a capture appends to its
    store as they are. There is no ``_State``, no gather of an already-
    ordered batch and no rescan of the head's derived history, which an
    exact self-copy (:attr:`CompiledRule.is_self_copy`) could only
    re-derive. ``superstep(X, I)`` is one membership test per site. When R
    is another rule's head its derived rows join too, so the rule runs as
    the :class:`LayerProgram` it would otherwise be. The new head rows
    reach the insert in the order that program derives them."""

    def __init__(self, crule: CompiledRule, plan: RulePlan, scan: ScanStep,
                 stepped: bool, head: Tuple[Optional[int], ...]) -> None:
        self.relation, self.arity = scan.relation, len(scan.arg_ops)
        # R's superstep attribute holds the anchor: read that layer only
        self.anchored = scan.time_arg is not None
        self.stepped = stepped  # the body joins superstep(X, I)
        # per head position: R's column, 0 the site, None the anchor
        self.head = head
        self.columns = any(head)  # reads a column of R besides X
        self.exact = crule.is_self_copy
        self.general = LayerProgram(crule, plan)

    def describe(self) -> List[str]:
        return [f"copy {self.relation} rows per site"
                + (" at the anchor" if self.anchored else "")
                + (", sites with superstep(X, I)" if self.stepped else "")]

    def run(self, sites: Sequence[Any], anchor_time: Optional[int],
            ctx: "VectorContext") -> Any:
        db = ctx.db
        if not self.exact and self.relation in db.head_predicates:
            return self.general.run(sites, anchor_time, ctx)
        started = time.perf_counter()
        sites = list(dict.fromkeys(sites))
        if self.stepped:
            sites = _stepped(sites, anchor_time, ctx)
        rows = CopiedRows([[] for _ in self.head], [])
        # one batch: the anchor layer, the static slab, or the frame
        for batch in db.store.column_batches(
                self.relation, [anchor_time] if self.anchored else None):
            if batch.arity == self.arity:
                rows = self._copy(batch, sites, anchor_time)
                break
        ctx.batched_scans += 1
        ctx.batch_rows += len(rows)
        ctx.tick(len(rows))
        ctx.time_kernel("copy", started)
        return rows

    def _copy(self, batch: Any, sites: List[Any],
              anchor: Optional[int]) -> "CopiedRows":
        """One batch's head rows, site-major."""
        get = batch.groups().get
        spans = []
        for site in sites:
            span = get(site)
            if span is not None and span[1]:
                spans.append((site, span[0], span[1]))
        if not self.columns:
            loc = [site for site, _start, _n in spans]
            return CopiedRows([loc if pos == 0 else [anchor] * len(loc)
                               for pos in self.head],
                              [(site, 1) for site in loc])
        loc = []
        for site, _start, n in spans:
            loc += [site] * n
        ids = None if _one_sweep(spans, batch.count) else [
            r for _site, start, n in spans for r in range(start, start + n)]
        cols: List[List[Any]] = []
        for pos in self.head:
            if pos is None:
                cols.append([anchor] * len(loc))
            elif pos == 0:
                cols.append(loc)
            else:
                col = _as_list(batch.values(pos))
                cols.append(col if ids is None
                            else list(map(col.__getitem__, ids)))
        return CopiedRows(cols, [(site, n) for site, _start, n in spans])


class CopiedRows:
    """A copy program's head rows as the head's columns: ``columns`` holds
    one list per head position (a column may be the batch's own list:
    read, never write), ``spans`` each site's ``(site, count)`` run in row
    order. Iterating yields the row tuples, for any insert that takes
    rows; a capture store appends the columns
    (:meth:`~repro.provenance.store.ProvenanceStore.append_columns`)."""

    __slots__ = ("columns", "spans")

    def __init__(self, columns: List[List[Any]],
                 spans: List[Tuple[Any, int]]) -> None:
        self.columns, self.spans = columns, spans

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __iter__(self) -> Iterator[Row]:
        return zip(*self.columns)


def _one_sweep(spans: List[Tuple[Any, int, int]], count: int) -> bool:
    """Do ``spans`` cover a batch of ``count`` rows in row order?"""
    expected = 0
    for _site, start, n in spans:
        if start != expected:
            return False
        expected += n
    return expected == count


def _batches(db: Any, relation: str, supersteps: Optional[List[Any]],
             static: bool = False) -> List[Any]:
    """``relation``'s column batches in ``db``: the graph's for ``edge`` /
    ``vertex``; else the store's — unless it is a head the store lacks —
    and then, for a head, the derived layers."""
    if static:
        return db.static.column_batches(relation, supersteps)
    if relation not in db.head_predicates:
        return db.store.column_batches(relation, supersteps)
    out = (db.store.column_batches(relation, supersteps)
           if db.store.has_relation(relation) else [])
    return out + db.derived.column_batches(relation, supersteps)


def _stepped(sites: List[Any], anchor: Optional[int],
             ctx: "VectorContext") -> List[Any]:
    """The sites with ``superstep(X, I)`` at the anchor, stored or, when
    ``superstep`` is a head, derived: membership in a layer's group table
    when the whole layer is at the anchor."""
    present: Set[Any] = set()
    for batch in _batches(ctx.db, "superstep", [anchor]):
        if batch.arity != 2:
            continue
        times = _as_list(batch.values(1))
        if times.count(anchor) == len(times):
            present.update(batch.groups())
        else:
            present.update(v for v, (start, n) in batch.groups().items()
                           if anchor in times[start:start + n])
    ctx.batched_scans += 1
    return [site for site in sites if site in present]


def _copy_program(crule: CompiledRule, plan: RulePlan,
                  ) -> Optional[CopyProgram]:
    """``crule``'s copy program under ``plan`` if the rule is a projection
    at the anchor (:class:`CopyProgram`) — decided by its shape only."""
    steps, loc = plan.steps, crule.loc_var
    anchor = crule.time_var if crule.time_var in plan.prebound else None
    if crule.is_aggregate or len(steps) > 2 or not all(
            isinstance(s, ScanStep) and not s.negated and not s.post_filters
            for s in steps):
        return None
    scan = steps[0]
    if len(steps) == 2:  # R and superstep(X, I), in either order
        stamp = ((CHECK_VAR, loc), (CHECK_VAR, anchor))
        stamps = [s.relation == "superstep" and s.arg_ops == stamp
                  for s in steps]
        if anchor is None or not any(stamps):
            return None
        scan = steps[0] if stamps[1] else steps[1]
    schema = CORE_SCHEMAS.get(scan.relation)
    if schema is not None and schema.kind == STATIC:
        return None  # a copy reads the store; edge / vertex are the graph's
    if scan.arg_ops[0] != (CHECK_VAR, loc):
        return None
    time_arg = scan.time_arg
    if time_arg is not None and (
            anchor is None or scan.arg_ops[time_arg] != (CHECK_VAR, anchor)):
        return None  # R read in every layer, not at the anchor
    binds: Dict[str, int] = {}
    for pos, (op, payload) in enumerate(scan.arg_ops[1:], 1):
        if op == BIND:
            binds[payload] = pos
        elif pos != time_arg:
            return None  # a constant, a repeated variable
    head: List[Optional[int]] = []
    for arg in crule.head_args:
        if not isinstance(arg, Var):
            return None
        if arg.name == loc:
            head.append(0)
        elif arg.name in binds:
            head.append(binds[arg.name])
        elif arg.name == anchor:
            head.append(None)
        else:
            return None
    return CopyProgram(crule, plan, scan, len(steps) == 2, tuple(head))


def layer_program(crule: CompiledRule, mode: str) -> Any:
    """The program for ``crule`` under ``mode`` — a :class:`CopyProgram`
    when the rule is a projection at the anchor, else a
    :class:`LayerProgram` — memoized on the rule."""
    program = crule.layer_programs.get(mode)
    if program is None:
        plan = _select_plan(crule, mode)
        program = _copy_program(crule, plan) or LayerProgram(crule, plan)
        crule.layer_programs[mode] = program
    return program


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------
class VectorContext:
    """Per-run vectorized evaluation state.

    ``run_layered``, ``run_naive`` and the online query program always
    attach one to the database (``db.vector_ctx``), whichever store they
    read; :func:`repro.pql.eval.evaluate_rule` hands it every rule with
    the layer's whole site list. Carries the query budget hook and the
    kernel timing / usage counters the drivers surface in result stats.
    """

    __slots__ = ("budget", "db", "functions", "kernel_seconds",
                 "batched_scans", "batch_rows", "build_rows",
                 "rules_vectorized", "_tick_accum")

    def __init__(self, budget: Optional[Any] = None) -> None:
        self.budget = budget
        self.db: Any = None  # bound per evaluate() call
        self.functions: Any = None
        self.kernel_seconds: Dict[str, float] = {}
        self.batched_scans = 0
        self.batch_rows = 0
        self.build_rows = 0
        self.rules_vectorized = 0
        self._tick_accum = 0

    def tick(self, rows: int) -> None:
        """Charge ``rows`` processed kernel rows against the budget; the
        budget's own tick (cancellation + strided clock) runs once per
        :data:`VECTOR_TICK_STRIDE` rows."""
        if self.budget is None:
            return
        self._tick_accum += rows
        while self._tick_accum >= VECTOR_TICK_STRIDE:
            self._tick_accum -= VECTOR_TICK_STRIDE
            self.budget.tick()

    def time_kernel(self, kind: str, started: float) -> None:
        self.kernel_seconds[kind] = (
            self.kernel_seconds.get(kind, 0.0)
            + time.perf_counter() - started
        )

    def evaluate(
        self,
        crule: CompiledRule,
        mode: str,
        sites: Sequence[Any],
        anchor_time: Optional[int],
        db: Any,
        functions: FunctionRegistry,
    ) -> List[Any]:
        """Head rows of one rule over all ``sites`` (an aggregate's
        ``(group key, row)`` pairs)."""
        self.db, self.functions = db, functions
        rows = layer_program(crule, mode).run(sites, anchor_time, self)
        self.rules_vectorized += 1
        return rows

    def stats(self) -> Dict[str, Any]:
        """The evaluator block of the drivers' result stats (surfaced
        verbatim by the CLI, the benchmarks and the query server):
        ``evaluator`` is ``vectorized`` — every rule runs as a layer
        program."""
        return {
            "evaluator": "vectorized",
            "kernel_seconds": {
                k: round(v, 6) for k, v in self.kernel_seconds.items()
            },
            "batched_scans": self.batched_scans,
            "batch_rows": self.batch_rows,
            "build_rows": self.build_rows,
            "rules_vectorized": self.rules_vectorized,
        }
