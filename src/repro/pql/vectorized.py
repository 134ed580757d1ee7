"""Vectorized (batch) evaluation of compiled PQL rule plans.

The row-at-a-time core (:mod:`repro.pql.eval`) turns every stored fact
back into a Python tuple, matches it field by field under an env dict,
and copies that dict per binding — cheap per row, ruinous per million
rows. This module evaluates the *same plans* as column batches instead:

* **Selection** runs on typed column vectors — ``memoryview('q')`` /
  ``('d')`` casts over ARSC segments, u32 dictionary-code views for
  string lanes — so a literal filter is a tight ``col[i] == v`` loop
  with no tuple or env in sight. String equality is pushed down to
  dictionary-code comparison: the literal is resolved to its code by a
  bytewise dictionary scan (``ColumnarSlab.str_code``) and the string
  dictionary itself is never decoded for the comparison.
* **Hash joins** build :class:`repro.pql.index.VectorIndex` tables
  straight from column slices — raw i64/f64 values or dict codes —
  and probe them once per input row, replacing the row engine's
  tuple-materializing nested loop for stored-relation joins.
* **Late materialization**: only the columns bound by *surviving*
  variables — those a later step or the rule head actually reads — are
  ever gathered. A payload column no kernel asks for stays an undecoded
  mmap'd segment (the big win on lineage queries whose message payloads
  are pickle lanes).
* **Semi-naive recursion** is preserved structurally: the fixpoint
  drivers re-run rules until no new facts appear, and derived-relation
  scans go through the same incremental probe machinery as the row
  path, so each round's join against the recursive relation only folds
  in that round's delta.

**Byte-identity is the contract.** Every kernel computes exactly the
solution *set* the row path computes — selection compares with Python
``==`` semantics (dict-code equality coincides with string equality
within one slab's column), hash probes narrow candidates exactly like
``RowIndex`` probes, and head rows are deduplicated by the same
``Database.add`` set insert the row path uses, so multiplicity
differences cannot surface. Aggregate-head rules never enter this
module (their float accumulation is enumeration-order sensitive); they
stay on the scan path unchanged.

A rule falls back to the row path — wholesale or per scan — when the
plan shape or the store cannot vectorize: free-mode (unlocated) scans,
stores without column batches (in-memory, pickle, legacy slabs), virtual
graph relations, and derived relations. The fallback reuses
:mod:`repro.pql.eval` helpers verbatim, so it cannot diverge.

``QueryBudget`` interaction: kernels tick the budget every
:data:`VECTOR_TICK_STRIDE` processed rows (selection, gather, build and
probe loops alike), so cancellation, wall-clock and row budgets fire
*inside* a batch, not merely between rules.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import PQLError, PQLSemanticError
from repro.pql.ast import BinOp, Const, FuncCall, Param, Term, Var
from repro.pql.eval import (
    _candidate_rows,
    _compare,
    _match,
    _passes,
    _term_checks,
)
from repro.pql.index import VectorIndex
from repro.pql.plan import (
    ANY,
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

Row = Tuple[Any, ...]

#: Batch kernels tick the query budget once per this many processed rows.
#: Small enough that wall-clock and cancellation budgets interrupt a long
#: selection or gather mid-kernel; large enough to amortize the call.
VECTOR_TICK_STRIDE = 256


class _Unvectorizable(Exception):
    """Internal: this plan cannot compile to a vector program (the rule
    falls back to the row path wholesale)."""


# ---------------------------------------------------------------------------
# term compilation
# ---------------------------------------------------------------------------
def _compile_term(
    term: Term, functions: FunctionRegistry, col_vars: Set[str],
) -> Tuple[Callable[..., Any], bool]:
    """Compile a term to ``fn(scalars, columns, i) -> value``.

    Returns ``(fn, is_scalar)``; a scalar term depends on no columnar
    variable and may be evaluated once per rule invocation instead of
    once per row. Mirrors :func:`repro.pql.eval.eval_term`, including
    its error behavior.
    """
    if isinstance(term, Var):
        name = term.name
        if name in col_vars:
            return (lambda s, c, i: c[name][i]), False

        def load(s: Dict[str, Any], c: Any, i: int) -> Any:
            try:
                return s[name]
            except KeyError:
                raise PQLError(f"unbound variable {name}") from None

        return load, True
    if isinstance(term, Const):
        value = term.value
        return (lambda s, c, i: value), True
    if isinstance(term, BinOp):
        lf, ls = _compile_term(term.left, functions, col_vars)
        rf, rs = _compile_term(term.right, functions, col_vars)
        op = term.op
        if op == "+":
            return (lambda s, c, i: lf(s, c, i) + rf(s, c, i)), ls and rs
        if op == "-":
            return (lambda s, c, i: lf(s, c, i) - rf(s, c, i)), ls and rs
        if op == "*":
            return (lambda s, c, i: lf(s, c, i) * rf(s, c, i)), ls and rs
        if op == "/":
            return (lambda s, c, i: lf(s, c, i) / rf(s, c, i)), ls and rs
        raise PQLError(f"unknown operator {op!r}")
    if isinstance(term, FuncCall):
        parts = [_compile_term(a, functions, col_vars) for a in term.args]
        arg_fns = [f for f, _ in parts]
        scalar = all(s for _, s in parts)
        fn = functions.get(term.name)
        return (lambda s, c, i: fn(*[f(s, c, i) for f in arg_fns])), scalar
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


# ---------------------------------------------------------------------------
# evaluation state
# ---------------------------------------------------------------------------
class _State:
    """Evaluation state threaded through compiled ops.

    ``scalars`` holds per-invocation constants (the anchored site/time
    plus every scalar bind); ``columns`` maps columnar variables to
    equal-length sequences; ``n`` is the batch length, or ``None`` while
    the state is still purely scalar (semantically: one solution row).
    """

    __slots__ = ("scalars", "columns", "n")

    def __init__(self, scalars: Dict[str, Any]) -> None:
        self.scalars = scalars
        self.columns: Dict[str, Any] = {}
        self.n: Optional[int] = None

    def compact(self, keep: List[int]) -> None:
        if len(keep) == self.n:
            return
        self.columns = {
            name: [col[i] for i in keep]
            for name, col in self.columns.items()
        }
        self.n = len(keep)


# ---------------------------------------------------------------------------
# non-scan ops
# ---------------------------------------------------------------------------
class _BindOp:
    __slots__ = ("var", "fn", "scalar")

    def __init__(self, var: str, fn: Any, scalar: bool) -> None:
        self.var, self.fn, self.scalar = var, fn, scalar

    def run(self, state: _State, ctx: "VectorContext") -> Optional[_State]:
        if self.scalar:
            state.scalars[self.var] = self.fn(state.scalars, None, 0)
            return state
        started = time.perf_counter()
        fn, scalars, columns = self.fn, state.scalars, state.columns
        tick = ctx.tick
        out = []
        for i in range(state.n or 0):
            if i % VECTOR_TICK_STRIDE == 0:
                tick(VECTOR_TICK_STRIDE)
            out.append(fn(scalars, columns, i))
        columns[self.var] = out
        ctx.time_kernel("filter", started)
        return state


class _FilterOp:
    __slots__ = ("op", "lf", "rf", "scalar")

    def __init__(self, op: str, lf: Any, rf: Any, scalar: bool) -> None:
        self.op, self.lf, self.rf, self.scalar = op, lf, rf, scalar

    def run(self, state: _State, ctx: "VectorContext") -> Optional[_State]:
        scalars = state.scalars
        if self.scalar:
            ok = _compare(
                self.op,
                self.lf(scalars, None, 0),
                self.rf(scalars, None, 0),
            )
            return state if ok else None
        started = time.perf_counter()
        lf, rf, op = self.lf, self.rf, self.op
        columns = state.columns
        tick = ctx.tick
        keep = []
        for i in range(state.n or 0):
            if i % VECTOR_TICK_STRIDE == 0:
                tick(VECTOR_TICK_STRIDE)
            if _compare(op, lf(scalars, columns, i), rf(scalars, columns, i)):
                keep.append(i)
        state.compact(keep)
        ctx.time_kernel("filter", started)
        return state


class _CallOp:
    __slots__ = ("fn", "arg_fns", "scalar", "negated")

    def __init__(self, fn: Any, arg_fns: List[Any], scalar: bool,
                 negated: bool) -> None:
        self.fn, self.arg_fns = fn, arg_fns
        self.scalar, self.negated = scalar, negated

    def run(self, state: _State, ctx: "VectorContext") -> Optional[_State]:
        scalars = state.scalars
        fn, arg_fns, negated = self.fn, self.arg_fns, self.negated
        if self.scalar:
            ok = bool(fn(*[f(scalars, None, 0) for f in arg_fns]))
            return state if ok != negated else None
        started = time.perf_counter()
        columns = state.columns
        tick = ctx.tick
        keep = []
        for i in range(state.n or 0):
            if i % VECTOR_TICK_STRIDE == 0:
                tick(VECTOR_TICK_STRIDE)
            ok = bool(fn(*[f(scalars, columns, i) for f in arg_fns]))
            if ok != negated:
                keep.append(i)
        state.compact(keep)
        ctx.time_kernel("filter", started)
        return state


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------
class _ScanOp:
    """One relational scan, compiled against the scalar/columnar variable
    split at its position in the plan.

    Three execution strategies, picked per invocation:

    * **batch kernel** — input state still scalar and the store serves
      column batches for the (scalar) location: selection over typed
      vectors, dict-code pushdown, late-materialized gather;
    * **hash join** — input state columnar but the location is scalar:
      build a :class:`VectorIndex` from the batch's key columns (dict
      codes for string lanes) and probe it per input row;
    * **row fallback** — everything else (derived relations, virtual
      graph relations, non-columnar stores): the row engine's own
      candidate/match helpers per input row, byte-identical to it.
    """

    __slots__ = (
        "step", "functions", "value_fns", "local_checks", "binds",
        "binds_used", "semi", "point", "point_fns", "batchable", "hash_ok",
        "hash_keys", "env_vars",
    )

    def __init__(self, step: ScanStep, functions: FunctionRegistry,
                 col_vars: Set[str], columnar_state: bool,
                 needed_after: Set[str]) -> None:
        self.step = step
        self.functions = functions
        loc_op = step.arg_ops[0][0]
        if loc_op not in (CHECK_VAR, CHECK_TERM):
            # Unlocated scans only occur in free-mode plans, which the
            # evaluator never routes here; bail out defensively.
            raise _Unvectorizable("unlocated scan")
        # Positions whose values are known before the scan runs, compiled
        # against the *current* scalar/columnar split.
        self.value_fns: Dict[int, Tuple[Any, bool]] = {}
        self.local_checks: List[Tuple[int, int]] = []
        binds: List[Tuple[int, str]] = []
        first_bind: Dict[str, int] = {}
        has_any = False
        for pos, (op, payload) in enumerate(step.arg_ops):
            if op == CHECK_TERM:
                self.value_fns[pos] = _compile_term(
                    payload, functions, col_vars
                )
            elif op == CHECK_VAR:
                if payload in first_bind:
                    # repeated variable within this atom: row-local check
                    self.local_checks.append((first_bind[payload], pos))
                else:
                    self.value_fns[pos] = _compile_term(
                        Var(payload), functions, col_vars
                    )
            elif op == BIND:
                first_bind.setdefault(payload, pos)
                binds.append((pos, payload))
            else:
                has_any = True
        self.binds = binds
        # Late materialization: gather only binds some later step or the
        # head reads; the rest are never decoded.
        self.binds_used = [
            (pos, name) for pos, name in binds if name in needed_after
        ]
        # Semi semantics: exists scans, anti-joins, and positive scans
        # whose bindings all go unused keep the input's cardinality
        # (multiplicity cannot matter — head rows dedup on insert).
        self.semi = step.exists or step.negated or not self.binds_used
        # Point-membership fast path for the row fallback: every position
        # checked, nothing bound or wild — a candidate matches iff it
        # equals the expected tuple, so membership in the partition's row
        # set replaces the whole candidate/match machinery.
        self.point = (
            self.semi and not step.post_filters and not has_any and not binds
        )
        self.point_fns = (
            [self.value_fns[pos][0] for pos in range(len(step.arg_ops))]
            if self.point else []
        )
        loc_scalar = self.value_fns[0][1]
        # The batch kernel drives from a scalar state; post-filters on a
        # non-exists scan never occur but would need per-row envs.
        self.batchable = (
            not columnar_state and loc_scalar
            and not (step.post_filters and not step.exists)
        )
        # Hash-join eligibility: columnar input, scalar location, at
        # least one columnar-checked position to key on, and exactness
        # of a probe hit (no local repeats, no absorbed filters).
        self.hash_keys = [
            pos for pos, (_fn, scalar) in sorted(self.value_fns.items())
            if pos != 0 and not scalar
        ]
        self.hash_ok = (
            columnar_state and loc_scalar and bool(self.hash_keys)
            and not self.local_checks and not step.post_filters
        )
        # Columnar variables whose values per-row fallback envs carry.
        self.env_vars = tuple(col_vars)

    # -- shared selection over one batch --------------------------------
    def _select(self, batch: Any, expected: Dict[int, Any], loc_index: int,
                ctx: "VectorContext") -> Tuple[Optional[List[int]], bool]:
        """Row offsets of ``batch`` passing every known-value check, as
        ``(selection, empty)``: selection ``None`` means *all rows*."""
        count = batch.count
        tick = ctx.tick
        sel: Optional[List[int]] = None
        for pos, value in expected.items():
            if pos == 0 and loc_index == 0:
                continue  # partition selection already proved it
            if batch.lane(pos) == "str":
                code = batch.code_of(pos, value)
                if code is None:
                    return None, True  # literal absent from dictionary
                col: Any = batch.codes(pos)
                value = code
            else:
                col = batch.values(pos)
            tick(count if sel is None else len(sel))
            if sel is None:
                sel = [i for i in range(count) if col[i] == value]
            else:
                sel = [i for i in sel if col[i] == value]
            if not sel:
                return None, True
        for pos_a, pos_b in self.local_checks:
            ca, cb = batch.values(pos_a), batch.values(pos_b)
            tick(count if sel is None else len(sel))
            if sel is None:
                sel = [i for i in range(count) if ca[i] == cb[i]]
            else:
                sel = [i for i in sel if ca[i] == cb[i]]
            if not sel:
                return None, True
        return sel, False

    def _scalar_expected(self, scalars: Dict[str, Any]) -> Dict[int, Any]:
        return {
            pos: fn(scalars, None, 0)
            for pos, (fn, scalar) in self.value_fns.items()
            if scalar
        }

    def _scalar_time(self, scalars: Dict[str, Any]) -> Optional[int]:
        """The scan's time value when provably scalar — narrows the batch
        fetch to one layer. ``None`` fetches all layers; the time column
        check still filters, so this is purely a fast path."""
        step = self.step
        if step.time_bound and step.time_arg is not None:
            entry = self.value_fns.get(step.time_arg)
            if entry is not None and entry[1]:
                return entry[0](scalars, None, 0)
        return None

    # -- batch kernel (scalar input state) -------------------------------
    def _run_batch(self, state: _State, batches: List[Any],
                   loc_index: int, ctx: "VectorContext") -> Optional[_State]:
        step = self.step
        scalars = state.scalars
        expected = self._scalar_expected(scalars)
        arity = len(step.arg_ops)
        gathered: Dict[str, List[Any]] = {
            name: [] for _pos, name in self.binds_used
        }
        single: Optional[Dict[str, Any]] = None
        matched = False
        started = time.perf_counter()
        for batch in batches:
            if batch.arity != arity:
                continue  # rows of this arity can never match the atom
            sel, empty = self._select(batch, expected, loc_index, ctx)
            if empty:
                continue
            if step.negated:
                ctx.time_kernel("selection", started)
                return None  # anti-join witness exists
            if step.exists and step.post_filters:
                if self._exists_filtered(batch, sel, scalars, ctx):
                    matched = True
                    break
                continue
            matched = True
            if self.semi:
                break  # existence settled; no columns consumed
            ids = range(batch.count) if sel is None else sel
            ctx.batch_rows += len(ids)
            if len(batches) == 1 and sel is None:
                # Whole-partition gather of a single batch: keep the
                # typed column views themselves (zero-copy for i64/f64).
                single = {
                    name: batch.values(pos)
                    for pos, name in self.binds_used
                }
            else:
                for pos, name in self.binds_used:
                    values = batch.values(pos)
                    ctx.tick(len(ids))
                    gathered[name].extend(values[i] for i in ids)
        ctx.time_kernel("selection", started)
        if step.negated:
            return state  # no witness in any batch
        if not matched:
            return None
        if self.semi:
            return state
        columns: Dict[str, Any] = single if single is not None else gathered
        state.columns = columns
        state.n = len(next(iter(columns.values())))
        return state

    def _exists_filtered(self, batch: Any, sel: Optional[List[int]],
                         scalars: Dict[str, Any],
                         ctx: "VectorContext") -> bool:
        """Exists scan with absorbed post-filters: first selected row
        passing them settles the branch (same as the row path)."""
        ids = range(batch.count) if sel is None else sel
        values = {pos: batch.values(pos) for pos, _name in self.binds}
        for i in ids:
            ctx.tick(1)
            env = dict(scalars)
            for pos, name in self.binds:
                env[name] = values[pos][i]
            if _passes(self.step.post_filters, env, self.functions):
                return True
        return False

    # -- hash join (columnar input state) --------------------------------
    def _run_hashjoin(self, state: _State, batches: List[Any],
                      loc_index: int,
                      ctx: "VectorContext") -> Optional[_State]:
        step = self.step
        scalars = state.scalars
        columns = state.columns
        arity = len(step.arg_ops)
        expected = self._scalar_expected(scalars)
        hash_keys = self.hash_keys
        started = time.perf_counter()
        # Build one VectorIndex per batch over the key columns — dict
        # codes for string lanes, raw values otherwise. Pickle-lane keys
        # may be unhashable; those scans take the row fallback.
        built: List[Tuple[Any, Optional[List[int]], Any, List[str]]] = []
        for batch in batches:
            if batch.arity != arity:
                continue
            if any(batch.lane(pos) == "pkl" for pos in hash_keys):
                ctx.time_kernel("join", started)
                return self._run_rows(state, ctx)
            sel, empty = self._select(batch, expected, loc_index, ctx)
            if empty:
                continue
            key_cols: List[Any] = []
            lanes: List[str] = []
            for pos in hash_keys:
                lane = batch.lane(pos)
                col = batch.codes(pos) if lane == "str" \
                    else batch.values(pos)
                if sel is not None:
                    col = [col[i] for i in sel]
                key_cols.append(col)
                lanes.append(lane)
            count = batch.count if sel is None else len(sel)
            ctx.tick(count)
            index = VectorIndex(key_cols, count)
            built.append((batch, sel, index, lanes))
            ctx.batch_rows += count
        key_fns = [self.value_fns[pos][0] for pos in hash_keys]
        negated, semi = step.negated, self.semi
        kept: List[int] = []
        out_binds: Dict[str, List[Any]] = {
            name: [] for _pos, name in self.binds_used
        }
        bind_cols: Dict[int, Dict[int, Any]] = {}
        for i in range(state.n or 0):
            ctx.tick(1)
            probe_values = [fn(scalars, columns, i) for fn in key_fns]
            hit = False
            for b, (batch, sel, index, lanes) in enumerate(built):
                parts: List[Any] = []
                miss = False
                for pos, lane, value in zip(hash_keys, lanes, probe_values):
                    if lane == "str":
                        code = batch.code_of(pos, value)
                        if code is None:
                            miss = True
                            break
                        parts.append(code)
                    else:
                        parts.append(value)
                if miss:
                    continue
                key = parts[0] if len(parts) == 1 else tuple(parts)
                try:
                    ids = index.probe(key)
                except TypeError:
                    continue  # unhashable probe value matches nothing
                if not ids:
                    continue
                hit = True
                if semi:
                    break
                cols = bind_cols.get(b)
                if cols is None:
                    cols = bind_cols[b] = {
                        pos: batch.values(pos)
                        for pos, _name in self.binds_used
                    }
                for offset in ids:
                    row_id = offset if sel is None else sel[offset]
                    kept.append(i)
                    for pos, name in self.binds_used:
                        out_binds[name].append(cols[pos][row_id])
            if semi and hit != negated:
                kept.append(i)
        if semi:
            state.compact(kept)
            ctx.time_kernel("join", started)
            return state
        state.columns = {
            name: [col[i] for i in kept]
            for name, col in state.columns.items()
        }
        state.columns.update(out_binds)
        state.n = len(kept)
        ctx.time_kernel("join", started)
        return state if state.n else None

    # -- per-row fallback ------------------------------------------------
    def _run_point(self, state: _State,
                   ctx: "VectorContext") -> Optional[_State]:
        """Membership fast path: every atom position is a check, so a
        candidate matches iff it equals the expected tuple — partition
        membership replaces the candidate/match machinery entirely."""
        step = self.step
        db = ctx.db
        scalars = state.scalars
        columns = state.columns
        tick = ctx.tick
        started = time.perf_counter()
        fns = self.point_fns
        negated = step.negated
        relation = step.relation
        timed = step.time_bound and step.time_arg is not None
        time_arg = step.time_arg
        rows_at = db.rows_at
        rows_of = db.rows
        # Head predicates absent from the backing store live only in the
        # derived overlay; probing it directly skips the per-row store
        # partition lookup. Derived partitions are unsliced, but the
        # expected tuple carries the time attribute, so membership still
        # enforces the time bound.
        derived_rows = (
            db.derived.rows if ctx.derived_only(relation) else None
        )
        kept: List[int] = []
        kept_scalar = False
        checked = 0
        indices: Any = (None,) if state.n is None else range(state.n)
        for i in indices:
            tick(1)
            idx = 0 if i is None else i
            expected = tuple([fn(scalars, columns, idx) for fn in fns])
            if derived_rows is not None:
                part = derived_rows(relation, expected[0])
            elif timed:
                part = rows_at(relation, expected[0], expected[time_arg])
            else:
                part = rows_of(relation, expected[0])
            checked += 1
            try:
                hit = expected in part
            except TypeError:  # unhashable check against a set partition
                hit = any(row == expected for row in part)
            if hit == negated:
                continue
            if i is None:
                kept_scalar = True
            else:
                kept.append(i)
        db.index_scans += checked
        ctx.time_kernel("join", started)
        if state.n is None:
            return state if kept_scalar else None
        state.compact(kept)
        return state

    def _run_rows(self, state: _State,
                  ctx: "VectorContext") -> Optional[_State]:
        """Join through the row engine's candidate/match helpers, one
        input row at a time — byte-identical to the row path on one scan."""
        step = self.step
        functions = self.functions
        db = ctx.db
        scalars = state.scalars
        tick = ctx.tick
        started = time.perf_counter()
        env_vars = self.env_vars
        columns = state.columns
        indices: Any = (None,) if state.n is None else range(state.n)
        kept: List[int] = []
        kept_scalar = False
        out_ids: List[int] = []
        out_binds: Dict[str, List[Any]] = {
            name: [] for _pos, name in self.binds_used
        }
        bind_names = [name for _pos, name in self.binds_used]
        for i in indices:
            tick(1)
            env = dict(scalars)
            if i is not None:
                for v in env_vars:
                    env[v] = columns[v][i]
            checks = _term_checks(step, env, functions)
            if step.negated:
                keep = True
                for row in _candidate_rows(step, env, db, functions, checks):
                    if _match(step, row, env, checks) is not None:
                        keep = False
                        break
            elif self.semi:
                keep = False
                for row in _candidate_rows(step, env, db, functions, checks):
                    extended = _match(step, row, env, checks)
                    if extended is not None and _passes(
                        step.post_filters, extended, functions
                    ):
                        keep = True
                        break
            else:
                keep = False
                for row in _candidate_rows(step, env, db, functions, checks):
                    extended = _match(step, row, env, checks)
                    if extended is None:
                        continue
                    keep = True
                    if i is not None:
                        out_ids.append(i)
                    for name in bind_names:
                        out_binds[name].append(extended[name])
                if keep and i is None:
                    kept_scalar = True
                continue
            if not keep:
                continue
            if i is None:
                kept_scalar = True
            else:
                kept.append(i)
        ctx.time_kernel("join", started)
        if self.semi:
            if state.n is None:
                return state if kept_scalar else None
            state.compact(kept)
            return state
        # Positive scan with used binds: per-match output columns.
        if state.n is None:
            if not kept_scalar:
                return None
            state.columns = out_binds
            state.n = len(next(iter(out_binds.values())))
            return state
        state.columns = {
            name: [col[i] for i in out_ids]
            for name, col in state.columns.items()
        }
        state.columns.update(out_binds)
        state.n = len(out_ids)
        return state if state.n else None

    def run(self, state: _State, ctx: "VectorContext") -> Optional[_State]:
        step = self.step
        if self.batchable or self.hash_ok:
            loc = self.value_fns[0][0](state.scalars, None, 0)
            batches = _column_batches(
                ctx.db, step.relation, loc, self._scalar_time(state.scalars)
            )
            if batches is not None:
                ctx.batched_scans += 1
                ctx.used = True
                loc_index = _location_index(ctx.db, step.relation)
                if self.batchable:
                    return self._run_batch(state, batches, loc_index, ctx)
                return self._run_hashjoin(state, batches, loc_index, ctx)
        ctx.fallback_scans += 1
        if self.point:
            return self._run_point(state, ctx)
        return self._run_rows(state, ctx)


def _column_batches(db: Any, relation: str, loc: Any,
                    superstep: Optional[int]) -> Optional[List[Any]]:
    getter = getattr(db, "column_batches", None)
    if getter is None:
        return None
    return getter(relation, loc, superstep)


def _location_index(db: Any, relation: str) -> int:
    """Column position holding the partition key, or -1 when unknown
    (the kernel then keeps the location check — a redundant check is
    harmless, a wrongly skipped one is not)."""
    getter = getattr(db, "location_index", None)
    if getter is None:
        return -1
    return getter(relation)


# ---------------------------------------------------------------------------
# the compiled program
# ---------------------------------------------------------------------------
class _Program:
    """A rule plan compiled to batch ops. One program per plan object;
    cached on the :class:`VectorContext` for the life of a run."""

    __slots__ = ("ops", "head_fns", "head_scalar")

    def __init__(self, plan: RulePlan, crule: CompiledRule,
                 functions: FunctionRegistry) -> None:
        col_vars: Set[str] = set()
        columnar_state = False
        # Variables still needed strictly *after* step k — feeds the late
        # materialization decision (an unused bind is never gathered).
        head_reads: Set[str] = set()
        for arg in crule.head_args:
            _term_vars(arg, head_reads)
        needed_after: List[Set[str]] = []
        acc = set(head_reads)
        for step in reversed(plan.steps):
            needed_after.insert(0, set(acc))
            acc |= _step_reads(step)
        self.ops: List[Any] = []
        for k, step in enumerate(plan.steps):
            op: Any
            if isinstance(step, ScanStep):
                op = _ScanOp(step, functions, col_vars, columnar_state,
                             needed_after[k])
                if op.binds_used:
                    columnar_state = True
                    col_vars.update(name for _pos, name in op.binds_used)
            elif isinstance(step, CompareStep):
                if step.bind_var is not None:
                    expr = step.right if step.bind_from_left else step.left
                    fn, scalar = _compile_term(expr, functions, col_vars)
                    op = _BindOp(step.bind_var, fn, scalar)
                    if not scalar:
                        columnar_state = True
                        col_vars.add(step.bind_var)
                else:
                    lf, ls = _compile_term(step.left, functions, col_vars)
                    rf, rs = _compile_term(step.right, functions, col_vars)
                    op = _FilterOp(step.op, lf, rf, ls and rs)
            elif isinstance(step, CallStep):
                parts = [
                    _compile_term(a, functions, col_vars) for a in step.args
                ]
                op = _CallOp(
                    functions.get(step.func),
                    [f for f, _ in parts],
                    all(s for _, s in parts),
                    step.negated,
                )
            else:  # pragma: no cover - plan construction guarantees types
                raise _Unvectorizable(f"unknown step {step!r}")
            self.ops.append(op)
        head_parts = [
            _compile_term(arg, functions, col_vars)
            for arg in crule.head_args
        ]
        self.head_fns = [f for f, _ in head_parts]
        self.head_scalar = all(s for _, s in head_parts)

    def run(self, scalars: Dict[str, Any],
            ctx: "VectorContext") -> List[Row]:
        """All head rows of the rule's solutions. Duplicates are allowed —
        the caller's set insert deduplicates, exactly like the row path —
        which is also why a constant head over a non-empty batch may emit
        a single row."""
        state: Optional[_State] = _State(scalars)
        for op in self.ops:
            state = op.run(state, ctx)
            if state is None or state.n == 0:
                return []
        started = time.perf_counter()
        fns = self.head_fns
        scalars = state.scalars
        if state.n is None or self.head_scalar:
            rows = [tuple(f(scalars, None, 0) for f in fns)]
        else:
            columns = state.columns
            tick = ctx.tick
            rows = []
            for i in range(state.n):
                if i % VECTOR_TICK_STRIDE == 0:
                    tick(VECTOR_TICK_STRIDE)
                rows.append(tuple(f(scalars, columns, i) for f in fns))
        ctx.time_kernel("head", started)
        return rows


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------
class VectorContext:
    """Per-run vectorized evaluation state.

    The offline drivers attach one to the database (``db.vector_ctx``);
    :func:`repro.pql.eval.evaluate_rule` routes every eligible
    non-aggregate rule through it. Carries the compiled-program cache,
    the query budget hook, and the kernel timing / usage counters the
    drivers surface in result stats.
    """

    __slots__ = ("budget", "db", "kernel_seconds", "used", "batched_scans",
                 "fallback_scans", "batch_rows", "rules_vectorized",
                 "rules_fallback", "_programs", "_tick_accum",
                 "_derived_only")

    def __init__(self, budget: Optional[Any] = None) -> None:
        self.budget = budget
        self.db: Any = None  # bound per evaluate() call
        self.kernel_seconds: Dict[str, float] = {}
        self.used = False
        self.batched_scans = 0
        self.fallback_scans = 0
        self.batch_rows = 0
        self.rules_vectorized = 0
        self.rules_fallback = 0
        self._programs: Dict[int, Any] = {}
        self._tick_accum = 0
        self._derived_only: Dict[str, bool] = {}

    def derived_only(self, relation: str) -> bool:
        """True when ``relation``'s rows can only live in the derived
        overlay — it is a head predicate of the running query and the
        backing store has no partitions for it. Point kernels then probe
        the overlay directly, skipping the store lookup per row. Sound
        because stores are read-only during offline evaluation."""
        flag = self._derived_only.get(relation)
        if flag is None:
            db = self.db
            heads = getattr(db, "head_predicates", None)
            store = getattr(db, "store", None)
            has = getattr(store, "has_relation", None)
            flag = bool(
                heads is not None and relation in heads
                and has is not None and not has(relation)
            )
            self._derived_only[relation] = flag
        return flag

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
        plan: RulePlan,
        site: Any,
        anchor_time: Optional[int],
        db: Any,
        functions: FunctionRegistry,
    ) -> Optional[List[Row]]:
        """Head rows for one rule invocation, or ``None`` when the plan
        cannot vectorize (the caller falls back to the row path)."""
        key = id(plan)
        program = self._programs.get(key)
        if program is None:
            try:
                program = _Program(plan, crule, functions)
            except _Unvectorizable:
                program = False
            self._programs[key] = program
        if program is False:
            self.rules_fallback += 1
            return None
        self.rules_vectorized += 1
        self.db = db
        scalars = {crule.loc_var: site}
        if crule.time_var in plan.prebound:
            scalars[crule.time_var] = anchor_time
        return program.run(scalars, self)

    def stats(self) -> Dict[str, Any]:
        """Counters for the drivers' result stats."""
        return {
            "kernel_seconds": {
                k: round(v, 6) for k, v in self.kernel_seconds.items()
            },
            "batched_scans": self.batched_scans,
            "fallback_scans": self.fallback_scans,
            "batch_rows": self.batch_rows,
            "rules_vectorized": self.rules_vectorized,
            "rules_fallback": self.rules_fallback,
        }
