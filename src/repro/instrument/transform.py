"""Source-to-source instrumentation transform (Section 2).

"Random sampling is added to a program via a source-to-source
transformation."  This module is the Python analogue of the paper's C
transformation: an :mod:`ast` rewrite that threads every instrumented
construct through the shared :class:`~repro.instrument.runtime.Runtime`
object, bound to the name ``_cbi`` in the instrumented module's globals.

Rewrites performed (all semantics-preserving -- every helper returns its
wrapped value):

* **branches**: ``if``/``while`` tests, ternary tests, comprehension
  guards, and each operand of short-circuiting ``and``/``or`` become
  ``_cbi.branch(site, test)``.
* **returns**: every call expression ``f(...)`` becomes
  ``_cbi.ret(site, f(...))``; the runtime records the six sign predicates
  when the value is scalar.
* **scalar-pairs**: after each assignment ``x = ...`` (including
  augmented assignments and ``for`` targets) the transform emits
  ``_cbi.pairs((s1, ..., sk), x, (prev, y1, ..., c1, ...))`` comparing the
  new value of ``x`` with its previous value ("new value of x < old value
  of x" in the paper's tables), with other in-scope scalar variables, and
  with the numeric constants appearing in the function.  Each pair is a
  distinct instrumentation site, as in the paper.

Pair sites compare against at most the :data:`MAX_PAIR_VARS` most
recently assigned variables and the first :data:`MAX_PAIR_CONSTS`
constants of the function.  Calls whose (dotted) name starts with one of
:data:`EXCLUDED_CALL_PREFIXES` -- the runtime itself and the ground-truth
side channel ``record_bug`` -- are never instrumented.  These are the
transform's only settings; there is one instrumentation, so stores
record one configuration digest (:data:`repro.store.manifest.CONFIG_SHA`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.predicates import PredicateTable, Scheme

#: Maximum characters kept of an unparsed source snippet in descriptions.
_DESC_LIMIT = 60

#: ``try``-shaped statements; ``except*`` groups exist on 3.11+ only.
_TRY_NODES: Tuple[type, ...] = (ast.Try,)
if hasattr(ast, "TryStar"):  # pragma: no branch - version gate
    _TRY_NODES = (ast.Try, ast.TryStar)


#: Global name the runtime object is bound to in instrumented code.
RUNTIME_NAME = "_cbi"

#: Cap on in-scope variables compared per assignment (the most recently
#: assigned are kept).
MAX_PAIR_VARS = 8

#: Cap on function constants compared per assignment (the first found
#: by :func:`_collect_constants` are kept).
MAX_PAIR_CONSTS = 6

#: Dotted-name prefixes never treated as instrumentable calls.
EXCLUDED_CALL_PREFIXES: Tuple[str, ...] = (RUNTIME_NAME, "record_bug")


@dataclass
class _FunctionContext:
    """Per-function state while rewriting."""

    name: str
    assigned: List[str] = field(default_factory=list)
    constants: List[object] = field(default_factory=list)
    is_class_body: bool = False

    def note_assigned(self, name: str) -> None:
        if name.startswith("_cbi"):
            return
        if name not in self.assigned:
            self.assigned.append(name)


def _collect_constants(node: ast.AST) -> List[object]:
    """Distinct numeric constants in ``ast.walk`` (breadth-first) order,
    bools excluded."""
    seen: List[object] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant):
            v = sub.value
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                if v not in seen:
                    seen.append(v)
    return seen


def _snippet(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure fallback
        text = f"<{type(node).__name__}>"
    text = " ".join(text.split())
    if len(text) > _DESC_LIMIT:
        text = text[: _DESC_LIMIT - 3] + "..."
    return text


def _dotted_name(func: ast.expr) -> Optional[str]:
    """Dotted name of a call target, or ``None`` for computed targets."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Instrumenter:
    """Rewrites Python source, registering sites in a predicate table."""

    def __init__(
        self,
        table: Optional[PredicateTable] = None,
        function_prefix: str = "",
    ) -> None:
        self.table = table if table is not None else PredicateTable()
        #: Prepended to every site's function name.  The factory sets this
        #: to ``"<module>:"`` so sites from different modules of one
        #: package never collide in the shared table.
        self.function_prefix = function_prefix

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def instrument(self, source: str, filename: str = "<subject>") -> ast.Module:
        """Parse ``source``, instrument it, and return the new module AST.

        Sites are registered in :attr:`table` as they are encountered, in
        deterministic source order.
        """
        tree = ast.parse(source, filename=filename)
        ctx = _FunctionContext(
            name=self.function_prefix + "<module>", constants=[]
        )
        tree.body = self._process_stmts(tree.body, ctx)
        ast.fix_missing_locations(tree)
        return tree

    # ------------------------------------------------------------------
    # Node factories
    # ------------------------------------------------------------------
    def _runtime_attr(self, method: str) -> ast.Attribute:
        return ast.Attribute(
            value=ast.Name(id=RUNTIME_NAME, ctx=ast.Load()),
            attr=method,
            ctx=ast.Load(),
        )

    def _wrap_branch(
        self, ctx: _FunctionContext, test: ast.expr, desc: Optional[str] = None
    ) -> ast.expr:
        line = getattr(test, "lineno", 0)
        if desc is None:
            desc = _snippet(test)
        site = self.table.add_site(Scheme.BRANCHES, ctx.name, line, desc)
        call = ast.Call(
            func=self._runtime_attr("branch"),
            args=[ast.Constant(value=site.index), test],
            keywords=[],
        )
        return ast.copy_location(call, test)

    def _wrap_call(self, ctx: _FunctionContext, call: ast.Call) -> ast.expr:
        name = _dotted_name(call.func)
        desc = name if name is not None else _snippet(call.func)
        site = self.table.add_site(
            Scheme.RETURNS, ctx.name, getattr(call, "lineno", 0), desc
        )
        wrapped = ast.Call(
            func=self._runtime_attr("ret"),
            args=[ast.Constant(value=site.index), call],
            keywords=[],
        )
        return ast.copy_location(wrapped, call)

    def _excluded_call(self, func: ast.expr) -> bool:
        name = _dotted_name(func)
        if name is None:
            return False
        parts = name.split(".")
        for prefix in EXCLUDED_CALL_PREFIXES:
            if any(p.startswith(prefix) for p in parts):
                return True
        return False

    # ------------------------------------------------------------------
    # Expression instrumentation
    # ------------------------------------------------------------------
    def _transform_expr(self, node: ast.AST, ctx: _FunctionContext) -> ast.AST:
        """Instrument calls / boolean operators inside one expression tree."""
        return _ExprInstrumenter(self, ctx).visit(node)

    # ------------------------------------------------------------------
    # Scalar-pair emission
    # ------------------------------------------------------------------
    def _pair_candidates(
        self, ctx: _FunctionContext, target: str
    ) -> List[Tuple[str, ast.expr]]:
        """Return the non-old-value candidates for an assignment to target.

        Each candidate is ``(description, value expression)``; description
        uses the paper's ``x __ y`` placeholder, expanded per relation by
        the predicate table's default names.
        """
        cands: List[Tuple[str, ast.expr]] = []
        names = [n for n in ctx.assigned if n != target][-MAX_PAIR_VARS:]
        for name in names:
            cands.append((f"{target} __ {name}", ast.Name(id=name, ctx=ast.Load())))
        for value in ctx.constants[:MAX_PAIR_CONSTS]:
            cands.append((f"{target} __ {value}", ast.Constant(value=value)))
        return cands

    def _emit_pairs(
        self,
        ctx: _FunctionContext,
        target: str,
        line: int,
        capture_old: bool,
    ) -> Tuple[List[ast.stmt], List[ast.stmt]]:
        """Build (pre-statements, post-statements) around an assignment."""
        cands = self._pair_candidates(ctx, target)
        site_ids: List[int] = []
        value_exprs: List[ast.expr] = []

        pre: List[ast.stmt] = []
        if capture_old:
            site = self.table.add_site(
                Scheme.SCALAR_PAIRS,
                ctx.name,
                line,
                f"new value of {target} __ old value of {target}",
            )
            site_ids.append(site.index)
            value_exprs.append(ast.Name(id="_cbi_prev", ctx=ast.Load()))
            # try: _cbi_prev = x
            # except (NameError, UnboundLocalError): _cbi_prev = _cbi.UNBOUND
            pre.append(
                ast.Try(
                    body=[
                        ast.Assign(
                            targets=[ast.Name(id="_cbi_prev", ctx=ast.Store())],
                            value=ast.Name(id=target, ctx=ast.Load()),
                        )
                    ],
                    handlers=[
                        ast.ExceptHandler(
                            type=ast.Tuple(
                                elts=[
                                    ast.Name(id="NameError", ctx=ast.Load()),
                                    ast.Name(id="UnboundLocalError", ctx=ast.Load()),
                                ],
                                ctx=ast.Load(),
                            ),
                            name=None,
                            body=[
                                ast.Assign(
                                    targets=[ast.Name(id="_cbi_prev", ctx=ast.Store())],
                                    value=self._runtime_attr("UNBOUND"),
                                )
                            ],
                        )
                    ],
                    orelse=[],
                    finalbody=[],
                )
            )

        for desc, expr in cands:
            site = self.table.add_site(Scheme.SCALAR_PAIRS, ctx.name, line, desc)
            site_ids.append(site.index)
            value_exprs.append(expr)

        if not site_ids:
            return pre, []

        pairs_call = ast.Expr(
            value=ast.Call(
                func=self._runtime_attr("pairs"),
                args=[
                    ast.Tuple(
                        elts=[ast.Constant(value=s) for s in site_ids], ctx=ast.Load()
                    ),
                    ast.Name(id=target, ctx=ast.Load()),
                    ast.Tuple(elts=value_exprs, ctx=ast.Load()),
                ],
                keywords=[],
            )
        )
        post = [
            ast.Try(
                body=[pairs_call],
                handlers=[
                    ast.ExceptHandler(
                        type=ast.Tuple(
                            elts=[
                                ast.Name(id="NameError", ctx=ast.Load()),
                                ast.Name(id="UnboundLocalError", ctx=ast.Load()),
                            ],
                            ctx=ast.Load(),
                        ),
                        name=None,
                        body=[ast.Pass()],
                    )
                ],
                orelse=[],
                finalbody=[],
            )
        ]
        if ctx.is_class_body and pre:
            # The old-value capture would otherwise survive as a class
            # attribute named ``_cbi_prev`` on every instrumented class.
            post = post + [
                ast.Delete(targets=[ast.Name(id="_cbi_prev", ctx=ast.Del())])
            ]
        return pre, post

    # ------------------------------------------------------------------
    # Statement walking
    # ------------------------------------------------------------------
    def _note_target_names(self, target: ast.expr, ctx: _FunctionContext) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                ctx.note_assigned(node.id)

    def _note_pattern_names(self, pattern: ast.AST, ctx: _FunctionContext) -> None:
        """Record names captured by a ``match`` pattern as assigned."""
        for node in ast.walk(pattern):
            if isinstance(node, (ast.MatchAs, ast.MatchStar)):
                if node.name:
                    ctx.note_assigned(node.name)
            elif isinstance(node, ast.MatchMapping) and node.rest:
                ctx.note_assigned(node.rest)

    def _process_stmts(
        self, stmts: Sequence[ast.stmt], ctx: _FunctionContext
    ) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for stmt in stmts:
            out.extend(self._process_stmt(stmt, ctx))
        return out

    def _process_stmt(self, stmt: ast.stmt, ctx: _FunctionContext) -> List[ast.stmt]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = _FunctionContext(
                name=self.function_prefix + stmt.name,
                constants=_collect_constants(stmt),
            )
            args = stmt.args
            for a in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                inner.note_assigned(a.arg)
            stmt.body = self._process_stmts(stmt.body, inner)
            ctx.note_assigned(stmt.name)
            return [stmt]

        if isinstance(stmt, ast.ClassDef):
            inner = _FunctionContext(
                name=self.function_prefix + stmt.name,
                constants=_collect_constants(stmt),
                is_class_body=True,
            )
            stmt.body = self._process_stmts(stmt.body, inner)
            return [stmt]

        if isinstance(stmt, (ast.If, ast.While)):
            desc = _snippet(stmt.test)
            stmt.test = self._transform_expr(stmt.test, ctx)
            stmt.test = self._wrap_branch(ctx, stmt.test, desc)
            stmt.body = self._process_stmts(stmt.body, ctx)
            stmt.orelse = self._process_stmts(stmt.orelse, ctx)
            return [stmt]

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            stmt.iter = self._transform_expr(stmt.iter, ctx)
            self._note_target_names(stmt.target, ctx)
            body_prefix: List[ast.stmt] = []
            if isinstance(stmt.target, ast.Name):
                _, post = self._emit_pairs(
                    ctx, stmt.target.id, stmt.lineno, capture_old=False
                )
                body_prefix = post
            stmt.body = body_prefix + self._process_stmts(stmt.body, ctx)
            stmt.orelse = self._process_stmts(stmt.orelse, ctx)
            return [stmt]

        if isinstance(stmt, _TRY_NODES):
            stmt.body = self._process_stmts(stmt.body, ctx)
            for handler in stmt.handlers:
                if handler.name:
                    ctx.note_assigned(handler.name)
                handler.body = self._process_stmts(handler.body, ctx)
            stmt.orelse = self._process_stmts(stmt.orelse, ctx)
            stmt.finalbody = self._process_stmts(stmt.finalbody, ctx)
            return [stmt]

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                item.context_expr = self._transform_expr(item.context_expr, ctx)
                if item.optional_vars is not None:
                    self._note_target_names(item.optional_vars, ctx)
            stmt.body = self._process_stmts(stmt.body, ctx)
            return [stmt]

        if isinstance(stmt, ast.Match):
            # Patterns themselves must stay untouched (they are not
            # expressions), but the subject, the guards, and every case
            # body are ordinary code and get full instrumentation.  Each
            # guard is a branch site, like an ``if`` test.
            stmt.subject = self._transform_expr(stmt.subject, ctx)
            for case in stmt.cases:
                self._note_pattern_names(case.pattern, ctx)
                if case.guard is not None:
                    desc = _snippet(case.guard)
                    case.guard = self._transform_expr(case.guard, ctx)
                    case.guard = self._wrap_branch(ctx, case.guard, desc)
                case.body = self._process_stmts(case.body, ctx)
            return [stmt]

        if isinstance(stmt, ast.Assign):
            stmt.value = self._transform_expr(stmt.value, ctx)
            result: List[ast.stmt] = [stmt]
            if (
                len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and not stmt.targets[0].id.startswith("_cbi")
            ):
                target = stmt.targets[0].id
                pre, post = self._emit_pairs(ctx, target, stmt.lineno, capture_old=True)
                result = pre + [stmt] + post
                ctx.note_assigned(target)
            else:
                for t in stmt.targets:
                    self._note_target_names(t, ctx)
            return result

        if isinstance(stmt, ast.AugAssign):
            stmt.value = self._transform_expr(stmt.value, ctx)
            result = [stmt]
            if isinstance(stmt.target, ast.Name):
                target = stmt.target.id
                pre, post = self._emit_pairs(ctx, target, stmt.lineno, capture_old=True)
                result = pre + [stmt] + post
                ctx.note_assigned(target)
            return result

        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                stmt.value = self._transform_expr(stmt.value, ctx)
                if isinstance(stmt.target, ast.Name):
                    target = stmt.target.id
                    pre, post = self._emit_pairs(
                        ctx, target, stmt.lineno, capture_old=True
                    )
                    ctx.note_assigned(target)
                    return pre + [stmt] + post
            if isinstance(stmt.target, ast.Name):
                ctx.note_assigned(stmt.target.id)
            return [stmt]

        if isinstance(stmt, (ast.Expr, ast.Return, ast.Raise, ast.Assert, ast.Delete)):
            return [self._transform_expr(stmt, ctx)]

        # Imports, global/nonlocal, pass/break/continue, etc.
        return [stmt]


class _ExprInstrumenter(ast.NodeTransformer):
    """Wraps calls and short-circuit/ternary tests within one expression."""

    def __init__(self, owner: Instrumenter, ctx: _FunctionContext) -> None:
        self.owner = owner
        self.ctx = ctx

    # Do not descend into nested scopes; they are handled at statement
    # level (functions/classes) or intentionally skipped (lambdas).
    def visit_FunctionDef(self, node):  # pragma: no cover - defensive
        return node

    def visit_AsyncFunctionDef(self, node):  # pragma: no cover - defensive
        return node

    def visit_ClassDef(self, node):  # pragma: no cover - defensive
        return node

    def visit_Lambda(self, node):
        return node

    def visit_Call(self, node: ast.Call):
        self.generic_visit(node)
        if self.owner._excluded_call(node.func):
            return node
        return self.owner._wrap_call(self.ctx, node)

    def visit_BoolOp(self, node: ast.BoolOp):
        descs = [_snippet(v) for v in node.values]
        self.generic_visit(node)
        node.values = [
            self.owner._wrap_branch(self.ctx, v, d) for v, d in zip(node.values, descs)
        ]
        return node

    def visit_IfExp(self, node: ast.IfExp):
        desc = _snippet(node.test)
        self.generic_visit(node)
        node.test = self.owner._wrap_branch(self.ctx, node.test, desc)
        return node

    def visit_comprehension(self, node: ast.comprehension):
        descs = [_snippet(i) for i in node.ifs]
        self.generic_visit(node)
        node.ifs = [
            self.owner._wrap_branch(self.ctx, i, d) for i, d in zip(node.ifs, descs)
        ]
        return node
