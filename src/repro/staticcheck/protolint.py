"""Credit-handshake conformance lint — rules ``proto-credit-return`` and
``proto-push-guard``.

Wormhole flow control is a conservation law: every buffer slot freed by a
pop must eventually send exactly one credit upstream, and every flit
admitted into a credit-backed buffer must have been covered by a
capacity/credit check.  The runtime ``InvariantChecker`` audits this
per-cycle; this pass proves the *code shape* before a single cycle runs,
catching the unpaired-pop class of bug (a drain path that forgets the
refund — the exact hazard ``Router.purge_front_packet`` handles by
mirroring switch traversal's per-flit credit return in ``Router.step``).

The analysis is per class: for every class that owns credit machinery
(it references ``on_credit`` / ``credit_out`` / a ``credits`` view),
the method table is flattened through the shared
:mod:`repro.staticcheck.callgraph` — inherited methods resolve across
modules, overrides win — and two contracts are checked:

``proto-credit-return``
    Every buffer **pop site** (``vc.pop(...)``, ``*.fifo.popleft()``)
    must be followed — in execution order within its method, or in every
    in-class caller after the call site — by a **credit-return site**
    (``on_credit``, a ``send`` on a credit channel, or an increment of a
    ``credits`` view).  The diagnostic renders the statement path from
    the pop to the method exit that lacks a refund.

``proto-push-guard``
    Every raw **push site** (``append`` on a ``queue``/``fifo``, a
    decrement of a ``credits`` view) must be dominated by a
    **guard** — a capacity/credit predicate (``can_accept*``,
    ``has_credit``, ``free_space``, a comparison over a
    credits/free/space expression) appearing as an enclosing test or as
    an earlier early-exit check — either locally or at every in-class
    call site of the containing method.

Buffer classes without credit machinery (``VirtualChannel``) are
exempt: the contract binds the layer that owns both the buffer *and*
the credit wires.  A deliberate exception (e.g. capacity reserved in
an earlier cycle) is annotated ``# proto: allow`` (optionally
``# proto: allow(rule-id)``), mirroring the ``# det: allow``
vocabulary.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.callgraph import CallGraph, build_call_graph
from repro.staticcheck.diagnostics import CheckReport, Severity

_ALLOW_RE = re.compile(r"#\s*proto:\s*allow(?:\(([a-z0-9_,\- ]+)\))?")

#: Class-body substrings marking a class as owning credit machinery.
_CREDIT_MARKERS = ("on_credit", "credit_out", "credits")

#: Guard call names that establish capacity/credit before a push.
_GUARD_CALLS = frozenset(
    {
        "has_credit",
        "can_accept",
        "can_accept_packet",
        "can_accept_flit",
        "free_space",
        "free_slots",
        "_free_flits",
    }
)

#: Substrings in a compared expression that make it a capacity guard.
_GUARD_NAME_HINTS = ("credit", "free", "space", "capacity")


def _attr_chain(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if isinstance(node, ast.Subscript):
        inner = _attr_chain(node.value)
        return f"{inner}[]" if inner else None
    return None


def _suppressed(lines: Sequence[str], lineno: int, rule: str) -> bool:
    for candidate in (lineno, lineno - 1):
        if not (0 < candidate <= len(lines)):
            continue
        m = _ALLOW_RE.search(lines[candidate - 1])
        if m is None:
            continue
        named = m.group(1)
        if named is None or rule in {t.strip() for t in named.split(",")}:
            return True
    return False


class _Site:
    """One pop/push/credit/guard site inside a method."""

    __slots__ = ("node", "stmt", "kind", "detail")

    def __init__(self, node: ast.AST, stmt: ast.stmt, kind: str, detail: str):
        self.node = node
        self.stmt = stmt
        self.kind = kind
        self.detail = detail

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)


def _is_pop_call(node: ast.Call) -> Optional[str]:
    fn = node.func
    if not isinstance(fn, ast.Attribute):
        return None
    chain = _attr_chain(fn) or fn.attr
    if fn.attr == "popleft" and "fifo" in chain:
        return chain
    if fn.attr == "pop":
        base = _attr_chain(fn.value) or ""
        last = base.split(".")[-1].rstrip("[]")
        if last == "vc" or last.endswith("vc") or last == "vcs[]":
            return chain
    return None


def _is_credit_return(
    node: ast.AST, aliases: Optional[Set[str]] = None
) -> Optional[str]:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        fn = node.func
        chain = _attr_chain(fn) or fn.attr
        if fn.attr == "on_credit":
            return chain
        if fn.attr == "send":
            if "credit" in chain.lower():
                return chain
            base = _attr_chain(fn.value)
            if aliases and base in aliases:
                return chain
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
        chain = _attr_chain(node.target) or ""
        if "credit" in chain.lower():
            return chain
    return None


def _credit_aliases(fn: ast.FunctionDef) -> Set[str]:
    """Local names bound from a credit-channel expression."""
    aliases: Set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        chain = _attr_chain(node.value)
        if chain is None or "credit" not in chain.lower():
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                aliases.add(target.id)
    return aliases


def _is_push(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        fn = node.func
        chain = _attr_chain(fn) or fn.attr
        base = chain.rsplit(".", 1)[0].lower() if "." in chain else ""
        if fn.attr == "append" and ("queue" in base or "fifo" in base):
            return chain
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub):
        chain = _attr_chain(node.target) or ""
        if "credit" in chain.lower():
            return chain
    return None


def _is_guard_expr(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            fn = sub.func
            fn_name = (
                fn.attr if isinstance(fn, ast.Attribute)
                else fn.id if isinstance(fn, ast.Name) else ""
            )
            if fn_name in _GUARD_CALLS:
                return True
        if isinstance(sub, ast.Compare):
            text_parts = []
            for piece in [sub.left] + list(sub.comparators):
                chain = _attr_chain(piece)
                if chain:
                    text_parts.append(chain.lower())
            text = " ".join(text_parts)
            if any(hint in text for hint in _GUARD_NAME_HINTS):
                return True
    return False


def _has_early_exit(stmt: ast.If) -> bool:
    for sub in ast.walk(stmt):
        if isinstance(sub, (ast.Return, ast.Raise, ast.Continue, ast.Break)):
            return True
    return False


class _MethodInfo:
    """Sites and structure of one method, for the class-level checks.

    Carries its own ``path``/``lines`` because flattened method tables
    may mix methods defined in different modules.
    """

    def __init__(
        self,
        cls_name: str,
        fn: ast.FunctionDef,
        path: str,
        lines: Sequence[str],
    ) -> None:
        self.cls_name = cls_name
        self.fn = fn
        self.path = path
        self.lines = lines
        self.name = fn.name
        self.pops: List[_Site] = []
        self.credit_returns: List[_Site] = []
        self.pushes: List[_Site] = []
        self.self_calls: Set[str] = set()
        self.self_call_sites: Dict[str, List[ast.stmt]] = {}
        self._collect()

    def _collect(self) -> None:
        # Associate every node with its *innermost* enclosing statement,
        # so "what follows this site" walks the right suite chain.
        stmt_of: Dict[int, ast.stmt] = {}

        def index(node: ast.AST, current: Optional[ast.stmt]) -> None:
            for child in ast.iter_child_nodes(node):
                inner = child if isinstance(child, ast.stmt) else current
                if inner is not None:
                    stmt_of[id(child)] = inner
                index(child, inner)

        index(self.fn, None)
        aliases = _credit_aliases(self.fn)

        for node in ast.walk(self.fn):
            if node is self.fn:
                continue
            stmt = stmt_of.get(id(node))
            if stmt is None:
                continue
            if isinstance(node, ast.Call):
                detail = _is_pop_call(node)
                if detail:
                    self.pops.append(_Site(node, stmt, "pop", detail))
                fn = node.func
                if (
                    isinstance(fn, ast.Attribute)
                    and isinstance(fn.value, ast.Name)
                    and fn.value.id == "self"
                ):
                    self.self_calls.add(fn.attr)
                    sites = self.self_call_sites.setdefault(fn.attr, [])
                    if stmt not in sites:
                        sites.append(stmt)
            detail = _is_credit_return(node, aliases)
            if detail:
                self.credit_returns.append(_Site(node, stmt, "credit", detail))
            detail = _is_push(node)
            if detail:
                self.pushes.append(_Site(node, stmt, "push", detail))


def _suite_paths(fn: ast.FunctionDef) -> Dict[int, Tuple[ast.stmt, ...]]:
    """Map id(stmt) -> chain of enclosing statements (outermost first)."""
    paths: Dict[int, Tuple[ast.stmt, ...]] = {}

    def walk(stmts: List[ast.stmt], chain: Tuple[ast.stmt, ...]) -> None:
        for stmt in stmts:
            paths[id(stmt)] = chain + (stmt,)
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if isinstance(sub, list) and sub and isinstance(
                    sub[0], ast.stmt
                ):
                    walk(sub, chain + (stmt,))
            for handler in getattr(stmt, "handlers", []) or []:
                walk(handler.body, chain + (stmt,))

    walk(fn.body, ())
    return paths


def _following_statements(
    fn: ast.FunctionDef, stmt: ast.stmt
) -> List[ast.stmt]:
    """Statements that execute after ``stmt`` finishes, in source order.

    Includes the suffix of every enclosing suite and — when the
    statement sits inside a loop — the whole loop body (a later
    iteration runs the statements *before* it too).
    """
    paths = _suite_paths(fn)
    chain = paths.get(id(stmt))
    if chain is None:
        return []
    out: List[ast.stmt] = []

    def suite_suffix(stmts: List[ast.stmt], after: ast.stmt) -> None:
        try:
            idx = stmts.index(after)
        except ValueError:
            return
        out.extend(stmts[idx + 1 :])

    # Walk up the enclosure chain collecting each suite's suffix.
    containers = (fn,) + chain
    for parent, child in zip(containers, containers[1:]):
        for attr in ("body", "orelse", "finalbody"):
            sub = getattr(parent, attr, None)
            if isinstance(sub, list):
                suite_suffix(sub, child)
        for handler in getattr(parent, "handlers", []) or []:
            suite_suffix(handler.body, child)
        if isinstance(parent, (ast.For, ast.While)):
            out.extend(parent.body)
    return out


def _contains_site(stmts: List[ast.stmt], sites: List[_Site]) -> bool:
    wanted = {id(s.stmt) for s in sites}
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.stmt) and id(node) in wanted:
                return True
        if id(stmt) in wanted:
            return True
    return False


class _ClassAnalysis:
    """Checks the handshake contract over one (flattened) class."""

    def __init__(
        self,
        methods: Dict[str, _MethodInfo],
        report: CheckReport,
    ) -> None:
        self.report = report
        self.methods = methods

    # -- transitive credit behaviour ----------------------------------------
    def _returns_credit(self, name: str, seen: Optional[Set[str]] = None) -> bool:
        info = self.methods.get(name)
        if info is None:
            return False
        if info.credit_returns:
            return True
        seen = seen or set()
        seen.add(name)
        return any(
            self._returns_credit(callee, seen)
            for callee in info.self_calls
            if callee not in seen
        )

    def _callers_of(self, name: str) -> List[Tuple[_MethodInfo, ast.stmt]]:
        out = []
        for info in self.methods.values():
            for stmt in info.self_call_sites.get(name, []):
                out.append((info, stmt))
        return out

    # -- proto-credit-return -------------------------------------------------
    def check_credit_returns(self) -> None:
        for info in self.methods.values():
            for pop in info.pops:
                if self._pop_refunded(info, pop):
                    continue
                if _suppressed(
                    info.lines, pop.lineno, "proto-credit-return"
                ):
                    continue
                trail = self._render_trail(info, pop)
                self.report.add(
                    "proto-credit-return",
                    Severity.WARNING,
                    f"{info.path}:{pop.lineno}",
                    f"{info.cls_name}.{info.name} pops {pop.detail} but no "
                    f"credit return follows on the path to exit{trail}",
                    "send the freed slot upstream (on_credit/credit "
                    "channel send) after the pop, or annotate a "
                    "deliberate exception with '# proto: allow'",
                )

    def _pop_refunded(self, info: _MethodInfo, pop: _Site) -> bool:
        following = _following_statements(info.fn, pop.stmt)
        # The popping statement itself may combine pop and refund.
        candidates = [pop.stmt] + following
        if _contains_site(candidates, info.credit_returns):
            return True
        # A later self-call that transitively returns credits counts.
        for stmt in candidates:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and self._returns_credit(node.func.attr)
                ):
                    return True
        # Otherwise every in-class caller must refund after calling us.
        callers = self._callers_of(info.name)
        if callers:
            return all(
                _contains_site(
                    [call_stmt] + _following_statements(c.fn, call_stmt),
                    c.credit_returns,
                )
                for c, call_stmt in callers
            )
        return False

    def _render_trail(self, info: _MethodInfo, pop: _Site) -> str:
        following = _following_statements(info.fn, pop.stmt)
        linenos = []
        for stmt in [pop.stmt] + following:
            line = getattr(stmt, "lineno", 0)
            if line and line not in linenos:
                linenos.append(line)
            if len(linenos) >= 6:
                break
        if not linenos:
            return ""
        return " (path: line " + " -> ".join(str(n) for n in linenos) + ")"

    # -- proto-push-guard ----------------------------------------------------
    def check_push_guards(self) -> None:
        for info in self.methods.values():
            for push in info.pushes:
                if self._push_guarded(info, push):
                    continue
                if _suppressed(info.lines, push.lineno, "proto-push-guard"):
                    continue
                self.report.add(
                    "proto-push-guard",
                    Severity.WARNING,
                    f"{info.path}:{push.lineno}",
                    f"{info.cls_name}.{info.name} pushes via {push.detail} "
                    "without a dominating capacity/credit check",
                    "guard the push with has_credit/can_accept/"
                    "free-space logic, or annotate a capacity "
                    "reservation made elsewhere with '# proto: allow'",
                )

    def _push_guarded(
        self, info: _MethodInfo, push: _Site, seen: Optional[Set[str]] = None
    ) -> bool:
        paths = _suite_paths(info.fn)
        chain = paths.get(id(push.stmt), ())
        # (a) an enclosing if/while whose test is a guard predicate
        for parent in chain:
            if isinstance(parent, (ast.If, ast.While)) and _is_guard_expr(
                parent.test
            ):
                return True
        # (b) an earlier early-exit guard in any enclosing suite
        containers = (info.fn,) + tuple(chain)
        for parent, child in zip(containers, containers[1:]):
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(parent, attr, None)
                if not isinstance(sub, list) or child not in sub:
                    continue
                for earlier in sub[: sub.index(child)]:
                    if (
                        isinstance(earlier, ast.If)
                        and _is_guard_expr(earlier.test)
                        and _has_early_exit(earlier)
                    ):
                        return True
        # (c) every in-class caller dominates the call with a guard
        seen = seen or set()
        if info.name in seen:
            return False
        seen.add(info.name)
        callers = self._callers_of(info.name)
        if callers:
            return all(
                self._push_guarded(
                    c, _Site(call_stmt, call_stmt, "push", push.detail), seen
                )
                for c, call_stmt in callers
            )
        return False


def _class_owns_credits(methods: Dict[str, _MethodInfo]) -> bool:
    for info in methods.values():
        text = ast.dump(info.fn)
        if any(marker in text for marker in _CREDIT_MARKERS):
            return True
    return False


def _flattened_method_infos(
    graph: CallGraph, class_qname: str
) -> Dict[str, _MethodInfo]:
    """The class's merged method table as :class:`_MethodInfo` records.

    Methods flattened in from bases keep the *defining* class's name,
    path, and source lines — they may live in a different module than
    the leaf class.
    """
    methods: Dict[str, _MethodInfo] = {}
    for name, node in graph.flattened_methods(class_qname).items():
        if not isinstance(node.node, ast.FunctionDef):
            continue
        info = graph.modules.get(node.module)
        lines: Sequence[str] = info.lines if info is not None else ()
        methods[name] = _MethodInfo(
            node.cls_bare or "?", node.node, node.path, lines
        )
    return methods


def lint_graph(graph: CallGraph, only_module: Optional[str] = None) -> CheckReport:
    """Credit-handshake conformance lint over a built call graph.

    ``only_module`` restricts analysis to classes defined in one module
    (used by :func:`lint_source`); by default every leaf class in the
    graph is checked, with inherited methods resolved cross-module.
    """
    report = CheckReport()
    merged = CheckReport()
    for qname in sorted(graph.classes):
        cls = graph.classes[qname]
        if only_module is not None and cls.module != only_module:
            continue
        # Bases with subclasses are analyzed through each flattened
        # leaf, where their callers are visible.
        if graph.subclasses(qname):
            continue
        methods = _flattened_method_infos(graph, qname)
        if not _class_owns_credits(methods):
            continue
        analysis = _ClassAnalysis(methods, merged)
        analysis.check_credit_returns()
        analysis.check_push_guards()

    # Leaf classes sharing a base produce identical findings for
    # inherited sites; keep the first of each.
    seen: Set[Tuple[str, str, str]] = set()
    for diag in merged:
        key = (diag.rule, diag.location, diag.message)
        if key in seen:
            continue
        seen.add(key)
        report.diagnostics.append(diag)
    return report


def lint_source(
    text: str, path: str = "<string>", graph: Optional[CallGraph] = None
) -> CheckReport:
    """Credit-handshake conformance lint over one module's source text."""
    if graph is None:
        graph = build_call_graph([(path, text)])
    exc = graph.errors.get(path)
    if exc is not None:
        report = CheckReport()
        report.add(
            "proto-credit-return",
            Severity.ERROR,
            f"{path}:{exc.lineno or 0}",
            f"cannot parse module: {exc.msg}",
            "fix the syntax error first",
        )
        return report
    return lint_graph(graph, only_module=graph.module_by_path.get(path))


def lint_paths(paths) -> CheckReport:
    """Credit-handshake lint over files/directories of Python code."""
    from repro.staticcheck.detlint import iter_python_files

    sources = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fh:
            sources.append((path, fh.read()))
    graph = build_call_graph(sources)
    return lint_graph(graph)


__all__ = ["lint_graph", "lint_paths", "lint_source"]
