"""Interprocedural side-effect summaries over the call graph.

For every function in a :class:`~repro.staticcheck.callgraph.CallGraph`
this engine computes which *state paths* it mutates — attribute chains
rooted at ``self``, a parameter, or a module global — which mutable
attributes it reads, and whether it is pure.  Summaries compose to a
fixpoint over the strongly connected components of the call graph, so
``transitive(f)`` covers everything reachable from ``f`` even through
recursion.

Alias resolution is flow-sensitive: a must-alias analysis built on the
:mod:`repro.staticcheck.flow` worklist framework tracks which locals are
bound to which chains (``fifo = vcq.fifo`` makes ``fifo.append(x)`` a
write through ``vcq.fifo``), with set-intersection join so only bindings
valid on *every* path survive.

Writes are keyed for comparison by their **final attribute name**
(``self.inports[p].vcs[v].fifo`` and a ``_wiring`` table alias of
the same deque both key as ``fifo``) — coarse enough to survive aliasing
through precomputed wiring tables, precise enough to diff two kernels'
mutation footprints.  The full chain and owning class are kept on each
:class:`Write` for diagnostics.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.staticcheck.callgraph import (
    CallGraph,
    CallSite,
    FunctionNode,
    chain_of,
    final_attr,
)
from repro.staticcheck.flow import BranchCondition, ForwardAnalysis, build_cfg

__all__ = ["EffectEngine", "EffectSummary", "Write"]

#: Container methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popitem", "popleft", "remove",
        "reverse", "rotate", "setdefault", "sort", "update",
    }
)

#: Calls that never mutate simulator state (purity bookkeeping).
_PURE_CALLS = frozenset(
    {
        "abs", "all", "any", "bool", "dict", "divmod", "enumerate",
        "filter", "float", "format", "frozenset", "getattr", "hasattr",
        "id", "int", "isinstance", "issubclass", "iter", "len", "list",
        "map", "max", "min", "range", "repr", "reversed", "round", "set",
        "sorted", "str", "sum", "super", "tuple", "type", "zip",
    }
)

#: Value expressions that create a fresh object owned by the local scope.
_FRESH_CTORS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict",
     "Counter", "frozenset", "tuple", "str", "int", "float", "bool"}
)

_FRESH = "~fresh"


class Write:
    """One state mutation: full chain, comparison key, provenance."""

    __slots__ = ("path", "attr", "owner", "qname", "lineno", "kind")

    def __init__(
        self, path: str, owner: str, qname: str, lineno: int, kind: str
    ) -> None:
        self.path = path            # normalized chain, e.g. self._wake[]
        self.attr = final_attr(path) or path  # comparison key
        self.owner = owner          # owning class bare name, or chain root
        self.qname = qname          # function that performs the write
        self.lineno = lineno
        self.kind = kind            # assign | aug | mutator | del

    def key(self) -> Tuple[str, str, str, int]:
        return (self.path, self.qname, self.kind, self.lineno)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Write({self.path} [{self.kind}] in {self.qname})"


class EffectSummary:
    """Mutation footprint of one function (direct or transitive)."""

    __slots__ = ("writes", "reads", "global_writes", "calls_unknown")

    def __init__(
        self,
        writes: Iterable[Write] = (),
        reads: Iterable[str] = (),
        global_writes: Iterable[str] = (),
        calls_unknown: bool = False,
    ) -> None:
        self.writes: Tuple[Write, ...] = tuple(writes)
        self.reads: FrozenSet[str] = frozenset(reads)
        self.global_writes: FrozenSet[str] = frozenset(global_writes)
        self.calls_unknown = calls_unknown

    @property
    def write_attrs(self) -> FrozenSet[str]:
        """Final-attribute comparison keys of every write."""
        return frozenset(w.attr for w in self.writes)

    @property
    def pure(self) -> bool:
        """Provably side-effect-free (no writes, no unknown calls)."""
        return (
            not self.writes
            and not self.global_writes
            and not self.calls_unknown
        )

    def merge(self, *others: "EffectSummary") -> "EffectSummary":
        writes: List[Write] = list(self.writes)
        seen = {w.key() for w in writes}
        reads = set(self.reads)
        global_writes = set(self.global_writes)
        unknown = self.calls_unknown
        for other in others:
            for w in other.writes:
                if w.key() not in seen:
                    seen.add(w.key())
                    writes.append(w)
            reads |= other.reads
            global_writes |= other.global_writes
            unknown = unknown or other.calls_unknown
        return EffectSummary(writes, reads, global_writes, unknown)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EffectSummary(writes={sorted(self.write_attrs)}, "
            f"pure={self.pure})"
        )


class _AliasAnalysis(ForwardAnalysis):
    """Must-alias bindings: frozenset of (local name, chain) pairs."""

    def __init__(self, cfg, params: List[str]) -> None:
        super().__init__(cfg)
        self.params = params
        self._pending_for: Optional[int] = None  # id() of a for-loop iter

    def initial_state(self):
        return frozenset((p, p) for p in self.params)

    def join(self, a, b):
        return a & b

    def transfer(self, state, stmt):
        state = self._walrus_binds(state, stmt)
        if isinstance(stmt, BranchCondition):
            self._pending_for = (
                id(stmt.expr) if stmt.kind in ("for", "with") else None
            )
            return state
        if not isinstance(stmt, ast.Assign):
            if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)) and \
                    isinstance(stmt.target, ast.Name):
                return self._rebind(state, stmt.target.id, None)
            return state
        aliases = dict(state)
        value = stmt.value
        element = (
            self._pending_for is not None
            and id(value) == self._pending_for
        )
        self._pending_for = None
        chain = chain_of(value, aliases)
        if chain is None and _is_fresh(value):
            chain = _FRESH
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                bound = chain
                if bound is not None and element and not _is_with_bind(value):
                    bound = f"{bound}[]"
                state = self._rebind(state, target.id, bound)
            elif isinstance(target, (ast.Tuple, ast.List)):
                suffix = "[]" if not element else "[][]"
                enum = _enumerate_arg(value)
                for i, elt in enumerate(target.elts):
                    if not isinstance(elt, ast.Name):
                        continue
                    if enum is not None and element:
                        # for i, x in enumerate(chain): x is an element
                        bound = (
                            f"{chain_of(enum, aliases)}[]"
                            if i == 1 and chain_of(enum, aliases)
                            else None
                        )
                    elif chain is not None and chain != _FRESH:
                        bound = f"{chain}{suffix}"
                    else:
                        bound = None
                    state = self._rebind(state, elt.id, bound)
        return state

    def _walrus_binds(self, state, stmt):
        """Apply ``(x := expr)`` bindings found anywhere in ``stmt``."""
        node = stmt.expr if isinstance(stmt, BranchCondition) else stmt
        if not isinstance(node, ast.AST):
            return state
        for sub in ast.walk(node):
            if isinstance(sub, ast.NamedExpr) and isinstance(
                sub.target, ast.Name
            ):
                chain = chain_of(sub.value, dict(state))
                if chain is None and _is_fresh(sub.value):
                    chain = _FRESH
                state = self._rebind(state, sub.target.id, chain)
        return state

    @staticmethod
    def _rebind(state, name: str, chain: Optional[str]):
        kept = frozenset(
            (n, c) for n, c in state
            if n != name and not _chain_root_is(c, name)
        )
        if chain is not None:
            kept = kept | {(name, chain)}
        return kept


def _chain_root_is(chain: str, name: str) -> bool:
    root = chain.split(".", 1)[0].replace("[]", "")
    return root == name and chain != name


def _is_with_bind(value: ast.expr) -> bool:
    # with-items bind the context manager itself, not an element
    return isinstance(value, (ast.Call, ast.Attribute, ast.Name))


def _enumerate_arg(value: ast.expr) -> Optional[ast.expr]:
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "enumerate"
        and value.args
    ):
        return value.args[0]
    return None


def _is_fresh(value: ast.expr) -> bool:
    if isinstance(value, (ast.Constant, ast.List, ast.Dict, ast.Set,
                          ast.Tuple, ast.ListComp, ast.DictComp,
                          ast.SetComp, ast.GeneratorExp, ast.BinOp,
                          ast.UnaryOp, ast.Compare, ast.BoolOp,
                          ast.JoinedStr)):
        return True
    if isinstance(value, ast.Call):
        fn = value.func
        name = (
            fn.id if isinstance(fn, ast.Name)
            else fn.attr if isinstance(fn, ast.Attribute) else ""
        )
        return name in _FRESH_CTORS
    return False


class EffectEngine:
    """Direct and transitive effect summaries over one call graph."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._direct: Dict[str, EffectSummary] = {}
        self._transitive: Optional[Dict[str, EffectSummary]] = None

    # -- direct (intraprocedural) effects ------------------------------------
    def direct(self, qname: str) -> EffectSummary:
        cached = self._direct.get(qname)
        if cached is None:
            node = self.graph.functions.get(qname)
            if node is None or not isinstance(
                node.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                cached = EffectSummary()
            else:
                cached = self._compute_direct(node)
            self._direct[qname] = cached
        return cached

    def _compute_direct(self, fn: FunctionNode) -> EffectSummary:
        node = fn.node
        args = node.args
        params = [a.arg for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )]
        if args.vararg:
            params.append(args.vararg.arg)
        if args.kwarg:
            params.append(args.kwarg.arg)
        globals_declared: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                globals_declared.update(sub.names)

        cfg = build_cfg(node)
        analysis = _AliasAnalysis(cfg, params)
        analysis.run()

        # Call sites the graph resolved to real methods: a mutator-named
        # call there (``vc.pop(now)`` -> ``VirtualChannel.pop``) is
        # summarized through the callee, not as a container mutation.
        resolved_calls = {
            (site.lineno, site.attr)
            for site in self.graph.calls.get(fn.qname, [])
            if site.targets
        }
        collector = _WriteCollector(
            fn, params, globals_declared, resolved_calls
        )
        for bid in sorted(cfg.blocks):
            state = analysis.block_in.get(bid)
            if state is None:
                state = analysis.initial_state()
            for stmt in cfg.blocks[bid].stmts:
                collector.visit(stmt, dict(state))
                state = analysis.transfer(state, stmt)
        return EffectSummary(
            collector.writes,
            collector.reads,
            collector.global_writes,
            collector.calls_unknown,
        )

    # -- transitive (interprocedural) effects --------------------------------
    def summaries(self) -> Dict[str, EffectSummary]:
        """Transitive summary per function, fixpoint over call-graph SCCs.

        :meth:`CallGraph.sccs` yields components in reverse topological
        order of the condensation, so one forward pass suffices: by the
        time an SCC is folded, every callee outside it already has its
        transitive summary (members of the SCC share one summary, which
        is the recursion fixpoint).
        """
        if self._transitive is not None:
            return self._transitive
        out: Dict[str, EffectSummary] = {}
        for component in self.graph.sccs():
            members = set(component)
            merged = EffectSummary()
            parts: List[EffectSummary] = []
            for qname in component:
                parts.append(self.direct(qname))
                for site in self.graph.calls.get(qname, []):
                    for target in site.targets:
                        if target in members:
                            continue
                        summary = out.get(target)
                        if summary is not None:
                            parts.append(summary)
            merged = merged.merge(*parts)
            for qname in component:
                out[qname] = merged
        self._transitive = out
        return out

    def transitive(self, qname: str) -> EffectSummary:
        """Everything ``qname`` may mutate, including through callees."""
        return self.summaries().get(qname, EffectSummary())

    def collect(
        self,
        roots: Iterable[str],
        skip=None,
    ) -> Tuple[List[Write], Dict[str, List[str]]]:
        """Writes reachable from ``roots`` with call-chain provenance.

        ``skip(caller_qname, site)`` excludes individual call edges (the
        kernel lint uses it for ``# kernel: unreached`` / ``fallback``
        annotations).  Returns ``(writes, chains)`` where ``chains``
        maps each reached function to its shortest root call chain.
        """
        roots = [r for r in roots if r in self.graph.functions]
        chains: Dict[str, List[str]] = {r: [r] for r in roots}
        queue = list(roots)
        while queue:
            cur = queue.pop(0)
            for site in self.graph.calls.get(cur, []):
                if skip is not None and skip(cur, site):
                    continue
                for target in site.targets:
                    if target in chains or target not in self.graph.functions:
                        continue
                    chains[target] = chains[cur] + [target]
                    queue.append(target)
        writes: List[Write] = []
        seen: Set[Tuple[str, str, str, int]] = set()
        for qname in chains:
            for w in self.direct(qname).writes:
                if w.key() not in seen:
                    seen.add(w.key())
                    writes.append(w)
        return writes, chains


class _WriteCollector:
    """Classifies the mutations of one statement under an alias state."""

    def __init__(
        self,
        fn: FunctionNode,
        params: List[str],
        globals_declared: Set[str],
        resolved_calls: Optional[Set[Tuple[int, str]]] = None,
    ) -> None:
        self.fn = fn
        self.params = set(params)
        self.globals_declared = globals_declared
        self.resolved_calls = resolved_calls or set()
        # Writes to ``self`` inside ``__init__`` initialize a fresh
        # object — construction, not mutation of pre-existing state.
        self.constructing = fn.name == "__init__"
        self.writes: List[Write] = []
        self.reads: Set[str] = set()
        self.global_writes: Set[str] = set()
        self.calls_unknown = False

    # -- chain classification -------------------------------------------------
    def _owner_of(self, chain: str) -> Optional[str]:
        """Owner label for a resolved chain, or None to drop the write."""
        root = chain.split(".", 1)[0].replace("[]", "")
        if root == _FRESH.replace("[]", "") or chain.startswith(_FRESH):
            return None
        if root == "self":
            if self.constructing:
                return None
            return self.fn.cls_bare or "self"
        if root in self.params or root in self.globals_declared:
            segments = [
                s.replace("[]", "") for s in chain.split(".")[:-1]
            ]
            return ".".join(segments) if segments else root
        return "?"

    def _record(
        self, chain: Optional[str], lineno: int, kind: str
    ) -> None:
        if chain is None:
            return
        if "." not in chain:
            # Bare local/subscript with no attribute segment: a local
            # rebind or a write into a fresh container — not state.
            root = chain.replace("[]", "")
            if root in self.globals_declared:
                self.global_writes.add(root)
            return
        owner = self._owner_of(chain)
        if owner is None:
            return
        self.writes.append(
            Write(chain, owner, self.fn.qname, lineno, kind)
        )

    # -- statement dispatch ---------------------------------------------------
    def visit(self, stmt, aliases: Dict[str, str]) -> None:
        if isinstance(stmt, BranchCondition):
            self._visit_expr(stmt.expr, aliases)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._visit_target(target, aliases)
            self._visit_expr(stmt.value, aliases)
            return
        if isinstance(stmt, ast.AugAssign):
            self._visit_target(stmt.target, aliases, kind="aug")
            self._visit_expr(stmt.value, aliases)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._visit_target(stmt.target, aliases)
                self._visit_expr(stmt.value, aliases)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    self._record(
                        chain_of(target, aliases),
                        getattr(target, "lineno", 0),
                        "del",
                    )
            return
        self._visit_expr(stmt, aliases)

    def _visit_target(
        self, target, aliases: Dict[str, str], kind: str = "assign"
    ) -> None:
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self._record(
                chain_of(target, aliases),
                getattr(target, "lineno", 0),
                kind,
            )
        elif isinstance(target, ast.Name):
            if target.id in self.globals_declared:
                self.global_writes.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._visit_target(elt, aliases, kind)

    def _visit_expr(self, root, aliases: Dict[str, str]) -> None:
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                self._visit_call(node, aliases)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                chain = chain_of(node, aliases)
                if chain is not None and "." in chain:
                    root_name = chain.split(".", 1)[0].replace("[]", "")
                    if root_name == "self" or root_name in self.params:
                        self.reads.add(final_attr(chain) or chain)
            stack.extend(ast.iter_child_nodes(node))

    def _visit_call(self, call: ast.Call, aliases: Dict[str, str]) -> None:
        fn = call.func
        if isinstance(fn, ast.Attribute):
            lineno = getattr(call, "lineno", 0)
            if (
                fn.attr in MUTATOR_METHODS
                and (lineno, fn.attr) not in self.resolved_calls
            ):
                self._record(
                    chain_of(fn.value, aliases),
                    lineno,
                    "mutator",
                )
            return
        if isinstance(fn, ast.Name):
            if fn.id in _PURE_CALLS:
                return
            # Resolution happens at the graph layer; a plain-name call
            # is either a graph edge (summarized transitively) or an
            # unknown external.
            return
        self.calls_unknown = True
