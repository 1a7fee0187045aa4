"""Taint-engine and cache/overhead/determinism prover tests."""

import ast
import textwrap

from repro.staticcheck import cachelint
from repro.staticcheck.cachelint import (
    find_cache_sinks,
    find_spec_classes,
    lint_source,
)
from repro.staticcheck.callgraph import RECEIVER_HINTS, build_call_graph
from repro.staticcheck.diagnostics import Severity
from repro.staticcheck.taint import (
    TaintAnnotations,
    TaintEngine,
    is_guarded,
    split_facts,
    token_base,
)


def graph_of(**sources):
    items = [
        (f"{name}.py", textwrap.dedent(src))
        for name, src in sorted(sources.items())
    ]
    return build_call_graph(items, RECEIVER_HINTS)


def summary_of(src, qname, path="m.py"):
    graph = build_call_graph([(path, textwrap.dedent(src))])
    return TaintEngine(graph).summaries()[qname]


def lint(**sources):
    return cachelint.lint_graph(graph_of(**sources))


def rules_hit(report):
    return [d.rule for d in report.diagnostics]


# -- engine unit tests -------------------------------------------------------

class TestSummaries:
    def test_param_flows_to_return(self):
        summary = summary_of("def f(a, b):\n    return a\n", "m.f")
        assert summary.ret == {"p:a"}

    def test_field_sensitivity_one_level(self):
        summary = summary_of(
            "def f(spec):\n    return spec.telemetry\n", "m.f"
        )
        assert summary.ret == {"p:spec.telemetry"}

    def test_deep_access_collapses_to_first_field(self):
        summary = summary_of(
            "def f(spec):\n    return spec.noc.router.credits\n", "m.f"
        )
        assert summary.ret == {"p:spec.noc"}

    def test_interprocedural_composition(self):
        summary = summary_of(
            """
            def ident(x):
                return x

            def f(spec):
                return ident(spec.kernel)
            """,
            "m.f",
        )
        assert summary.ret == {"p:spec.kernel"}

    def test_recursion_reaches_fixpoint(self):
        summary = summary_of(
            """
            def f(a, n):
                if n:
                    return f(a, n - 1)
                return a
            """,
            "m.f",
        )
        # The first pass treats the yet-unsummarized recursive call as a
        # passthrough, so the fixpoint is a (sound) over-approximation —
        # the load-bearing claim is that p:a survives and the loop ends.
        assert "p:a" in summary.ret
        assert all(token_base(t).startswith("p:") for t in summary.ret)

    def test_attribute_write_recorded_with_owner(self):
        summary = summary_of(
            """
            class Box:
                def fill(self, spec):
                    self.payload = spec.kernel
            """,
            "m.Box.fill",
        )
        assert summary.writes[("Box", "payload")] == {"p:spec.kernel"}


class TestGuards:
    def test_non_none_guard_marks_the_flow(self):
        summary = summary_of(
            """
            def f(spec):
                if spec.telemetry is not None:
                    return spec.telemetry
                return 0
            """,
            "m.f",
        )
        assert summary.ret == {"p:spec.telemetry!"}
        assert all(is_guarded(t) for t in summary.ret)

    def test_ifexp_guard_idiom(self):
        summary = summary_of(
            "def f(spec):\n"
            "    return spec.t if spec.t is not None else 0\n",
            "m.f",
        )
        assert summary.ret == {"p:spec.t!"}

    def test_ifexp_condition_is_not_an_influence(self):
        # Implicit flows are out of scope: the chosen branch depends on
        # spec.t, but the *value* is d either way.
        summary = summary_of(
            "def f(spec, d):\n"
            "    return d if spec.t is not None else d\n",
            "m.f",
        )
        assert summary.ret == {"p:d"}

    def test_early_return_narrows_the_tail(self):
        summary = summary_of(
            """
            def f(spec):
                if spec.t is None:
                    return 0
                return spec.t
            """,
            "m.f",
        )
        assert summary.ret == {"p:spec.t!"}

    def test_or_default_is_not_a_guard(self):
        summary = summary_of(
            "def f(spec):\n    return spec.t or 100\n", "m.f"
        )
        assert summary.ret == {"p:spec.t"}


class TestSources:
    def test_wallclock_call_is_a_source(self):
        summary = summary_of(
            "import time\n\ndef f():\n    return time.perf_counter()\n",
            "m.f",
        )
        assert summary.ret == {"src:wallclock"}

    def test_module_level_rng_is_a_source(self):
        summary = summary_of(
            "import random\n\ndef f():\n    return random.random()\n",
            "m.f",
        )
        assert summary.ret == {"src:rng"}

    def test_seeded_rng_instance_is_not_a_source(self):
        summary = summary_of(
            """
            import random

            def f(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
            "m.f",
        )
        assert not any(t.startswith("src:") for t in summary.ret)

    def test_declared_source_annotation(self):
        summary = summary_of(
            "def f():\n"
            "    return read_tsc()  # taint: source(wallclock)\n",
            "m.f",
        )
        assert "src:wallclock" in summary.ret

    def test_source_origin_is_recorded(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        graph = build_call_graph([("m.py", textwrap.dedent(src))])
        engine = TaintEngine(graph)
        engine.summaries()
        assert engine.origin_of("m.f", "src:wallclock") == ("m.py", 4)


class TestSanitizers:
    def test_field_pattern_drops_the_token(self):
        summary = summary_of(
            "def f(spec):\n"
            "    return spec.kernel  # taint: sanitize(kernel)\n",
            "m.f",
        )
        assert summary.ret == frozenset()

    def test_dotted_pattern_is_root_specific(self):
        summary = summary_of(
            "def f(spec, other):\n"
            "    return (spec.kernel, other.kernel)"
            "  # taint: sanitize(spec.kernel)\n",
            "m.f",
        )
        assert summary.ret == {"p:other.kernel"}

    def test_source_kind_pattern(self):
        summary = summary_of(
            "import time\n\n"
            "def f(spec):\n"
            "    return (time.time(), spec.t)"
            "  # taint: sanitize(wallclock)\n",
            "m.f",
        )
        assert summary.ret == {"p:spec.t"}


class TestHeap:
    def test_source_stored_in_state_resurfaces_in_sibling_method(self):
        summary = summary_of(
            """
            import time

            class HostStats:
                def start(self):
                    self.t0 = time.time()

                def elapsed(self):
                    return self.t0
            """,
            "m.HostStats.elapsed",
        )
        assert "src:wallclock" in summary.ret

    def test_heap_is_owner_scoped(self):
        # Another class with a same-named attribute must not inherit
        # the wallclock stored on HostStats.
        summary = summary_of(
            """
            import time

            class HostStats:
                def start(self):
                    self.t0 = time.time()

            class CycleCount:
                def read(self):
                    return self.t0
            """,
            "m.CycleCount.read",
        )
        assert "src:wallclock" not in summary.ret


class TestSplitFacts:
    def check(self, src, true_facts, false_facts):
        test = ast.parse(src, mode="eval").body
        t, f = split_facts(test, {})
        assert t == frozenset(true_facts)
        assert f == frozenset(false_facts)

    def test_is_none(self):
        self.check("x is None", [], ["x"])

    def test_is_not_none(self):
        self.check("x.t is not None", ["x.t"], [])

    def test_truthiness(self):
        self.check("x", ["x"], [])

    def test_not_swaps_sides(self):
        self.check("not x", [], ["x"])

    def test_and_accumulates_true_facts(self):
        self.check(
            "a is not None and b is not None", ["a", "b"], []
        )

    def test_or_accumulates_false_facts(self):
        self.check("a is None or b is None", [], ["a", "b"])


class TestAnnotations:
    def test_collect_parses_every_kind(self):
        graph = graph_of(
            m=(
                "x = 1  # taint: sanitize(wallclock, spec.kernel)\n"
                "y = 2  # taint: gated\n"
                "z = 3  # taint: source(rng)\n"
            )
        )
        ann = TaintAnnotations.collect(graph)
        assert ann.sanitize[("m.py", 1)] == {"wallclock", "spec.kernel"}
        assert ("m.py", 2) in ann.gated
        assert ann.sources[("m.py", 3)] == {"rng"}

    def test_bare_sanitize_means_everything(self):
        graph = graph_of(m="x = 1  # taint: sanitize\n")
        ann = TaintAnnotations.collect(graph)
        assert ann.sanitize[("m.py", 1)] == {"*"}


# -- prover fixtures ---------------------------------------------------------

SPEC = """
    import dataclasses

    @dataclasses.dataclass
    class Spec:
        benchmark: str
        kernel: str = None
        telemetry: int = None

        def key(self):
            payload = dataclasses.asdict(self)
            del payload["kernel"]
            if payload["telemetry"] is None:
                del payload["telemetry"]
            return str(payload)
"""

# Acceptance fixture: the always-excluded `kernel` field influences the
# cached payload through a helper — two specs differing only in kernel
# would share a key yet cache different stats.
LEAKY_RUN = SPEC + """

    def simulate(spec):
        stats = {}
        stats["backend"] = spec.kernel
        return stats


    def run(spec, store):
        payload = simulate(spec)
        store.put(spec.key(), payload)
        return payload
"""

# Acceptance fixture: with telemetry off, simulate() still touches a
# *Collector — the measurement path is not overhead-free.
HOT_COLLECTOR = """
    class TraceCollector:
        def record(self, cycle):
            pass


    class MeshSystem:
        def simulate(self, cycles):
            tap = TraceCollector()
            for c in range(cycles):
                tap.record(c)
            return cycles
"""


class TestSpecDiscovery:
    def test_exclusion_classes_extracted(self):
        specs = find_spec_classes(graph_of(api=SPEC))
        assert len(specs) == 1
        assert specs[0].always_excluded == {"kernel"}
        assert specs[0].when_none_excluded == {"telemetry"}

    def test_loop_over_const_tuple_exclusions(self):
        specs = find_spec_classes(graph_of(api="""
            import dataclasses

            class Spec:
                def key(self):
                    payload = dataclasses.asdict(self)
                    for name in ("faults", "telemetry"):
                        if payload[name] is None:
                            del payload[name]
                    del payload["kernel"]
                    return str(payload)
        """))
        assert specs[0].always_excluded == {"kernel"}
        assert specs[0].when_none_excluded == {"faults", "telemetry"}

    def test_key_without_asdict_is_not_a_spec(self):
        specs = find_spec_classes(graph_of(api="""
            class Point:
                def key(self):
                    return (self.x, self.y)
        """))
        assert specs == []


class TestSinkDiscovery:
    def test_formal_rooted_put_found(self):
        sinks = find_cache_sinks(graph_of(api=LEAKY_RUN))
        assert [(s.qname, s.param) for s in sinks] == [("api.run", "spec")]

    def test_non_formal_receiver_skipped(self):
        sinks = find_cache_sinks(graph_of(api="""
            GLOBAL_SPEC = None

            def run(store):
                spec = GLOBAL_SPEC
                store.put(spec.key(), {})
        """))
        assert sinks == []


class TestEntryPoints:
    def test_all_three_shapes_discovered(self):
        graph = graph_of(
            api="def run(spec, store):\n    return spec\n",
            executor="def simulate_spec(spec):\n    return spec\n",
            system=(
                "class GPGPUSystem:\n"
                "    def simulate(self, cycles):\n"
                "        return cycles\n"
            ),
        )
        roots = cachelint._entry_points(graph)
        assert set(roots) == {
            "api.run",
            "executor.simulate_spec",
            "system.GPGPUSystem.simulate",
        }


class TestCacheKeyUnsound:
    def test_always_excluded_flow_is_an_error(self):
        report = lint(api=LEAKY_RUN)
        errs = [
            d for d in report.diagnostics if d.rule == "cachekey-unsound"
        ]
        assert len(errs) == 1
        assert errs[0].severity == Severity.ERROR
        assert "'spec.kernel'" in errs[0].message
        assert "api.py:" in errs[0].location

    def test_sanitize_annotation_discharges(self):
        src = LEAKY_RUN.replace(
            'stats["backend"] = spec.kernel',
            'stats["backend"] = spec.kernel'
            "  # taint: sanitize(spec.kernel)",
        )
        assert "cachekey-unsound" not in rules_hit(lint(api=src))

    def test_when_none_unguarded_flow_is_an_error(self):
        src = LEAKY_RUN.replace(
            'stats["backend"] = spec.kernel',
            'stats["interval"] = spec.telemetry or 100',
        )
        errs = [
            d
            for d in lint(api=src).diagnostics
            if d.rule == "cachekey-unsound"
        ]
        assert len(errs) == 1
        assert "'spec.telemetry'" in errs[0].message

    def test_when_none_guarded_flow_is_clean(self):
        src = LEAKY_RUN.replace(
            'stats["backend"] = spec.kernel',
            'stats["interval"] = ('
            "spec.telemetry if spec.telemetry is not None else 100)",
        )
        assert "cachekey-unsound" not in rules_hit(lint(api=src))

    def test_keyed_field_flow_is_clean(self):
        src = LEAKY_RUN.replace(
            'stats["backend"] = spec.kernel',
            'stats["benchmark"] = spec.benchmark',
        )
        assert "cachekey-unsound" not in rules_hit(lint(api=src))


class TestOverheadNotFree:
    def test_unconditional_collector_call_is_an_error(self):
        report = lint(system=HOT_COLLECTOR)
        errs = [
            d for d in report.diagnostics if d.rule == "overhead-not-free"
        ]
        assert len(errs) == 1
        assert errs[0].severity == Severity.ERROR
        assert "TraceCollector.record" in errs[0].message

    def test_non_none_gate_on_telemetry_chain_is_clean(self):
        report = lint(system="""
            class TelemetryCollector:
                def record(self, cycle):
                    pass


            class MeshSystem:
                def __init__(self, telemetry=None):
                    self.telemetry = telemetry

                def simulate(self, cycles):
                    for c in range(cycles):
                        if self.telemetry is not None:
                            self.telemetry.record(c)
                    return cycles
        """)
        assert "overhead-not-free" not in rules_hit(report)

    def test_gated_annotation_discharges(self):
        src = HOT_COLLECTOR.replace(
            "tap.record(c)", "tap.record(c)  # taint: gated"
        )
        assert "overhead-not-free" not in rules_hit(lint(system=src))

    def test_reachability_is_interprocedural(self):
        report = lint(system="""
            class FaultInjector:
                def poke(self):
                    pass


            def deep():
                inj = FaultInjector()
                inj.poke()


            def middle():
                deep()


            class MeshSystem:
                def simulate(self, cycles):
                    middle()
                    return cycles
        """)
        # The component call sits two plain-function frames below the
        # entry point; the BFS over call edges still reaches it.
        assert "overhead-not-free" in rules_hit(report)


class TestDetTaint:
    def test_wallclock_into_stats_state_warns(self):
        report = lint(executor="""
            import time


            class RunStats:
                pass


            def simulate_spec(spec):
                stats = RunStats()
                stats.wall = time.time()
                return 0
        """)
        warns = [d for d in report.diagnostics if d.rule == "det-taint"]
        assert len(warns) == 1
        assert warns[0].severity == Severity.WARNING
        assert "src:wallclock" in warns[0].message

    def test_rng_into_return_warns(self):
        report = lint(executor="""
            import random


            def simulate_spec(spec):
                return random.random()
        """)
        warns = [d for d in report.diagnostics if d.rule == "det-taint"]
        assert warns and "src:rng" in warns[0].message

    def test_sanitize_discharges_diagnostic_timing(self):
        report = lint(executor="""
            import time


            class RunStats:
                pass


            def simulate_spec(spec):
                stats = RunStats()
                stats.wall = time.time()  # taint: sanitize(wallclock)
                return 0
        """)
        assert "det-taint" not in rules_hit(report)

    def test_non_result_state_is_not_flagged(self):
        report = lint(executor="""
            import time


            class Progress:
                pass


            def simulate_spec(spec):
                bar = Progress()
                bar.started = time.time()
                return 0
        """)
        assert "det-taint" not in rules_hit(report)


class TestLintSource:
    def test_single_module_entry_point(self):
        report = lint_source(
            textwrap.dedent(LEAKY_RUN), "api.py"
        )
        assert "cachekey-unsound" in rules_hit(report)

    def test_syntax_error_module_is_skipped(self):
        report = lint_source("def broken(:\n", "api.py")
        assert report.ok
