"""Credit-conservation conformance tests (proto-credit-return /
proto-push-guard)."""

import textwrap

from repro.staticcheck.protolint import lint_source


def lint(code):
    return lint_source(textwrap.dedent(code), path="mod.py")


def rules_of(report):
    return set(report.rules_hit())


class TestCreditReturn:
    def test_unpaired_pop_flagged(self):
        report = lint("""
            class LeakyRouter:
                def __init__(self):
                    self.credits = {}
                    self.fifo = []

                def has_credit(self, port):
                    return self.credits[port] > 0

                def drain(self):
                    flit = self.fifo.popleft()
                    return flit
        """)
        assert "proto-credit-return" in rules_of(report)
        assert "drain" in report.diagnostics[0].message

    def test_restore_call_is_not_a_refund(self):
        # No class defines ``restore``: a stray call returns no credit.
        report = lint("""
            class Router:
                def __init__(self, out):
                    self.credit_out = {}
                    self.fifo = []
                    self.out = out

                def drain(self, vc):
                    flit = self.fifo.popleft()
                    self.out.restore(vc)
                    return flit
        """)
        assert "proto-credit-return" in rules_of(report)

    def test_pop_with_refund_accepted(self):
        report = lint("""
            class Router:
                def __init__(self, ni):
                    self.credits = {}
                    self.fifo = []
                    self.ni = ni

                def has_credit(self, port):
                    return self.credits[port] > 0

                def drain(self):
                    flit = self.fifo.popleft()
                    self.ni.on_credit(flit.vc)
                    return flit
        """)
        assert "proto-credit-return" not in rules_of(report)

    def test_refund_later_in_suite_accepted(self):
        report = lint("""
            class Router:
                def __init__(self):
                    self.credits = {}
                    self.fifo = []
                    self.credit_out = {}

                def has_credit(self, port):
                    return self.credits[port] > 0

                def drain(self, in_port):
                    flit = self.fifo.popleft()
                    if flit is None:
                        return None
                    ch = self.credit_out[in_port]
                    ch.send(1)
                    return flit
        """)
        assert "proto-credit-return" not in rules_of(report)

    def test_refund_via_helper_accepted(self):
        report = lint("""
            class Router:
                def __init__(self):
                    self.credits = {}
                    self.fifo = []

                def has_credit(self, port):
                    return self.credits[port] > 0

                def _refund(self, vc):
                    self.credits[vc] += 1

                def drain(self, vc):
                    flit = self.fifo.popleft()
                    self._refund(vc)
                    return flit
        """)
        assert "proto-credit-return" not in rules_of(report)

    def test_suppression_comment_honored(self):
        report = lint("""
            class Router:
                def __init__(self):
                    self.credits = {}
                    self.fifo = []

                def has_credit(self, port):
                    return self.credits[port] > 0

                def drain(self):
                    # refund happens on the far side of the wire
                    flit = self.fifo.popleft()  # proto: allow(proto-credit-return)
                    return flit
        """)
        assert "proto-credit-return" not in rules_of(report)


class TestPushGuard:
    def test_unguarded_push_flagged(self):
        report = lint("""
            class Injector:
                def __init__(self):
                    self.credits = {}
                    self.fifo = []

                def has_credit(self, port):
                    return self.credits[port] > 0

                def inject(self, flit):
                    self.fifo.append(flit)
        """)
        assert "proto-push-guard" in rules_of(report)

    def test_guarded_push_accepted(self):
        report = lint("""
            class Injector:
                def __init__(self):
                    self.credits = {}
                    self.fifo = []

                def has_credit(self, port):
                    return self.credits[port] > 0

                def inject(self, flit, port):
                    if self.has_credit(port):
                        self.fifo.append(flit)
        """)
        assert "proto-push-guard" not in rules_of(report)

    def test_vc_claimable_call_is_not_a_guard(self):
        # ``vc_claimable`` no longer exists: calling it guards nothing.
        report = lint("""
            class Injector:
                def __init__(self):
                    self.credits = {}
                    self.fifo = []

                def inject(self, flit, port):
                    if self.vc_claimable(port):
                        self.fifo.append(flit)
        """)
        assert "proto-push-guard" in rules_of(report)

    def test_early_exit_guard_accepted(self):
        report = lint("""
            class Injector:
                def __init__(self):
                    self.credits = {}
                    self.fifo = []

                def has_credit(self, port):
                    return self.credits[port] > 0

                def inject(self, flit, port):
                    if not self.has_credit(port):
                        return False
                    self.fifo.append(flit)
                    return True
        """)
        assert "proto-push-guard" not in rules_of(report)

    def test_caller_side_guard_accepted(self):
        report = lint("""
            class Injector:
                def __init__(self):
                    self.credits = {}
                    self.fifo = []

                def has_credit(self, port):
                    return self.credits[port] > 0

                def _enqueue(self, flit):
                    self.fifo.append(flit)

                def offer(self, flit, port):
                    if not self.has_credit(port):
                        return False
                    self._enqueue(flit)
                    return True
        """)
        assert "proto-push-guard" not in rules_of(report)

    def test_inherited_guard_seen_through_subclass(self):
        report = lint("""
            class BaseNI:
                def __init__(self):
                    self.credits = {}
                    self.fifo = []

                def has_credit(self, port):
                    return self.credits[port] > 0

                def _enqueue(self, flit):
                    self.fifo.append(flit)

            class SplitNI(BaseNI):
                def offer(self, flit, port):
                    if not self.has_credit(port):
                        return False
                    self._enqueue(flit)
                    return True
        """)
        assert "proto-push-guard" not in rules_of(report)


class TestScoping:
    def test_class_without_credit_machinery_ignored(self):
        # a plain collection class pops without credits — not its contract
        report = lint("""
            class WorkQueue:
                def __init__(self):
                    self.fifo = []

                def drain(self):
                    return self.fifo.popleft()

                def add(self, item):
                    self.fifo.append(item)
        """)
        assert len(report) == 0

    def test_diagnostic_includes_path_trail(self):
        report = lint("""
            class LeakyRouter:
                def __init__(self):
                    self.credits = {}
                    self.fifo = []

                def has_credit(self, port):
                    return self.credits[port] > 0

                def drain(self):
                    flit = self.fifo.popleft()
                    return flit
        """)
        finding = next(
            d for d in report.diagnostics if d.rule == "proto-credit-return"
        )
        assert "path:" in finding.message
