"""Tests for the public experiments API (run / run_many / sweep / grid)."""

import dataclasses

import pytest

from repro.experiments import api
from repro.experiments.runner import RunSpec
from repro.experiments.store import ResultStore

BASE = RunSpec(
    "binomialOptions", "xy-baseline", cycles=80, warmup=20, mesh=4,
    warps_per_core=4,
)


class TestRun:
    def test_caches_into_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        r1 = api.run(BASE, store=store)
        assert BASE.key() in store
        r2 = api.run(BASE, store=store)
        assert dataclasses.asdict(r1) == dataclasses.asdict(r2)

    def test_use_cache_false_skips_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        r = api.run(BASE, store=store, use_cache=False)
        assert r.instructions > 0
        assert len(store) == 0

    def test_default_store_used(self):
        from repro.experiments.store import default_store

        api.run(BASE)
        assert BASE.key() in default_store()

    def test_extras_carry_host_profile(self, tmp_path):
        r = api.run(BASE, store=ResultStore(str(tmp_path / "s")))
        assert "energy_per_instr" in r.extras
        assert r.extras["sim_cycles_per_sec"] > 0

    def test_telemetry_bypasses_cache(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        r = api.run(BASE, store=store, telemetry=True, interval=20)
        assert r.instructions > 0
        assert len(store) == 0


class TestRunLive:
    def test_returns_result_collector_system(self):
        live = api.run_live(BASE, interval=20)
        assert live.result.instructions > 0
        assert live.collector.samples_taken > 0
        assert live.system.mc_nodes
        assert len(live.collector.memory.samples) > 0

    def test_accepts_existing_collector(self):
        from repro.telemetry import MemorySink, TelemetryCollector

        collector = TelemetryCollector(interval=20, sinks=[MemorySink()])
        live = api.run_live(BASE, collector=collector)
        assert live.collector is collector


class TestSweep:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown RunSpec field"):
            api.sweep(BASE, axes={"clock_speed": [1]})

    def test_expands_all_combinations(self, tmp_path):
        records = api.sweep(
            BASE,
            axes={"num_vcs": [2, 4], "seed": [1, 2]},
            metrics=("ipc",),
            store=ResultStore(str(tmp_path / "s")),
        )
        assert len(records) == 4
        combos = {(r["num_vcs"], r["seed"]) for r in records}
        assert combos == {(2, 1), (2, 2), (4, 1), (4, 2)}
        assert all(r["ipc"] > 0 for r in records)
        assert all(r["benchmark"] == "binomialOptions" for r in records)

    def test_workers_do_not_change_records(self, tmp_path):
        axes = {"seed": [1, 2, 3, 4], "num_vcs": [2, 4]}
        serial = api.sweep(
            BASE, axes, workers=1, store=ResultStore(str(tmp_path / "a"))
        )
        parallel = api.sweep(
            BASE, axes, workers=4, store=ResultStore(str(tmp_path / "b"))
        )
        assert serial == parallel

    def test_progress_callback(self, tmp_path):
        seen = []
        api.sweep(
            BASE,
            axes={"seed": [1, 2]},
            metrics=("ipc",),
            store=ResultStore(str(tmp_path / "s")),
            progress=lambda done, total, spec, source: seen.append(
                (done, total, source)
            ),
        )
        assert seen == [(1, 2, "run"), (2, 2, "run")]


class TestGrid:
    def test_shape_and_content(self, tmp_path):
        out = api.grid(
            ["binomialOptions"],
            ["xy-baseline", "ada-ari"],
            store=ResultStore(str(tmp_path / "s")),
            cycles=80, warmup=20, mesh=4, warps_per_core=4,
        )
        assert set(out) == {"binomialOptions"}
        assert set(out["binomialOptions"]) == {"xy-baseline", "ada-ari"}
        assert out["binomialOptions"]["ada-ari"].ipc > 0


class TestCheckInvariants:
    def test_resolve_mode_explicit_wins(self, monkeypatch):
        from repro.experiments.executor import resolve_invariant_mode

        assert resolve_invariant_mode(None) is None
        assert resolve_invariant_mode(True) == "raise"
        assert resolve_invariant_mode("raise") == "raise"
        assert resolve_invariant_mode("collect") == "collect"
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert resolve_invariant_mode(False) is None  # explicit off beats env
        assert resolve_invariant_mode(None) == "raise"
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "collect")
        assert resolve_invariant_mode(None) == "collect"
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "nonsense")
        assert resolve_invariant_mode(None) is None
        with pytest.raises(ValueError):
            resolve_invariant_mode("sometimes")

    def test_audited_run_records_zero_violations(self, tmp_path):
        r = api.run(
            BASE,
            store=ResultStore(str(tmp_path / "s")),
            check_invariants=True,
        )
        assert r.extras["invariant_violations"] == 0.0

    def test_raise_mode_bypasses_cache(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        poisoned = dataclasses.asdict(api.run(BASE, store=store))
        poisoned["ipc"] = -1.0
        store.put(BASE.key(), poisoned)
        # A plain cached run happily returns the poisoned record...
        assert api.run(BASE, store=store).ipc == -1.0
        # ...but a raise-mode run re-simulates under audit.
        r = api.run(BASE, store=store, check_invariants="raise")
        assert r.ipc > 0
        assert r.extras["invariant_violations"] == 0.0

    def test_run_many_raise_mode_bypasses_cache(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        poisoned = dataclasses.asdict(api.run(BASE, store=store))
        poisoned["ipc"] = -1.0
        store.put(BASE.key(), poisoned)
        assert api.run_many([BASE], store=store)[0].ipc == -1.0
        (r,) = api.run_many([BASE], store=store, check_invariants="raise")
        assert r.ipc > 0
        assert r.extras["invariant_violations"] == 0.0

    def test_collect_mode_uses_cache(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        first = api.run(BASE, store=store, check_invariants="collect")
        assert first.extras["invariant_violations"] == 0.0
        again = api.run(BASE, store=store, check_invariants="collect")
        assert dataclasses.asdict(first) == dataclasses.asdict(again)

    def test_env_var_reaches_simulate_spec(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "collect")
        r = api.run(BASE, store=ResultStore(str(tmp_path / "s")))
        assert r.extras["invariant_violations"] == 0.0

    def test_run_many_threads_mode_through(self, tmp_path):
        specs = [
            dataclasses.replace(BASE, seed=s) for s in (1, 2)
        ]
        results = api.run_many(
            specs,
            store=ResultStore(str(tmp_path / "s")),
            check_invariants="collect",
        )
        assert all(
            r.extras["invariant_violations"] == 0.0 for r in results
        )


class TestKernelField:
    def test_kernel_never_enters_cache_key(self):
        # Byte-identity contract: the kernel choice may not change any
        # result, so it must not fragment the result cache.
        assert BASE.key() == dataclasses.replace(BASE, kernel="activity").key()
        assert BASE.key() == dataclasses.replace(BASE, kernel="reference").key()

    def test_telemetry_none_keeps_legacy_key(self):
        # New optional fields default to None and are dropped from the
        # payload so pre-existing cached results stay addressable.
        assert BASE.telemetry is None
        assert BASE.key() != dataclasses.replace(BASE, telemetry=20).key()

    def test_kernel_reaches_system(self):
        from repro.experiments.runner import build_system

        spec = dataclasses.replace(BASE, kernel="activity")
        system = build_system(spec)
        assert system.kernel_name == "activity"
        assert system.request_net.kernel_name == "activity"
        assert system.reply_net.kernel_name == "activity"
        assert build_system(BASE).kernel_name == "reference"

    def test_env_var_reaches_system(self, monkeypatch):
        from repro.experiments.runner import build_system

        monkeypatch.setenv("REPRO_KERNEL", "activity")
        assert build_system(BASE).kernel_name == "activity"

    def test_spec_telemetry_routes_through_run(self, tmp_path):
        # RunSpec.telemetry is the declarative spelling of
        # run(..., telemetry=True, interval=N): live sampling, no cache.
        store = ResultStore(str(tmp_path / "s"))
        spec = dataclasses.replace(BASE, telemetry=20)
        r = api.run(spec, store=store)
        assert r.instructions > 0
        assert len(store) == 0

    def test_kernels_agree_through_run(self, tmp_path):
        ref = api.run(
            dataclasses.replace(BASE, kernel="reference"),
            store=ResultStore(str(tmp_path / "a")), use_cache=False,
        )
        act = api.run(
            dataclasses.replace(BASE, kernel="activity"),
            store=ResultStore(str(tmp_path / "b")), use_cache=False,
        )
        a, b = dataclasses.asdict(ref), dataclasses.asdict(act)
        for payload in (a, b):  # wall-clock extras legitimately differ
            for k in ("build_wall_s", "sim_wall_s", "sim_cycles_per_sec"):
                payload["extras"].pop(k, None)
        assert a == b
