"""Benchmark-suite configuration.

Every bench regenerates one paper figure/table at ``smoke`` scale (CI-sized
simulation budgets), times the full regeneration, writes the resulting
series to ``results/bench_tables/<name>.txt``, and asserts the figure's
qualitative *shape* (who wins, roughly by how much).  Run the paper-scale
versions via ``examples/reproduce_paper.py``.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results", "bench_tables")


@pytest.fixture
def save_table():
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _save(name: str, payload: dict) -> None:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(payload.get("table", "") + "\n\n")
            fh.write(f"summary: {payload.get('summary')}\n")
            fh.write(f"paper:   {payload.get('paper')}\n")

    return _save


@pytest.fixture(autouse=True)
def bench_cache(tmp_path):
    """Redirect the result store so benches never clobber paper-scale results.

    Each bench gets a fresh :class:`ResultStore` rooted in a temp dir,
    preloaded with the session-shared memory layer, so figure drivers
    that share a sweep (Figs. 10-13) reuse each other's runs while the
    first timing of each is still honest.
    """
    from repro.experiments.store import ResultStore, set_default_store

    store = ResultStore(
        os.path.join(
            os.environ.get("PYTEST_BENCH_CACHE_DIR", str(tmp_path)),
            "bench_cache",
        )
    )
    store.preload(_session_cache)
    previous = set_default_store(store)
    yield
    _session_cache.clear()
    _session_cache.update(store.memory_snapshot())
    set_default_store(previous)


_session_cache: dict = {}
