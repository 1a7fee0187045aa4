"""Tests for the bench-artifact envelope and metric flattening."""

from repro.perfwatch import schema


class TestEnvelope:
    def test_envelope_shape(self):
        env = schema.bench_envelope(
            "speed", {"rate": 1.0}, seed=3, config={"mesh": 6},
            sha="abc123", host={"cpus": 4}, ts="2026-08-07T00:00:00Z",
        )
        assert env["schema_version"] == schema.SCHEMA_VERSION
        assert env["bench"] == "speed"
        assert env["git_sha"] == "abc123"
        assert env["seed"] == 3
        assert env["config"] == {"mesh": 6}
        assert env["data"] == {"rate": 1.0}
        assert schema.is_envelope(env)

    def test_envelope_defaults_stamp_host_and_sha(self):
        env = schema.bench_envelope("speed", {"rate": 1.0})
        assert set(env["host"]) == {"platform", "python", "machine", "cpus"}
        assert env["git_sha"]
        assert env["generated_utc"].endswith("Z")

    def test_bare_dict_is_not_envelope(self):
        assert not schema.is_envelope({"rate": 1.0})
        assert not schema.is_envelope([1, 2])
        assert not schema.is_envelope(None)

    def test_git_sha_env_override(self, monkeypatch):
        monkeypatch.setenv(schema.GIT_SHA_ENV, "f" * 40)
        assert schema.git_sha() == "f" * 12


class TestSplitPayload:
    def test_strings_and_bools_are_config(self):
        config, data = schema.split_payload(
            {"benchmark": "bfs", "detour": True, "ipc": 1.05}
        )
        assert config == {"benchmark": "bfs", "detour": True}
        assert data == {"ipc": 1.05}

    def test_nested_config_dict_is_pulled_out(self):
        config, data = schema.split_payload(
            {"config": {"mesh": 4, "cycles": 400}, "rows": [{"ipc": 1.0}]}
        )
        assert config == {"mesh": 4, "cycles": 400}
        assert data == {"rows": [{"ipc": 1.0}]}


class TestFlattenMetrics:
    def test_nested_dicts_dot_join(self):
        flat = schema.flatten_metrics({"serial": {"wall_s": 2.5}})
        assert flat == {"serial.wall_s": 2.5}

    def test_bools_and_strings_skipped(self):
        flat = schema.flatten_metrics({"ok": True, "name": "x", "v": 1})
        assert flat == {"v": 1.0}

    def test_row_labels_use_identifying_keys(self):
        flat = schema.flatten_metrics(
            {"rows": [
                {"scheme": "ada-ari", "dead_links": 1, "ipc": 1.06},
                {"scheme": "xy-baseline", "dead_links": 1, "ipc": 0.9},
            ]}
        )
        assert flat["rows[scheme=ada-ari,dead_links=1].ipc"] == 1.06
        assert flat["rows[scheme=xy-baseline,dead_links=1].ipc"] == 0.9

    def test_row_identifying_keys_are_not_metrics(self):
        # A row's label keys (dead_links, seed, workers, ...) identify it;
        # ingesting them as metrics made series like
        # ``rows[...,dead_links=1].dead_links``.
        flat = schema.flatten_metrics(
            {"rows": [
                {"scheme": "ada-ari", "dead_links": 1, "seed": 3,
                 "workers": 2, "ipc": 1.06},
            ]}
        )
        assert flat == {
            "rows[scheme=ada-ari,dead_links=1,seed=3,workers=2].ipc": 1.06
        }

    def test_row_labels_survive_reordering(self):
        rows = [
            {"scheme": "a", "ipc": 1.0},
            {"scheme": "b", "ipc": 2.0},
        ]
        fwd = schema.flatten_metrics({"rows": rows})
        rev = schema.flatten_metrics({"rows": list(reversed(rows))})
        assert fwd == rev

    def test_anonymous_rows_fall_back_to_index(self):
        flat = schema.flatten_metrics({"rows": [{"x": 1.0}, {"x": 2.0}]})
        assert flat == {"rows[0].x": 1.0, "rows[1].x": 2.0}

    def test_numeric_lists_index(self):
        flat = schema.flatten_metrics({"lat": [10, 20]})
        assert flat == {"lat[0]": 10.0, "lat[1]": 20.0}
