"""The stdlib metrics endpoint behind ``repro serve-metrics``."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.export import validate_openmetrics
from repro.obs.live import SNAPSHOT_SCHEMA, LiveTelemetry
from repro.obs.serve import (
    MetricsServer,
    ProviderError,
    file_metrics_provider,
    file_state_provider,
)


@pytest.fixture()
def snapshot_path(tmp_path, fast_heartbeat):
    """A finished live snapshot on disk, as ``--live-out`` leaves it."""
    path = tmp_path / "live.json"
    telemetry = LiveTelemetry(snapshot_path=path).start()
    telemetry.begin_study(2, 1)
    emitter = telemetry.emitter()
    emitter.cell_started(0, "analytic:mm/hcpa")
    emitter.cell_finished(0, "analytic:mm/hcpa")
    emitter.cell_started(1, "analytic:mm/mcpa")
    emitter.cell_finished(1, "analytic:mm/mcpa", hit=True)
    telemetry.close()
    return path


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


# ----------------------------------------------------------------------
# providers
# ----------------------------------------------------------------------
def test_metrics_provider_renders_live_snapshot(snapshot_path):
    text = file_metrics_provider(snapshot_path)()
    validate_openmetrics(text)
    assert "repro_live_up 1" in text
    assert 'repro_live_cells{state="done"} 2' in text


def test_metrics_provider_missing_file_is_provider_error(tmp_path):
    provider = file_metrics_provider(tmp_path / "absent.json")
    with pytest.raises(ProviderError, match="no snapshot yet"):
        provider()


def test_metrics_provider_falls_back_to_trace_rollup(tmp_path):
    # A non-live source — a --trace-out manifest — re-rolls through the
    # post-hoc exporter on every scrape.
    from repro.obs.manifest import RunManifest, emit_manifest
    from repro.obs.recorder import Recorder, recording
    from repro.obs.sinks import JsonlSink

    path = tmp_path / "trace.jsonl"
    rec = Recorder(JsonlSink(path))
    with recording(rec):
        rec.count("demo.counter", 3)
        with rec.span("demo.span"):
            pass
        emit_manifest(rec, RunManifest.collect(seed=0, recorder=rec))
    rec.close()
    text = file_metrics_provider(path)()
    validate_openmetrics(text)
    assert 'repro_counter_total{name="demo.counter"} 3' in text


def test_metrics_provider_unreadable_file_is_provider_error(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json at all\n")
    with pytest.raises(ProviderError):
        file_metrics_provider(path)()


def test_state_provider_round_trips_snapshot(snapshot_path):
    snap = file_state_provider(snapshot_path)()
    assert snap["schema"] == SNAPSHOT_SCHEMA
    assert snap["study"]["cache_hits"] == 1


def test_state_provider_rejects_non_live_source(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"type": "event"}\n')
    with pytest.raises(ProviderError):
        file_state_provider(path)()


# ----------------------------------------------------------------------
# the HTTP server
# ----------------------------------------------------------------------
def test_server_serves_metrics_state_and_index(snapshot_path):
    server = MetricsServer(
        file_metrics_provider(snapshot_path),
        file_state_provider(snapshot_path),
    ).start()
    try:
        status, ctype, body = _get(server.metrics_url)
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "version=0.0.4" in ctype
        validate_openmetrics(body.decode())

        status, ctype, body = _get(server.url + "/state")
        assert status == 200
        assert ctype.startswith("application/json")
        assert json.loads(body)["schema"] == SNAPSHOT_SCHEMA

        status, _, body = _get(server.url + "/")
        assert status == 200
        assert b"/metrics" in body
    finally:
        server.close()


def test_server_404_on_unknown_path(snapshot_path):
    server = MetricsServer(file_metrics_provider(snapshot_path)).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/nope")
        assert err.value.code == 404
        err.value.close()
        # No state provider behind this server either.
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/state")
        assert err.value.code == 404
        err.value.close()
    finally:
        server.close()


def test_server_503_until_first_snapshot(tmp_path):
    path = tmp_path / "live.json"
    server = MetricsServer(
        file_metrics_provider(path), file_state_provider(path)
    ).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.metrics_url)
        assert err.value.code == 503
        err.value.close()
        # The provider re-reads per scrape: once the study writes its
        # first snapshot, the same server turns 200 without restarting.
        telemetry = LiveTelemetry(snapshot_path=path)
        telemetry.begin_study(1, 0)
        telemetry.close()
        status, _, body = _get(server.metrics_url)
        assert status == 200
        validate_openmetrics(body.decode())
    finally:
        server.close()


def test_server_binds_ephemeral_port():
    server = MetricsServer(lambda: "# EOF\n")
    assert server.port > 0
    assert str(server.port) in server.metrics_url
    server.close()
