"""The order trace: drawn in chunks, the same for every layout under CRN,
and counted draw for draw."""

from dataclasses import replace

import pytest
from event_oracle import run_oracle
from test_engine_oracle import assert_same_run

import crossdock_sim.model as model_mod
from crossdock_sim import ResourceLayout, run_replication

MODES = ["dedicated_streams", "default_stream"]


def record_queues(monkeypatch) -> dict:
    """Patch the engine so that every order it hands a queue is recorded as
    `(id, arrival, base duration)` under the queue's name."""
    queues = {}
    serve = model_mod._serve

    def recording(queue, arrived, *args):
        arrived = list(arrived)
        queues.setdefault(queue, []).extend(arrived)
        return serve(queue, arrived, *args)

    monkeypatch.setattr(model_mod, "_serve", recording)
    return queues


def record_streams(monkeypatch) -> dict:
    """Patch the engine so that every stream it creates is kept by source."""
    streams = {}
    create = model_mod.stream_create

    def keeping(master_seed, source_id, replication_index):
        streams[source_id] = create(master_seed, source_id, replication_index)
        return streams[source_id]

    monkeypatch.setattr(model_mod, "stream_create", keeping)
    return streams


@pytest.mark.parametrize("crn_mode", MODES)
def test_orders_spanning_chunks_match_event_loop(fast_config, monkeypatch, crn_mode):
    """About 580 orders in chunks of at most 50, so that every queue's
    calendars and sums carry over many chunk boundaries."""
    monkeypatch.setattr(model_mod, "_CHUNK", 50)
    config = fast_config.with_crn_mode(crn_mode)
    for layout in (None, ResourceLayout.from_totals(1, 1)):
        new = run_replication(config, 3, 1, layout, collect_log=True)
        assert new.arrivals > 10 * model_mod._CHUNK
        assert_same_run(new, run_oracle(config, 3, 1, layout, collect_log=True))


def test_orders_spanning_two_full_chunks_match_event_loop(fast_config):
    """The chunk size the engine runs with: about 1.4e5 orders, in three."""
    config = replace(fast_config, horizon=11.0 * model_mod._CHUNK)
    new = run_replication(config, 5, 0)
    assert new.arrivals > 2 * model_mod._CHUNK
    assert_same_run(new, run_oracle(config, 5, 0))


@pytest.mark.parametrize("crn_mode", MODES)
def test_one_trace_for_all_layouts(fast_config, monkeypatch, crn_mode):
    """Under CRN, replication (seed, index) hands every layout the same
    orders: arrival times, types and points (the queue an order joins) and
    base service durations, bit for bit."""
    config = fast_config.with_crn_mode(crn_mode)
    queues, traces = record_queues(monkeypatch), []
    for totals in ((1, 1), (2, 3), (4, 2), (6, 4)):
        queues.clear()
        run_replication(config, 11, 2, ResourceLayout.from_totals(*totals))
        traces.append(dict(queues))
    assert sorted(traces[0]) == ["dispenser_A", "dispenser_B", "manual_A", "manual_B"]
    assert all(traces[0][queue] for queue in traces[0])
    assert all(trace == traces[0] for trace in traces[1:])


@pytest.mark.parametrize("chunk", [model_mod._CHUNK, 40])
def test_draws_taken_count_the_values_used(fast_config, monkeypatch, chunk):
    """N + 1 arrival gaps, N types and N points, and one service draw per
    order routed to each service stream; the shared stream takes 1 + 4N."""
    monkeypatch.setattr(model_mod, "_CHUNK", chunk)
    queues = record_queues(monkeypatch)
    streams = record_streams(monkeypatch)
    out = run_replication(fast_config, 8, 0)
    n = out.arrivals
    routed = {f"{kind}_service_point_{p}": len(queues[f"{queue}_{p}"])
              for kind, queue in (("manual", "manual"), ("auto", "dispenser"))
              for p in "AB"}
    assert sum(routed.values()) == n
    assert {source: s.draws_taken for source, s in streams.items()} == {
        "arrival": n + 1, "order_type": n, "point_choice": n, **routed}

    streams.clear()
    out = run_replication(fast_config.with_crn_mode("default_stream"), 8, 0)
    assert {source: s.draws_taken for source, s in streams.items()} == {
        "shared": 1 + 4 * out.arrivals}


def test_queue_with_no_orders_still_gets_its_stream(fast_config, monkeypatch):
    streams = record_streams(monkeypatch)
    out = run_replication(replace(fast_config, p_auto=0.0, p_point_A=1.0), 8, 0)
    assert len(streams) == 7
    assert streams["manual_service_point_A"].draws_taken == out.arrivals
    assert streams["auto_service_point_B"].draws_taken == 0
