"""The PR-6 observability layer: registry, wire, status, campaigns.

Covers the telemetry contracts end to end:

* registry semantics -- counters/gauges/histograms/spans, deterministic
  sorted-key snapshots, associative+commutative merges, delta arithmetic;
* the STATS wire frame (``StatsUpdate``) round-tripping a snapshot over
  the binary TCP framing;
* the read-only HTTP status endpoint (``/status`` + ``/metrics``);
* campaign plumbing -- merged telemetry attached to payloads in serial,
  process and fleet modes;
* instrumentation cost: metric updates take at most 10% of a simulated
  interval;
* ``benchmarks/compare_records.py`` ignoring telemetry/diagnostics when
  asserting bit-identity.
"""

import collections
import json
import socket
import time
import timeit
import urllib.request

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SIZE_EDGES,
    Span,
    merge_snapshots,
    render_prometheus_text,
    render_summary,
)


def make_registry(scale: int = 1) -> MetricsRegistry:
    """A registry with one metric of each kind, scaled by ``scale``."""
    registry = MetricsRegistry()
    registry.counter("events").add(3 * scale)
    registry.gauge("depth").set(2.0 * scale)
    hist = registry.histogram("sizes", SIZE_EDGES)
    for value in (1, 4 * scale, 700):
        hist.observe(value)
    span = registry.span("work")
    span._record(0.25 * scale)
    span._record(0.5 * scale)
    return registry


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.add(4)
        registry.gauge("g").set(7)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 7.0}

    def test_handles_are_cached(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.span("s") is registry.span("s")
        assert registry.histogram("h") is registry.histogram("h")

    def test_histogram_buckets_and_overflow(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", edges=(1, 10, 100))
        for value in (0.5, 1, 5, 1000):
            hist.observe(value)
        assert hist.counts == [2, 1, 0, 1]  # <=1, <=10, <=100, overflow
        assert hist.count == 4
        assert hist.min == 0.5 and hist.max == 1000

    def test_histogram_edges_fixed_at_registration(self):
        registry = MetricsRegistry()
        registry.histogram("h", edges=(1, 2))
        with pytest.raises(ValueError, match="different edges"):
            registry.histogram("h", edges=(1, 2, 3))
        with pytest.raises(ValueError, match="ascending"):
            registry.histogram("bad", edges=(3, 1))

    def test_snapshot_keys_sorted_and_json_deterministic(self):
        left = MetricsRegistry()
        right = MetricsRegistry()
        # Register in opposite orders: snapshots must still be
        # byte-identical JSON (sorted keys at every level).
        for name in ("b", "a", "c"):
            left.counter(name).inc()
        for name in ("c", "a", "b"):
            right.counter(name).inc()
        left.span("z")
        left.span("y")
        right.span("y")
        right.span("z")
        assert json.dumps(left.snapshot()) == json.dumps(right.snapshot())
        assert list(left.snapshot()["counters"]) == ["a", "b", "c"]

    def test_snapshot_enumerates_zero_valued_metrics(self):
        registry = MetricsRegistry()
        registry.counter("never_fired")
        assert registry.snapshot()["counters"] == {"never_fired": 0}

    def test_reset_keeps_handles_valid(self):
        registry = make_registry()
        counter = registry.counter("events")
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"]["events"] == 0
        assert snap["spans"]["work"] == {
            "count": 0, "total_s": 0.0, "min_s": None, "max_s": None,
        }
        counter.inc()
        assert registry.snapshot()["counters"]["events"] == 1


class TestSpans:
    def test_two_usage_forms(self):
        registry = MetricsRegistry()
        span = registry.span("s")
        with span.time():
            pass

        @span
        def work():
            return 42

        assert work() == 42
        assert span.count == 2
        assert span.min_s is not None and span.min_s >= 0.0

    def test_spans_nest_and_recurse(self):
        registry = MetricsRegistry()
        span = registry.span("s")

        @span
        def recurse(depth):
            return recurse(depth - 1) if depth else 0

        with span.time():
            with span.time():
                recurse(2)
        assert span.count == 5
        assert span.total_s >= 0.0

    def test_decorator_records_on_exception(self):
        registry = MetricsRegistry()
        span = registry.span("s")

        @span
        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            boom()
        assert span.count == 1


# ----------------------------------------------------------------------
# Merge / delta arithmetic
# ----------------------------------------------------------------------
class TestMerge:
    def test_merge_values(self):
        merged = merge_snapshots(
            make_registry(1).snapshot(), make_registry(2).snapshot()
        )
        assert merged["counters"]["events"] == 9
        assert merged["gauges"]["depth"] == 4.0  # max, not sum
        hist = merged["histograms"]["sizes"]
        assert hist["count"] == 6
        assert hist["min"] == 1 and hist["max"] == 700
        span = merged["spans"]["work"]
        assert span["count"] == 4
        assert span["total_s"] == pytest.approx(2.25)
        assert span["min_s"] == 0.25 and span["max_s"] == 1.0

    def test_merge_associative_and_commutative(self):
        a = make_registry(1).snapshot()
        b = make_registry(2).snapshot()
        c = make_registry(5).snapshot()
        abc = merge_snapshots(a, b, c)
        assert merge_snapshots(c, a, b) == abc
        assert merge_snapshots(merge_snapshots(a, b), c) == abc
        assert merge_snapshots(a, merge_snapshots(b, c)) == abc

    def test_merge_identity_and_empty(self):
        a = make_registry().snapshot()
        assert merge_snapshots(a) == a
        assert merge_snapshots(a, {}) == a
        assert merge_snapshots() == {
            "counters": {}, "gauges": {}, "histograms": {}, "spans": {},
        }

    def test_merge_disjoint_names_union(self):
        left = MetricsRegistry()
        left.counter("only.left").inc()
        right = MetricsRegistry()
        right.counter("only.right").add(2)
        merged = merge_snapshots(left.snapshot(), right.snapshot())
        assert merged["counters"] == {"only.left": 1, "only.right": 2}

    def test_histogram_edge_mismatch_is_loud(self):
        left = MetricsRegistry()
        left.histogram("h", edges=(1, 2)).observe(1)
        right = MetricsRegistry()
        right.histogram("h", edges=(1, 2, 3)).observe(1)
        with pytest.raises(ValueError, match="edges"):
            merge_snapshots(left.snapshot(), right.snapshot())

    def test_delta_subtracts_counters_and_histograms(self):
        registry = make_registry()
        base = registry.snapshot()
        registry.counter("events").add(10)
        registry.histogram("sizes", SIZE_EDGES).observe(2)
        delta = registry.delta(base)
        assert delta["counters"]["events"] == 10
        assert delta["histograms"]["sizes"]["count"] == 1
        assert sum(delta["histograms"]["sizes"]["counts"]) == 1
        # Nothing happened to the span since the base snapshot.
        assert delta["spans"]["work"]["count"] == 0

    def test_delta_of_self_is_zero_activity(self):
        registry = make_registry()
        delta = registry.delta(registry.snapshot())
        assert all(v == 0 for v in delta["counters"].values())
        assert delta["spans"]["work"]["count"] == 0
        assert delta["spans"]["work"]["total_s"] == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
class TestRendering:
    def test_render_summary_sections(self):
        out = render_summary(make_registry().snapshot(), title="-- t --")
        assert "-- t --" in out
        assert "events" in out and "work" in out and "sizes" in out

    def test_render_empty_snapshot(self):
        assert render_summary({}, title="x") == "== x =="


class TestPrometheusRendering:
    def test_counter_family_with_total_suffix(self):
        text = render_prometheus_text(make_registry().snapshot())
        assert "# HELP events_total repro counter events" in text
        assert "# TYPE events_total counter" in text
        assert "\nevents_total 3\n" in "\n" + text

    def test_gauge_family(self):
        text = render_prometheus_text(make_registry().snapshot())
        assert "# TYPE depth gauge" in text
        assert "\ndepth 2\n" in "\n" + text

    def test_histogram_buckets_are_cumulative(self):
        snap = make_registry().snapshot()
        text = render_prometheus_text(snap)
        assert "# TYPE sizes histogram" in text
        lines = text.splitlines()
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("sizes_bucket")
        ]
        # Cumulative counts are monotone and end at the +Inf bucket,
        # which must equal the observation count.
        assert buckets == sorted(buckets)
        assert 'sizes_bucket{le="+Inf"} 3' in lines
        assert "sizes_count 3" in lines
        assert any(line.startswith("sizes_sum ") for line in lines)

    def test_span_renders_as_summary_in_seconds(self):
        text = render_prometheus_text(make_registry().snapshot())
        assert "# TYPE work_seconds summary" in text
        assert "work_seconds_count 2" in text
        parsed = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if not line.startswith("#")
        )
        assert float(parsed["work_seconds_sum"]) == pytest.approx(0.75)

    def test_dotted_names_sanitized_help_keeps_original(self):
        registry = MetricsRegistry()
        registry.counter("service.fused_elements").add(7)
        text = render_prometheus_text(registry.snapshot())
        assert "service_fused_elements_total 7" in text
        # The HELP line preserves the registry's dotted name so the
        # mapping back to `repro telemetry` output stays recoverable.
        assert (
            "# HELP service_fused_elements_total repro counter "
            "service.fused_elements" in text
        )
        assert "service.fused_elements_total" not in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus_text({}) == ""


# ----------------------------------------------------------------------
# STATS frames on the wire
# ----------------------------------------------------------------------
class TestStatsWire:
    def test_stats_update_roundtrip(self):
        from repro.serving import StatsUpdate
        from repro.serving.wire import recv_message, send_message

        snapshot = make_registry().snapshot()
        message = StatsUpdate(client_id=3, snapshot=snapshot)
        left, right = socket.socketpair()
        try:
            send_message(left, message)
            received = recv_message(right)
        finally:
            left.close()
            right.close()
        assert isinstance(received, StatsUpdate)
        assert received.client_id == 3
        assert received.snapshot == snapshot

    def test_stats_code_appended_after_existing_messages(self):
        # Wire codes come from _ARRAY_FIELDS insertion order; the STATS
        # frame must never displace a pre-existing code, and later
        # protocol extensions (the elastic lease frames) must append
        # after it rather than renumbering it.
        from repro.serving import ClientDone, LeaseRequest, Ping, StatsUpdate
        from repro.serving.wire import _CODE_BY_CLASS

        assert _CODE_BY_CLASS[StatsUpdate] == 14
        assert _CODE_BY_CLASS[ClientDone] < _CODE_BY_CLASS[StatsUpdate]
        assert _CODE_BY_CLASS[LeaseRequest] > _CODE_BY_CLASS[StatsUpdate]
        assert _CODE_BY_CLASS[Ping] == max(_CODE_BY_CLASS.values())

    def test_service_keeps_latest_snapshot_per_client(self):
        from repro.serving import CellCoordinator, GONScoringService, StatsUpdate

        service = GONScoringService(
            {}, request_queue=None, reply_queues={},
            coordinator=CellCoordinator([]),
        )
        first = MetricsRegistry()
        first.counter("test.latest_wins").add(2)
        second = MetricsRegistry()
        second.counter("test.latest_wins").add(5)
        service._dispatch([StatsUpdate(1, first.snapshot())])
        service._dispatch([StatsUpdate(1, second.snapshot())])
        service._dispatch([StatsUpdate(2, first.snapshot())])
        merged = service.merged_telemetry()
        # Latest-per-client replace, then sum across clients: 5 + 2.
        assert merged["counters"]["test.latest_wins"] == 7


# ----------------------------------------------------------------------
# HTTP status endpoint
# ----------------------------------------------------------------------
class TestStatusServer:
    def _get(self, server, path):
        with urllib.request.urlopen(
            f"http://{server.address}{path}", timeout=5
        ) as response:
            return response.status, response.read().decode("utf-8")

    def test_status_and_metrics_routes(self):
        from repro.serving import StatusServer

        payload = {
            "workers": {"connected": 2, "expected": 2, "signed_off": 0},
            "telemetry": make_registry().snapshot(),
        }
        server = StatusServer(lambda: payload).start()
        try:
            status, body = self._get(server, "/status")
            assert status == 200
            decoded = json.loads(body)
            assert decoded["workers"]["connected"] == 2
            assert decoded["telemetry"]["counters"]["events"] == 3

            # /metrics answers Prometheus exposition.
            status, body = self._get(server, "/metrics")
            assert status == 200
            assert "# TYPE events_total counter" in body
            assert "events_total 3" in body
        finally:
            server.close()

    def test_unknown_route_404_and_provider_error_500(self):
        from repro.serving import StatusServer

        calls = []

        def provider():
            calls.append(1)
            if len(calls) > 1:
                raise RuntimeError("boom")
            return {"telemetry": {}}

        server = StatusServer(provider).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server, "/nope")
            assert excinfo.value.code == 404
            assert self._get(server, "/status")[0] == 200
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(server, "/status")
            assert excinfo.value.code == 500
        finally:
            server.close()


# ----------------------------------------------------------------------
# Campaign plumbing
# ----------------------------------------------------------------------
def _campaign_config(**overrides):
    from repro.experiments import CampaignConfig

    base = dict(
        scenarios=("paper-default",),
        models=("CAROL",),
        n_seeds=2,
        workers=1,
        seed=11,
        n_intervals=2,
        trace_intervals=12,
        gon_hidden=8,
        gon_layers=2,
        gon_epochs=1,
        shared_assets=True,
    )
    base.update(overrides)
    return CampaignConfig(**base)


@pytest.fixture(scope="module")
def campaign_assets():
    from repro.experiments import prepare_campaign_assets

    return prepare_campaign_assets(_campaign_config())


class TestCampaignTelemetry:
    def test_serial_campaign_attaches_merged_telemetry(self, campaign_assets):
        from repro.experiments import run_campaign

        result = run_campaign(_campaign_config(), campaign_assets)
        counters = result.telemetry["counters"]
        assert counters["campaign.cells_started"] == 2
        assert counters["campaign.cells_completed"] == 2
        assert counters["sim.intervals"] == 4  # 2 cells x 2 intervals
        assert result.telemetry["spans"]["campaign.cell"]["count"] == 2
        # Per-instance model registries folded into the campaign view.
        assert counters["carol.cache.misses"] > 0
        payload = result.to_payload()
        assert payload["telemetry"] == result.telemetry
        json.dumps(payload)  # JSON-safe end to end

    def test_every_ascent_counts_under_one_namespace(self, campaign_assets):
        from repro.experiments import run_campaign

        result = run_campaign(_campaign_config(), campaign_assets)
        counters = result.telemetry["counters"]
        assert counters["gon.ascent.calls"] > 0
        assert counters["gon.ascent.elements"] >= counters["gon.ascent.calls"]
        assert counters["gon.ascent.steps"] > 0
        assert result.telemetry["spans"]["gon.ascent"]["count"] == \
            counters["gon.ascent.calls"]
        assert result.telemetry["histograms"]["gon.ascent.batch_size"]
        names = [
            name
            for section in result.telemetry.values()
            if isinstance(section, dict)
            for name in section
        ]
        assert not [name for name in names if name.startswith("gon.fast")]

    def test_pool_campaign_merges_worker_deltas(self, campaign_assets):
        from repro.experiments import run_campaign

        serial = run_campaign(_campaign_config(), campaign_assets)
        pooled = run_campaign(
            _campaign_config(workers=2), campaign_assets
        )
        assert [r.metrics for r in pooled.records] == [
            r.metrics for r in serial.records
        ]
        # Deterministic counter totals agree across execution modes
        # (spans/wall-clock legitimately differ).
        for key in (
            "campaign.cells_completed", "sim.intervals",
            "carol.cache.misses", "gon.ascent.calls",
        ):
            assert pooled.telemetry["counters"][key] == \
                serial.telemetry["counters"][key], key

    def test_fleet_campaign_telemetry_and_identity(self, campaign_assets):
        from repro.experiments import run_campaign

        serial = run_campaign(_campaign_config(), campaign_assets)
        fleet = run_campaign(
            _campaign_config(mode="fleet", workers=2), campaign_assets
        )
        assert [r.metrics for r in fleet.records] == [
            r.metrics for r in serial.records
        ]
        counters = fleet.telemetry["counters"]
        assert counters["campaign.cells_completed"] == 2
        assert counters["service.stats_updates"] == 2
        assert counters["service.requests"] > 0
        assert fleet.telemetry["spans"]["service.drain"]["count"] >= 1


# ----------------------------------------------------------------------
# Instrumentation cost
# ----------------------------------------------------------------------
#: Ceiling on the instrumentation's share of a simulated interval.
MAX_OVERHEAD_SHARE = 0.10

#: Every metric mutator, and the call that times one of its updates.
#: A span's cost is a whole timed window (timer, clock reads and the
#: record), taken as the dearer of its two usage forms.
_MUTATORS = ((Counter, "inc"), (Counter, "add"), (Gauge, "set"),
             (Histogram, "observe"), (Span, "_record"))


def _per_call_seconds() -> dict:
    """Seconds per call of each mutator (min of repeats, so no noise)."""
    registry = MetricsRegistry()
    counter = registry.counter("c")
    gauge = registry.gauge("g")
    histogram = registry.histogram("h", SIZE_EDGES)
    span = registry.span("s")

    @span
    def timed():
        pass

    def window():
        with span.time():
            pass

    def cost(fn):
        return min(timeit.repeat(fn, number=2000, repeat=5)) / 2000

    return {
        "Counter.inc": cost(counter.inc),
        "Counter.add": cost(lambda: counter.add(3)),
        "Gauge.set": cost(lambda: gauge.set(1.5)),
        "Histogram.observe": cost(lambda: histogram.observe(700)),
        "Span._record": max(cost(window), cost(timed)),
    }


class TestTelemetryOverhead:
    def test_enabled_registry_costs_at_most_ten_percent(self, monkeypatch):
        # Count every metric update of a serial heuristic grid (its
        # time goes to the instrumented interval engine, not to GON
        # training), price each kind at its per-call cost and compare
        # with the grid's own seconds per interval.  Counts are exact
        # and costs are minima, so the share needs no retry.
        from dataclasses import replace

        from repro.experiments import CampaignConfig, run_campaign

        config = CampaignConfig(
            scenarios=("paper-default", "correlated-rack", "flash-crowd"),
            models=("dyverse",),
            n_seeds=2,
            seed=1,
            n_intervals=100,
            workers=1,
        )
        run_campaign(replace(config, n_intervals=10))  # warm-up: imports
        started = time.perf_counter()
        result = run_campaign(config)
        elapsed = time.perf_counter() - started
        intervals = result.telemetry["counters"]["sim.intervals"]
        assert intervals == 600

        calls = collections.Counter()
        for cls, name in _MUTATORS:
            original = getattr(cls, name)

            def counted(self, *args, _original=original,
                        _kind=f"{cls.__name__}.{name}"):
                calls[_kind] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
        run_campaign(config)
        monkeypatch.undo()

        costs = _per_call_seconds()
        overhead = sum(n * costs[kind] for kind, n in calls.items())
        share = overhead / elapsed
        report = (
            f"{sum(calls.values()) / intervals:.2f} updates per interval, "
            f"{overhead / intervals * 1e6:.3f} us of "
            f"{elapsed / intervals * 1e3:.3f} ms per interval "
            f"({share:.3%}); calls {dict(calls)}"
        )
        assert calls["Span._record"] >= intervals, report
        assert share <= MAX_OVERHEAD_SHARE, report


# ----------------------------------------------------------------------
# compare_records strips execution-only keys
# ----------------------------------------------------------------------
class TestCompareRecords:
    @staticmethod
    def _write_dump(path, metrics, span_total, diagnostics):
        registry = MetricsRegistry()
        registry.span("campaign.cell")._record(span_total)
        payload = {
            "config": {"scenarios": ["s"]},
            "records": [{
                "run_index": 0,
                "scenario": "s",
                "model": "CAROL",
                "seed_index": 0,
                "seed": 1,
                **metrics,
                "diagnostics": diagnostics,
                "telemetry": registry.snapshot(),
            }],
            "telemetry": registry.snapshot(),
        }
        path.write_text(json.dumps(payload))

    def test_differing_timings_still_compare_equal(self, tmp_path):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            from compare_records import main as compare_main
        finally:
            sys.path.pop(0)
        left = tmp_path / "left.json"
        right = tmp_path / "right.json"
        metrics = {"energy_kwh": 1.25, "downtime_s": 0.0}
        # Same deterministic surface, wildly different wall-clock and
        # diagnostics: must compare equal.
        self._write_dump(left, metrics, 0.001, {"local_fallbacks": 0})
        self._write_dump(right, metrics, 9.999, {"local_fallbacks": 7})
        assert compare_main([str(left), str(right)]) == 0
        # A genuine metric difference must still fail.
        self._write_dump(right, {**metrics, "energy_kwh": 2.0}, 0.001, {})
        assert compare_main([str(left), str(right)]) == 1
