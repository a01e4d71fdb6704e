// Telemetry plane tests: OpenMetrics exposition golden text, snapshot
// rendering equivalence, the live HTTP server (scrape lifecycle, NDJSON
// event tail, slow-subscriber backpressure), the per-cell publisher, the
// flare_top parser/renderer round-trip, and the determinism contract —
// single-cell and multi-cell runs must produce byte-identical artifacts
// with telemetry on (and actively scraped) or off.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "netio/http_client.h"
#include "obs/bai_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/qoe_analytics.h"
#include "obs/span_trace.h"
#include "obs/telemetry_publisher.h"
#include "obs/telemetry_server.h"
#include "obs/watchdog.h"
#include "scenario/multi_cell.h"
#include "top_core.h"
#include "util/csv.h"
#include "util/json.h"

namespace flare {
namespace {

constexpr const char* kHost = "127.0.0.1";

template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

// --- Exposition format ------------------------------------------------------

TEST(OpenMetricsFormat, CounterGaugeHistogramGolden) {
  MetricsRegistry registry;
  registry.GetCounter("runner.epochs").Add(3);
  registry.GetGauge("telemetry.progress_pct").Set(42.5);
  Histogram& h = registry.GetHistogram("solve.ms");
  h.Observe(0.5);
  h.Observe(4.0);
  h.Observe(100.0);

  const std::string expected =
      "# HELP flare_runner_epochs_total runner.epochs\n"
      "# TYPE flare_runner_epochs_total counter\n"
      "flare_runner_epochs_total 3\n"
      "# HELP flare_telemetry_progress_pct telemetry.progress_pct\n"
      "# TYPE flare_telemetry_progress_pct gauge\n"
      "flare_telemetry_progress_pct 42.5\n"
      "# HELP flare_solve_ms solve.ms\n"
      "# TYPE flare_solve_ms histogram\n"
      "flare_solve_ms_bucket{le=\"0\"} 0\n"
      "flare_solve_ms_bucket{le=\"0.5\"} 1\n"
      "flare_solve_ms_bucket{le=\"1\"} 1\n"
      "flare_solve_ms_bucket{le=\"2\"} 1\n"
      "flare_solve_ms_bucket{le=\"4\"} 2\n"
      "flare_solve_ms_bucket{le=\"8\"} 2\n"
      "flare_solve_ms_bucket{le=\"16\"} 2\n"
      "flare_solve_ms_bucket{le=\"32\"} 2\n"
      "flare_solve_ms_bucket{le=\"64\"} 2\n"
      "flare_solve_ms_bucket{le=\"128\"} 3\n"
      "flare_solve_ms_bucket{le=\"+Inf\"} 3\n"
      "flare_solve_ms_sum 104.5\n"
      "flare_solve_ms_count 3\n"
      "# HELP flare_solve_ms_quantile solve.ms quantiles\n"
      "# TYPE flare_solve_ms_quantile gauge\n"
      "flare_solve_ms_quantile{quantile=\"0.5\"} 3.9375\n"
      "flare_solve_ms_quantile{quantile=\"0.95\"} 98\n"
      "flare_solve_ms_quantile{quantile=\"0.99\"} 98\n";
  EXPECT_EQ(RenderOpenMetrics(registry.Snapshot()), expected);
}

TEST(OpenMetricsFormat, CellPrefixBecomesLabel) {
  MetricsRegistry registry;
  registry.GetGauge("cell0.qoe.avg_qoe").Set(1.5);
  registry.GetGauge("cell12.qoe.avg_qoe").Set(2.25);
  registry.GetGauge("qoe.avg_qoe").Set(3.5);
  const std::string expected =
      "# HELP flare_qoe_avg_qoe qoe.avg_qoe\n"
      "# TYPE flare_qoe_avg_qoe gauge\n"
      "flare_qoe_avg_qoe{cell=\"0\"} 1.5\n"
      "flare_qoe_avg_qoe{cell=\"12\"} 2.25\n"
      "flare_qoe_avg_qoe 3.5\n";
  EXPECT_EQ(RenderOpenMetrics(registry.Snapshot()), expected);
}

TEST(OpenMetricsFormat, NameSanitizationAndCellSplit) {
  EXPECT_EQ(OpenMetricsName("runner.barrier-wait ms"),
            "flare_runner_barrier_wait_ms");
  EXPECT_EQ(OpenMetricsName("qoe.avg_qoe"), "flare_qoe_avg_qoe");

  OpenMetricsSeries s = SplitCellPrefix("cell5.player.stalls");
  EXPECT_EQ(s.family, "player.stalls");
  EXPECT_EQ(s.cell, "5");
  // No digits / no dot / nothing after the dot: the whole name stays.
  EXPECT_EQ(SplitCellPrefix("cell.x").family, "cell.x");
  EXPECT_EQ(SplitCellPrefix("cell.x").cell, "");
  EXPECT_EQ(SplitCellPrefix("cell5").family, "cell5");
  EXPECT_EQ(SplitCellPrefix("cell5.").family, "cell5.");
  EXPECT_EQ(SplitCellPrefix("celery.x").family, "celery.x");
}

TEST(OpenMetricsFormat, LabelEscaping) {
  const std::string raw = "a\"b\\c\nd";
  EXPECT_EQ(OpenMetricsEscapeLabel(raw), "a\\\"b\\\\c\\nd");

  // flare_top's parser must undo exactly this escaping.
  const std::string line = "flare_run_info{scenario=\"" +
                           OpenMetricsEscapeLabel(raw) + "\"} 1\n";
  std::vector<PromSample> samples;
  std::string error;
  ASSERT_TRUE(ParsePrometheusText(line, &samples, &error)) << error;
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].name, "flare_run_info");
  EXPECT_EQ(samples[0].labels.at("scenario"), raw);
  EXPECT_EQ(samples[0].value, 1.0);
}

TEST(OpenMetricsFormat, NanGaugesAreOmitted) {
  MetricsRegistry registry;
  registry.GetGauge("all.nan").Set(std::nan(""));
  registry.GetGauge("cell0.mixed").Set(std::nan(""));
  registry.GetGauge("cell1.mixed").Set(2.0);
  const std::string text = RenderOpenMetrics(registry.Snapshot());
  // All-NaN family disappears entirely (header included).
  EXPECT_EQ(text.find("flare_all_nan"), std::string::npos);
  // Mixed family keeps only the finite series.
  EXPECT_NE(text.find("flare_mixed{cell=\"1\"} 2\n"), std::string::npos);
  EXPECT_EQ(text.find("cell=\"0\""), std::string::npos);
}

TEST(OpenMetricsFormat, EmptyHistogramOmitsQuantiles) {
  MetricsRegistry registry;
  registry.GetHistogram("empty.ms");
  const std::string text = RenderOpenMetrics(registry.Snapshot());
  EXPECT_NE(text.find("flare_empty_ms_bucket{le=\"0\"} 0\n"
                      "flare_empty_ms_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("flare_empty_ms_count 0\n"), std::string::npos);
  EXPECT_EQ(text.find("flare_empty_ms_quantile"), std::string::npos);
}

// --- Snapshot <-> registry equivalence --------------------------------------

TEST(MetricsSnapshotContract, AbsorbFromMatchesMergeFromByteForByte) {
  MetricsRegistry shard_a;
  shard_a.GetCounter("player.segments").Add(2);
  shard_a.GetGauge("player.buffer_s").Set(1.5);
  shard_a.GetHistogram("solve.ms").Observe(3.0);
  MetricsRegistry shard_b;
  shard_b.GetCounter("player.segments").Add(7);
  shard_b.GetHistogram("solve.ms").Observe(0.25);

  MetricsRegistry merged;
  merged.MergeFrom(shard_a, "cell0.");
  merged.MergeFrom(shard_b, "cell1.");
  std::ostringstream live;
  merged.WriteJson(live);

  MetricsSnapshot snapshot;
  snapshot.AbsorbFrom(shard_a, "cell0.");
  snapshot.AbsorbFrom(shard_b, "cell1.");
  std::ostringstream snap;
  snapshot.WriteJson(snap);

  EXPECT_EQ(live.str(), snap.str());
}

TEST(MetricsSnapshotContract, QuantilesBitIdenticalToLiveHistogram) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("x.ms");
  for (double v : {0.1, 0.9, 1.5, 1.7, 3.0, 6.5, 20.0}) h.Observe(v);
  const Histogram snap = registry.Snapshot().histograms.at("x.ms");
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    // EXPECT_EQ (not NEAR): the bit-identity is the contract that lets
    // /metrics and the end-of-run JSON share one renderer.
    EXPECT_EQ(h.Quantile(q), snap.Quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(h.Mean(), snap.Mean());
  const auto live_edges = h.CumulativeEdges();
  const auto snap_edges = snap.CumulativeEdges();
  ASSERT_EQ(live_edges.size(), snap_edges.size());
  for (std::size_t i = 0; i < live_edges.size(); ++i) {
    EXPECT_EQ(live_edges[i].le, snap_edges[i].le);
    EXPECT_EQ(live_edges[i].count, snap_edges[i].count);
  }
}

// --- Health JSON ------------------------------------------------------------

TEST(HealthJson, GoldenBodies) {
  TelemetrySnapshot snap;
  snap.scenario = "flare x4";
  snap.sim_time_s = 5.0;
  snap.duration_s = 20.0;
  snap.epochs = 50;
  snap.epoch_rate_hz = 10.0;
  snap.sim_speedup = 2.5;
  snap.cells = 4;
  snap.workers = 2;
  snap.healthy = true;
  EXPECT_EQ(RenderHealthJson(snap, /*have_snapshot=*/true),
            "{\"status\": \"ok\", \"healthy\": true, "
            "\"scenario\": \"flare x4\", \"sim_time_s\": 5, "
            "\"duration_s\": 20, \"progress_pct\": 25, \"epochs\": 50, "
            "\"epoch_rate_hz\": 10, \"sim_speedup\": 2.5, \"cells\": 4, "
            "\"workers\": 2, \"warnings\": 0, \"unhealthy_cells\": []}");

  snap.healthy = false;
  snap.warnings = 3;
  snap.unhealthy_cells = {1, 3};
  const std::string alarming = RenderHealthJson(snap, true);
  EXPECT_NE(alarming.find("\"status\": \"alarming\""), std::string::npos);
  EXPECT_NE(alarming.find("\"unhealthy_cells\": [1, 3]"),
            std::string::npos);

  // Pre-first-publish: "starting" and unhealthy regardless of content.
  const std::string starting = RenderHealthJson(snap, false);
  EXPECT_NE(starting.find("\"status\": \"starting\""), std::string::npos);
  EXPECT_NE(starting.find("\"healthy\": false"), std::string::npos);

  // Both bodies are valid JSON.
  JsonValue parsed;
  ASSERT_TRUE(ParseJson(alarming, &parsed));
  EXPECT_EQ(parsed.Find("warnings")->AsNumber(), 3.0);
}

// --- Live server ------------------------------------------------------------

TEST(TelemetryHttp, ScrapeLifecycle) {
  TelemetryServer server;
  ASSERT_TRUE(server.Start());
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  // Before any publish: /healthz is 503 "starting".
  HttpResponse health;
  ASSERT_TRUE(HttpGet(kHost, server.port(), "/healthz", &health));
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"status\": \"starting\""),
            std::string::npos);

  TelemetrySnapshot snap;
  snap.scenario = "lifecycle";
  snap.sim_time_s = 5.0;
  snap.duration_s = 10.0;
  snap.healthy = true;
  snap.metrics.counters["runner.epochs"] = 7;
  snap.metrics.gauges["cell0.qoe.avg_qoe"] = 0.75;
  server.Publish(snap);

  ASSERT_TRUE(HttpGet(kHost, server.port(), "/healthz", &health));
  EXPECT_EQ(health.status, 200);
  JsonValue parsed;
  ASSERT_TRUE(ParseJson(health.body, &parsed));
  EXPECT_EQ(parsed.Find("status")->AsString(), "ok");
  EXPECT_EQ(parsed.Find("sim_time_s")->AsNumber(), 5.0);

  HttpResponse metrics;
  ASSERT_TRUE(HttpGet(kHost, server.port(), "/metrics", &metrics));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("flare_runner_epochs_total 7\n"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("flare_qoe_avg_qoe{cell=\"0\"} 0.75\n"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("flare_run_info{scenario=\"lifecycle\"} 1\n"),
            std::string::npos);
  ASSERT_GE(metrics.body.size(), 6u);
  EXPECT_EQ(metrics.body.substr(metrics.body.size() - 6), "# EOF\n");

  // The whole body parses as exposition text, and the scrape counter is
  // monotone across scrapes.
  HttpResponse again;
  ASSERT_TRUE(HttpGet(kHost, server.port(), "/metrics", &again));
  std::vector<PromSample> first_samples;
  std::vector<PromSample> second_samples;
  std::string error;
  ASSERT_TRUE(ParsePrometheusText(metrics.body, &first_samples, &error))
      << error;
  ASSERT_TRUE(ParsePrometheusText(again.body, &second_samples, &error))
      << error;
  const auto scrape_count = [](const std::vector<PromSample>& samples) {
    for (const PromSample& s : samples) {
      if (s.name == "flare_telemetry_scrapes_total") return s.value;
    }
    return -1.0;
  };
  EXPECT_GE(scrape_count(first_samples), 1.0);
  EXPECT_GT(scrape_count(second_samples), scrape_count(first_samples));
  // Only /metrics requests count as scrapes (not /healthz).
  EXPECT_EQ(server.scrapes(), 2u);

  // Unhealthy publish flips /healthz to 503 "alarming".
  snap.healthy = false;
  snap.unhealthy_cells = {0};
  server.Publish(snap);
  ASSERT_TRUE(HttpGet(kHost, server.port(), "/healthz", &health));
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"status\": \"alarming\""),
            std::string::npos);

  // Unknown paths 404 but keep the connection protocol-clean.
  HttpResponse missing;
  ASSERT_TRUE(HttpGet(kHost, server.port(), "/nope", &missing));
  EXPECT_EQ(missing.status, 404);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(TelemetryHttp, EventsStreamRoundTrip) {
  TelemetryServer server;
  ASSERT_TRUE(server.Start());

  HttpTail tail;
  ASSERT_TRUE(tail.Open(kHost, server.port(), "/events"));
  EXPECT_EQ(tail.status(), 200);

  FlightEvent ev;
  ev.t_s = 1.5;
  ev.cell = 3;
  ev.seq = 9;
  ev.kind = "rung_change";
  ev.flow = 7;
  ev.client = 2;
  ev.value = 3.0;
  ev.args = "{\"from\": 1, \"to\": 2}";
  server.PublishEvents(
      {RenderFlightEventNdjson(ev), "{\"t_s\": 2.0, \"kind\": \"x\"}"});

  std::string chunk;
  ASSERT_TRUE(tail.NextChunk(&chunk));
  while (!chunk.empty() && chunk.back() == '\n') chunk.pop_back();
  JsonValue line;
  ASSERT_TRUE(ParseJson(chunk, &line)) << chunk;
  EXPECT_EQ(line.Find("t_s")->AsNumber(), 1.5);
  EXPECT_EQ(line.Find("cell")->AsNumber(), 3.0);
  EXPECT_EQ(line.Find("seq")->AsNumber(), 9.0);
  EXPECT_EQ(line.Find("kind")->AsString(), "rung_change");
  EXPECT_EQ(line.Find("args")->Find("to")->AsNumber(), 2.0);

  ASSERT_TRUE(tail.NextChunk(&chunk));
  while (!chunk.empty() && chunk.back() == '\n') chunk.pop_back();
  ASSERT_TRUE(ParseJson(chunk, &line)) << chunk;
  EXPECT_EQ(line.Find("t_s")->AsNumber(), 2.0);

  EXPECT_TRUE(
      WaitFor([&] { return server.events_published() == 2; }));
  EXPECT_EQ(server.events_dropped(), 0u);

  // Graceful shutdown delivers the terminal chunk: the tail sees a clean
  // end of stream, not an error-y hang.
  server.Stop();
  EXPECT_FALSE(tail.NextChunk(&chunk));
  tail.Close();
}

TEST(TelemetryHttp, SlowEventsSubscriberDropsInsteadOfBlocking) {
  TelemetryServer::Options options;
  options.event_queue_capacity = 64;
  options.connection_buffer_limit = 4096;
  TelemetryServer server(options);
  ASSERT_TRUE(server.Start());

  // A subscriber that opens the stream and then never reads — the worst
  // client. Kernel socket buffers absorb some data; past those plus the
  // per-connection outbox cap, events must be dropped and counted, and
  // the publish side must stay prompt.
  HttpTail tail;
  ASSERT_TRUE(tail.Open(kHost, server.port(), "/events"));

  const std::string pad(1000, 'x');
  bool dropped = false;
  for (int batch = 0; batch < 128 && !dropped; ++batch) {
    std::vector<std::string> lines;
    lines.reserve(64);
    for (int i = 0; i < 64; ++i) {
      lines.push_back("{\"batch\": " + std::to_string(batch) +
                      ", \"pad\": \"" + pad + "\"}");
    }
    server.PublishEvents(std::move(lines));
    dropped = WaitFor([&] { return server.events_dropped() > 0; },
                      /*timeout_ms=*/50);
  }
  EXPECT_TRUE(dropped);
  EXPECT_GT(server.events_dropped(), 0u);

  // The server is still fully responsive and exports the drop counter.
  HttpResponse metrics;
  ASSERT_TRUE(HttpGet(kHost, server.port(), "/metrics", &metrics));
  EXPECT_EQ(metrics.status, 200);
  std::vector<PromSample> samples;
  std::string error;
  ASSERT_TRUE(ParsePrometheusText(metrics.body, &samples, &error)) << error;
  double dropped_total = -1.0;
  for (const PromSample& s : samples) {
    if (s.name == "flare_telemetry_events_dropped_total") {
      dropped_total = s.value;
    }
  }
  EXPECT_GT(dropped_total, 0.0);

  tail.Close();
  server.Stop();
}

/// TSan coverage for the snapshot handoff: one thread publishing
/// snapshots and event lines while scraper threads hammer every endpoint.
TEST(TelemetryHttp, ConcurrentPublishAndScrape) {
  TelemetryServer server;
  ASSERT_TRUE(server.Start());

  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (int i = 0; i < 200; ++i) {
      TelemetrySnapshot snap;
      snap.scenario = "tsan";
      snap.sim_time_s = static_cast<double>(i);
      snap.duration_s = 200.0;
      snap.healthy = (i % 3) != 0;
      snap.metrics.counters["runner.epochs"] =
          static_cast<std::uint64_t>(i);
      snap.metrics.gauges["cell0.qoe.avg_qoe"] = 0.5;
      server.Publish(std::move(snap));
      server.PublishEvents({"{\"i\": " + std::to_string(i) + "}"});
      std::this_thread::yield();
    }
    done.store(true);
  });
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&] {
      // At least a few polls each even if the publisher finishes first,
      // so the scrape path is always exercised.
      for (int polls = 0; !done.load() || polls < 5; ++polls) {
        HttpResponse r;
        HttpGet(kHost, server.port(), "/metrics", &r, 2000);
        HttpGet(kHost, server.port(), "/healthz", &r, 2000);
      }
    });
  }
  publisher.join();
  for (std::thread& t : scrapers) t.join();
  EXPECT_GT(server.scrapes(), 0u);
  server.Stop();
}

// --- Publisher --------------------------------------------------------------

TEST(TelemetryPublisherBridge, NdjsonGoldenAndCollectSinceInclusive) {
  FlightEvent ev;
  ev.t_s = 1.5;
  ev.cell = 3;
  ev.seq = 0;
  ev.kind = "rung_change";
  ev.flow = 7;
  ev.client = 2;
  ev.value = 3.0;
  ev.args = "{\"from\": 1}";
  EXPECT_EQ(RenderFlightEventNdjson(ev),
            "{\"t_s\": 1.5, \"cell\": 3, \"seq\": 0, "
            "\"kind\": \"rung_change\", \"flow\": 7, \"client\": 2, "
            "\"value\": 3, \"args\": {\"from\": 1}}");
  ev.args.clear();
  EXPECT_EQ(RenderFlightEventNdjson(ev).find("args"), std::string::npos);

  // Seqs start at 0, so the tail cursor is inclusive: from_seq=0 must
  // return the very first event, and the returned cursor is next-unseen.
  FlightRecorder recorder(16);
  recorder.Record(1.0, "a");
  recorder.Record(2.0, "b");
  std::vector<FlightEvent> out;
  std::uint64_t next = recorder.CollectEventsSince(0, /*cell=*/5, &out);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(next, 2u);
  EXPECT_EQ(out[0].cell, 5);
  out.clear();
  EXPECT_EQ(recorder.CollectEventsSince(next, 5, &out), 2u);
  EXPECT_TRUE(out.empty());
  recorder.Record(3.0, "c");
  EXPECT_EQ(recorder.CollectEventsSince(next, 5, &out), 3u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].t_s, 3.0);
}

TEST(TelemetryPublisherBridge, MaybePublishExportsShardsAndEvents) {
  TelemetryServer server;
  ASSERT_TRUE(server.Start());

  MetricsRegistry shard_metrics;
  shard_metrics.GetCounter("player.segments").Add(5);
  QoeAnalytics qoe;
  RunHealthMonitor health;
  FlightRecorder flight(16);
  flight.Record(1.5, "rung_change", 7, 2, 3.0);

  TelemetryPublisher publisher(&server, /*interval_ms=*/1e9);
  publisher.ConfigureRun("unit x2", /*duration_s=*/10.0, /*cells=*/2,
                         /*workers=*/0);
  publisher.AddShard({&shard_metrics, &qoe, &health, &flight, "cell0."},
                     /*cell=*/0);
  publisher.AddShard({}, /*cell=*/1);
  publisher.MaybePublish(/*cell=*/0, /*sim_time_s=*/5.0);

  HttpResponse metrics;
  ASSERT_TRUE(HttpGet(kHost, server.port(), "/metrics", &metrics));
  EXPECT_EQ(metrics.status, 200);
  // The shard registry and live QoE / health gauges land under the cell
  // label; every cell reports its clock, 0 until it publishes, and the
  // run's clock is the slowest cell's.
  for (const char* line :
       {"flare_player_segments_total{cell=\"0\"} 5\n",
        "flare_qoe_sessions{cell=\"0\"} 0\n",
        "flare_health_healthy{cell=\"0\"} 1\n",
        "flare_telemetry_sim_time_s{cell=\"0\"} 5\n",
        "flare_telemetry_sim_time_s{cell=\"1\"} 0\n",
        "flare_telemetry_sim_time_s 0\n",
        "flare_run_info{scenario=\"unit x2\"} 1\n"}) {
    EXPECT_NE(metrics.body.find(line), std::string::npos) << line;
  }

  // The interval is not due, so cell 0 publishes nothing more until the
  // horizon, which always publishes; cell 1's first offer is due.
  publisher.MaybePublish(/*cell=*/0, 6.0);
  publisher.MaybePublish(/*cell=*/1, 8.0);
  HttpResponse health_response;
  ASSERT_TRUE(HttpGet(kHost, server.port(), "/healthz", &health_response));
  EXPECT_EQ(health_response.status, 200);
  JsonValue parsed;
  ASSERT_TRUE(ParseJson(health_response.body, &parsed));
  EXPECT_EQ(parsed.Find("sim_time_s")->AsNumber(), 5.0);
  EXPECT_EQ(parsed.Find("epochs")->AsNumber(), 2.0);
  EXPECT_EQ(parsed.Find("cells")->AsNumber(), 2.0);
  EXPECT_EQ(parsed.Find("scenario")->AsString(), "unit x2");

  // The flight event was forwarded once; publishing again without new
  // events forwards nothing (the per-shard cursor advanced).
  EXPECT_TRUE(WaitFor([&] { return server.events_published() == 1; }));
  flight.Record(7.0, "stall_start", 7, 2);
  publisher.MaybePublish(/*cell=*/0, 10.0);
  EXPECT_TRUE(WaitFor([&] { return server.events_published() == 2; }));
  ASSERT_TRUE(HttpGet(kHost, server.port(), "/healthz", &health_response));
  ASSERT_TRUE(ParseJson(health_response.body, &parsed));
  EXPECT_EQ(parsed.Find("sim_time_s")->AsNumber(), 8.0);
  EXPECT_EQ(parsed.Find("epochs")->AsNumber(), 3.0);

  server.Stop();
}

// --- flare_top core ---------------------------------------------------------

TEST(TopCore, ParseBuildRenderRoundTrip) {
  // Exposition the way the server produces it: rendered families plus
  // the server's self-metrics appended as plain lines.
  MetricsRegistry registry;
  for (int cell = 0; cell < 2; ++cell) {
    const std::string p = "cell" + std::to_string(cell) + ".";
    registry.GetGauge(p + "qoe.sessions").Set(3 + cell);
    registry.GetGauge(p + "qoe.played_sessions").Set(2 + cell);
    registry.GetGauge(p + "qoe.avg_bitrate_bps").Set(2.5e6);
    registry.GetGauge(p + "qoe.avg_qoe").Set(0.8);
    registry.GetGauge(p + "qoe.jain_avg_bitrate").Set(0.97);
    registry.GetGauge(p + "qoe.stalls").Set(cell);
    registry.GetGauge(p + "qoe.stall_ratio").Set(0.01);
    registry.GetGauge(p + "qoe.blocking_probability").Set(0.125);
    registry.GetGauge(p + "health.healthy").Set(cell == 0 ? 1.0 : 0.0);
  }
  std::string text = RenderOpenMetrics(registry.Snapshot());
  text +=
      "flare_telemetry_scrapes_total 4\n"
      "flare_telemetry_events_published_total 10\n"
      "flare_telemetry_events_dropped_total 1\n"
      "flare_run_info{scenario=\"fallback\"} 1\n"
      "# EOF\n";

  std::vector<PromSample> samples;
  std::string error;
  ASSERT_TRUE(ParsePrometheusText(text, &samples, &error)) << error;

  TelemetrySnapshot health_snap;
  health_snap.scenario = "flare x2";
  health_snap.sim_time_s = 10.0;
  health_snap.duration_s = 20.0;
  health_snap.epochs = 100;
  health_snap.cells = 2;
  health_snap.workers = 2;
  health_snap.healthy = true;
  JsonValue healthz;
  ASSERT_TRUE(ParseJson(RenderHealthJson(health_snap, true), &healthz));

  const TopSnapshot top = BuildTopSnapshot(samples, &healthz);
  EXPECT_EQ(top.status, "ok");
  EXPECT_TRUE(top.healthy);
  // /healthz wins the scenario over the run_info fallback.
  EXPECT_EQ(top.scenario, "flare x2");
  EXPECT_EQ(top.progress_pct, 50.0);
  EXPECT_EQ(top.cells, 2);
  EXPECT_EQ(top.scrapes, 4.0);
  EXPECT_EQ(top.events_dropped, 1.0);
  ASSERT_EQ(top.rows.size(), 2u);
  EXPECT_EQ(top.rows[0].cell, 0);
  EXPECT_EQ(top.rows[0].sessions, 3.0);
  EXPECT_TRUE(top.rows[0].healthy);
  EXPECT_EQ(top.rows[1].cell, 1);
  EXPECT_EQ(top.rows[1].stalls, 1.0);
  EXPECT_FALSE(top.rows[1].healthy);

  // --json output parses back and carries the rows.
  JsonValue round;
  ASSERT_TRUE(ParseJson(RenderTopJson(top), &round));
  EXPECT_EQ(round.Find("status")->AsString(), "ok");
  EXPECT_EQ(round.Find("cell_rows")->items().size(), 2u);
  EXPECT_EQ(round.Find("cell_rows")->items()[1].Find("cell")->AsNumber(),
            1.0);

  const std::string table = RenderTopTable(top);
  EXPECT_NE(table.find("flare x2"), std::string::npos);
  EXPECT_NE(table.find("ALARM"), std::string::npos);

  // Without healthz, the run_info label is the scenario fallback.
  const TopSnapshot bare = BuildTopSnapshot(samples, nullptr);
  EXPECT_EQ(bare.scenario, "fallback");
  EXPECT_EQ(bare.status, "unknown");

  // Sim runs export no request-stage gauges: the control-plane section
  // is absent from the snapshot, the table, and the JSON.
  EXPECT_TRUE(top.stage_rows.empty());
  EXPECT_EQ(table.find("control plane"), std::string::npos);
  EXPECT_EQ(round.Find("stage_rows"), nullptr);
}

TEST(TopCore, StageRowsRenderOnlyForTracingDaemons) {
  // A tracing flare_oneapid exposes per-stage quantile gauges; flare_top
  // folds them into an ordered control-plane section. Partial exposure
  // (a stage missing entirely) just omits that row.
  std::string text;
  const char* exposed[] = {"recv", "queue_wait", "solve"};
  for (const char* stage : exposed) {
    const std::string base =
        std::string("flare_svc_oneapi_stage_") + stage + "_";
    text += base + "p50_us 12.5\n";
    text += base + "p95_us 80\n";
    text += base + "p99_us 240\n";
  }
  text += "flare_svc_oneapi_stage_encode_p50_us 3\n";  // p95/p99 absent
  text += "# EOF\n";

  std::vector<PromSample> samples;
  std::string error;
  ASSERT_TRUE(ParsePrometheusText(text, &samples, &error)) << error;
  const TopSnapshot top = BuildTopSnapshot(samples, nullptr);

  // Rows come out in pipeline order, not exposition order.
  ASSERT_EQ(top.stage_rows.size(), 4u);
  EXPECT_EQ(top.stage_rows[0].stage, "recv");
  EXPECT_EQ(top.stage_rows[1].stage, "queue_wait");
  EXPECT_EQ(top.stage_rows[2].stage, "solve");
  EXPECT_EQ(top.stage_rows[3].stage, "encode");
  EXPECT_EQ(top.stage_rows[1].p50_us, 12.5);
  EXPECT_EQ(top.stage_rows[1].p99_us, 240.0);
  EXPECT_EQ(top.stage_rows[3].p50_us, 3.0);
  EXPECT_EQ(top.stage_rows[3].p95_us, 0.0);

  const std::string table = RenderTopTable(top);
  EXPECT_NE(table.find("control plane"), std::string::npos);
  EXPECT_NE(table.find("queue_wait"), std::string::npos);

  JsonValue round;
  ASSERT_TRUE(ParseJson(RenderTopJson(top), &round));
  const JsonValue* rows = round.Find("stage_rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items().size(), 4u);
  EXPECT_EQ(rows->items()[2].Find("stage")->AsString(), "solve");
  EXPECT_EQ(rows->items()[2].Find("p99_us")->AsNumber(), 240.0);
}

// --- Determinism with telemetry on ------------------------------------------

MultiCellConfig TelemetryHarnessConfig(int workers) {
  MultiCellConfig multi;
  multi.cell = TestbedPreset(Scheme::kFlare);
  multi.cell.duration_s = 10.0;
  multi.cell.seed = 7;
  multi.cell.oneapi.deterministic_timing = true;
  multi.cell.n_video = 2;
  multi.cell.churn.enabled = true;
  multi.cell.churn.arrival_rate_per_s = 0.4;
  multi.cell.churn.mean_hold_s = 8.0;
  multi.cell.churn.data_fraction = 0.2;
  multi.cell.churn.admission.policy = AdmissionPolicy::kCapacityThreshold;
  multi.cell.churn.admission.capacity_threshold = 0.5;
  multi.n_cells = 4;
  multi.workers = workers;
  return multi;
}

struct RunOutput {
  std::string csv;
  std::string json;
  std::string spans;
  std::string health;
  std::string qoe;
  std::string flight;
};

/// Every end-of-run sink a run can feed, rendered to bytes.
struct Sinks {
  MetricsRegistry registry;
  BaiTraceSink trace;
  SpanTracer spans;
  RunHealthMonitor health;
  QoeAnalytics qoe;
  FlightRecorder flight{64};

  RunOutput Render() const {
    RunOutput out;
    std::ostringstream csv;
    trace.WriteCsv(csv);
    out.csv = csv.str();
    std::ostringstream json;
    trace.WriteJson(json, &registry, nullptr, &qoe);
    out.json = json.str();
    std::ostringstream span_json;
    spans.WriteJson(span_json);
    out.spans = span_json.str();
    std::ostringstream health_json;
    health.WriteJson(health_json);
    out.health = health_json.str();
    std::ostringstream qoe_json;
    qoe.WriteJson(qoe_json);
    out.qoe = qoe_json.str();
    std::ostringstream flight_json;
    flight.WriteJson(flight_json);
    out.flight = flight_json.str();
    return out;
  }
};

RunOutput RunMulti(MultiCellConfig multi, TelemetryServer* telemetry) {
  Sinks sinks;
  multi.metrics = &sinks.registry;
  multi.bai_trace = &sinks.trace;
  multi.span_trace = &sinks.spans;
  multi.health = &sinks.health;
  multi.qoe = &sinks.qoe;
  multi.flight = &sinks.flight;
  multi.telemetry = telemetry;
  // Publish after (virtually) every BAI slice so the telemetry path is
  // genuinely hot during the comparison run.
  multi.telemetry_interval_ms = 1.0;
  RunMultiCellScenario(multi);
  return sinks.Render();
}

RunOutput RunSingle(TelemetryServer* telemetry) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 20.0;
  config.seed = 7;
  config.oneapi.deterministic_timing = true;
  Sinks sinks;
  config.metrics = &sinks.registry;
  config.bai_trace = &sinks.trace;
  config.span_trace = &sinks.spans;
  config.health = &sinks.health;
  config.qoe = &sinks.qoe;
  config.flight = &sinks.flight;
  config.telemetry = telemetry;
  config.telemetry_interval_ms = 1.0;
  RunScenario(config);
  return sinks.Render();
}

/// Live adversarial load while a run executes: scrapes /metrics and
/// /healthz and tails /events in a loop, at least once, until destroyed.
class LiveScraper {
 public:
  explicit LiveScraper(std::uint16_t port)
      : thread_([this, port] {
          HttpTail tail;
          tail.Open(kHost, port, "/events", 2000);
          std::string chunk;
          do {
            HttpResponse r;
            HttpGet(kHost, port, "/metrics", &r, 2000);
            HttpGet(kHost, port, "/healthz", &r, 2000);
            tail.NextChunk(&chunk, 10);
          } while (!stop_.load());
          tail.Close();
        }) {}
  ~LiveScraper() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

void ExpectSameBytes(const RunOutput& off, const RunOutput& on,
                     const std::string& what) {
  EXPECT_EQ(off.csv, on.csv) << what;
  EXPECT_EQ(off.json, on.json) << what;
  EXPECT_EQ(off.spans, on.spans) << what;
  EXPECT_EQ(off.health, on.health) << what;
  EXPECT_EQ(off.qoe, on.qoe) << what;
  EXPECT_EQ(off.flight, on.flight) << what;
}

TEST(TelemetryDeterminism, RunBytesIdenticalWithTelemetryOnAndScraped) {
  const RunOutput off = RunMulti(TelemetryHarnessConfig(0), nullptr);
  ASSERT_FALSE(off.csv.empty());

  for (const int workers : {0, 2}) {
    TelemetryServer server;
    ASSERT_TRUE(server.Start());
    RunOutput on;
    {
      const LiveScraper scraper(server.port());
      on = RunMulti(TelemetryHarnessConfig(workers), &server);
    }
    EXPECT_GT(server.scrapes(), 0u) << "workers=" << workers;
    server.Stop();
    ExpectSameBytes(off, on, "workers=" + std::to_string(workers));
  }
}

TEST(TelemetryDeterminism, SingleCellRunBytesIdenticalWithTelemetryOn) {
  // Publishing must add no simulator event: sim.events and
  // sim.queue_depth in the metrics JSON match the telemetry-off run.
  const RunOutput off = RunSingle(nullptr);
  ASSERT_NE(off.json.find("sim.events"), std::string::npos);
  TelemetryServer server;
  ASSERT_TRUE(server.Start());
  RunOutput on;
  {
    const LiveScraper scraper(server.port());
    on = RunSingle(&server);
  }
  EXPECT_GT(server.scrapes(), 0u);
  server.Stop();
  ExpectSameBytes(off, on, "single cell");
}

TEST(TelemetryLive, MultiCellSnapshotsCarryEveryCellsClock) {
  // Cells publish from their own jobs; every served snapshot still has a
  // clock per cell, and the run's clock (the slowest cell's) never goes
  // back between scrapes.
  MultiCellConfig multi = TelemetryHarnessConfig(/*workers=*/2);
  multi.cell.duration_s = 60.0;
  multi.telemetry_interval_ms = 1.0;
  TelemetryServer server;
  ASSERT_TRUE(server.Start());
  multi.telemetry = &server;

  struct Scrape {
    double run_s = 0.0;
    std::map<std::string, double> cell_s;  // by cell label
  };
  std::vector<Scrape> scrapes;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) {
      HttpResponse r;
      std::vector<PromSample> samples;
      std::string error;
      if (!HttpGet(kHost, server.port(), "/metrics", &r, 2000) ||
          !ParsePrometheusText(r.body, &samples, &error)) {
        continue;
      }
      Scrape scrape;
      bool published = false;
      for (const PromSample& sample : samples) {
        if (sample.name != "flare_telemetry_sim_time_s") continue;
        const auto cell = sample.labels.find("cell");
        if (cell == sample.labels.end()) {
          scrape.run_s = sample.value;
          published = true;
        } else {
          scrape.cell_s[cell->second] = sample.value;
        }
      }
      if (published) scrapes.push_back(std::move(scrape));
    }
  });
  RunMultiCellScenario(multi);
  stop.store(true);
  scraper.join();
  server.Stop();

  ASSERT_FALSE(scrapes.empty());
  int mid_run = 0;
  double last_run_s = 0.0;
  for (const Scrape& scrape : scrapes) {
    EXPECT_EQ(scrape.cell_s.size(), static_cast<std::size_t>(multi.n_cells));
    EXPECT_GE(scrape.run_s, last_run_s);
    last_run_s = scrape.run_s;
    for (const auto& [cell, t] : scrape.cell_s) {
      if (t > 0.0 && t < multi.cell.duration_s) ++mid_run;
    }
  }
  EXPECT_GT(mid_run, 0) << scrapes.size() << " scrapes";
}

}  // namespace
}  // namespace flare
