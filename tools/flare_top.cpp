// flare_top — live view of a running simulation via its telemetry plane.
//
// Polls GET /metrics and GET /healthz on a scenario_runner / bench
// started with telemetry_port=N and renders a refreshing per-cell table
// (sessions, mean bitrate, QoE, Jain fairness, stalls, blocking %) plus
// run-level progress and rates. `--once` renders
// a single frame; `--json` emits the machine-readable snapshot instead
// (the CI smoke job runs `flare_top port=... --once --json`).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "netio/http_client.h"
#include "top_core.h"
#include "util/json.h"

namespace {

using namespace flare;

void PrintUsage(std::FILE* out) {
  std::fprintf(out, R"(usage: flare_top port=N [key=value ...] [flags]

Live per-cell view of a run serving telemetry (telemetry_port=N).

Keys:
  port=N             telemetry port to poll (required)
  host=ADDR          telemetry host (127.0.0.1)
  interval_ms=N      refresh period (2000)
Flags:
  --once             render one frame and exit
  --json             emit the snapshot as one JSON object (implies no
                     screen clearing; combine with --once for scripts)
  --help             this text
)");
}

/// One poll: scrape both endpoints and build the view. Returns false
/// when the server is unreachable (both GETs failed).
bool Poll(const std::string& host, std::uint16_t port, TopSnapshot* snap,
          std::string* error) {
  HttpResponse metrics;
  HttpResponse healthz;
  const bool got_metrics = HttpGet(host, port, "/metrics", &metrics);
  const bool got_healthz = HttpGet(host, port, "/healthz", &healthz);
  if (!got_metrics && !got_healthz) {
    *error = "cannot reach http://" + host + ":" + std::to_string(port);
    return false;
  }
  std::vector<PromSample> samples;
  if (got_metrics && metrics.status == 200) {
    std::string parse_error;
    if (!ParsePrometheusText(metrics.body, &samples, &parse_error)) {
      *error = "/metrics: " + parse_error;
      return false;
    }
  }
  JsonValue health_json;
  const JsonValue* health = nullptr;
  // /healthz deliberately serves 503 while alarming (or starting) — the
  // body is valid JSON either way.
  if (got_healthz && ParseJson(healthz.body, &health_json)) {
    health = &health_json;
  }
  *snap = BuildTopSnapshot(samples, health);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = -1;
  int interval_ms = 2000;
  bool once = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    }
    if (arg == "--once") {
      once = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("host=", 0) == 0) {
      host = arg.substr(5);
    } else if (arg.rfind("port=", 0) == 0) {
      port = std::atoi(arg.c_str() + 5);
    } else if (arg.rfind("interval_ms=", 0) == 0) {
      interval_ms = std::atoi(arg.c_str() + 12);
    } else {
      std::fprintf(stderr, "flare_top: unknown argument '%s'\n\n",
                   arg.c_str());
      PrintUsage(stderr);
      return 1;
    }
  }
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "flare_top: port=N is required (1-65535)\n\n");
    PrintUsage(stderr);
    return 1;
  }
  if (interval_ms < 100) interval_ms = 100;

  for (;;) {
    TopSnapshot snap;
    std::string error;
    const bool ok = Poll(host, static_cast<std::uint16_t>(port), &snap,
                         &error);
    if (!ok && once) {
      std::fprintf(stderr, "flare_top: %s\n", error.c_str());
      return 1;
    }
    if (json) {
      std::printf("%s\n", RenderTopJson(snap).c_str());
    } else {
      // Clear + home between frames; a dead server shows as a sticky
      // "waiting" line rather than an exit (the run may not be up yet).
      if (!once) std::printf("\x1b[2J\x1b[H");
      if (ok) {
        std::fputs(RenderTopTable(snap).c_str(), stdout);
      } else {
        std::printf("flare_top: %s (retrying)\n", error.c_str());
      }
    }
    std::fflush(stdout);
    if (once) break;
    usleep(static_cast<useconds_t>(interval_ms) * 1000);
  }
  return 0;
}
