#include "obs/server/handlers.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/server/process_stats.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace turl {
namespace obs {
namespace server {

size_t QueryParamSizeT(const HttpRequest& request, const char* key,
                       size_t fallback, size_t max_value) {
  const auto it = request.query.find(key);
  if (it == request.query.end()) return fallback;
  const long long v = std::atoll(it->second.c_str());
  if (v <= 0) return fallback;
  return std::min(static_cast<size_t>(v), max_value);
}

std::string QueryParamString(const HttpRequest& request, const char* key,
                             const std::string& fallback) {
  const auto it = request.query.find(key);
  return it == request.query.end() ? fallback : it->second;
}

namespace {

/// Positive query parameter with bounds; `fallback` when absent/garbage.
size_t QueryParam(const HttpRequest& request, const char* key, size_t fallback,
                  size_t max_value) {
  return QueryParamSizeT(request, key, fallback, max_value);
}

bool WantsJson(const HttpRequest& request) {
  const auto it = request.query.find("format");
  return it != request.query.end() && it->second == "json";
}

HttpResponse IndexHandler(const ObsServer* server) {
  std::ostringstream body;
  body << "turl observability plane\nendpoints:\n";
  for (const std::string& path : server->paths()) body << "  " << path << '\n';
  HttpResponse resp;
  resp.body = body.str();
  return resp;
}

HttpResponse MetricsHandler(const HttpRequest&) {
  UpdateProcessGauges();
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = MetricsRegistry::Get().ToPrometheusText();
  // SLI windows ride along after the registry exposition; their p99 series
  // carry exemplar trace ids resolvable on /tracez.
  resp.body += SliMetricsText();
  return resp;
}

HttpResponse HealthzHandler(const HttpRequest&) {
  const std::vector<HealthRegistry::Result> results =
      HealthRegistry::Get().RunAll();
  bool healthy = true;
  std::ostringstream body;
  for (const auto& r : results) {
    healthy = healthy && r.ok;
    body << "probe " << r.name << ": " << (r.ok ? "ok" : "FAIL");
    if (!r.detail.empty()) body << " (" << r.detail << ')';
    body << '\n';
  }
  HttpResponse resp;
  resp.status = healthy ? 200 : 503;
  resp.body = (healthy ? "status: ok\n" : "status: unhealthy\n") + body.str();
  return resp;
}

HttpResponse VarzHandler(const HttpRequest&) {
  UpdateProcessGauges();
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = MetricsRegistry::Get().ToJson();
  resp.body += '\n';
  return resp;
}

HttpResponse TracezHandler(const HttpRequest& request) {
  HttpResponse resp;
  if (WantsJson(request)) {
    // Chrome-trace slice of the most recent spans, loadable in Perfetto.
    const size_t limit = QueryParam(request, "limit", 256, 16384);
    resp.content_type = "application/json";
    resp.body = ChromeTraceJson(limit);
    resp.body += '\n';
    return resp;
  }
  const size_t slow = QueryParam(request, "slow", 10, 1000);
  Tracer& tracer = Tracer::Get();
  std::ostringstream body;
  body << "tracing: " << (Tracer::Enabled() ? "enabled" : "disabled")
       << "  (events retained " << tracer.collector().Snapshot().size()
       << ", dropped " << tracer.collector().dropped() << ")\n\n"
       << SlowTraceReport(slow)
       << "\n(?slow=N for more rows; ?format=json&limit=N for a Chrome-trace "
          "slice)\n";
  resp.body = body.str();
  return resp;
}

HttpResponse ProfilezHandler(const HttpRequest& request) {
  HttpResponse resp;
  if (WantsJson(request)) {
    resp.content_type = "application/json";
    resp.body = "{\"spans\":" + Profiler::Get().ReportJson() + "}\n";
    return resp;
  }
  std::ostringstream body;
  body << "profiling: " << (Profiler::Enabled() ? "enabled" : "disabled")
       << "\n\n"
       << Profiler::Get().ReportTable();
  resp.body = body.str();
  return resp;
}

std::string SnapshotJson(const SliSnapshot& s) {
  std::ostringstream out;
  out << "{\"window_s\":" << s.horizon_s << ",\"n\":" << s.total
      << ",\"ok\":" << s.ok << ",\"shed\":" << s.shed
      << ",\"deadline_miss\":" << s.deadline_miss << ",\"error\":" << s.error
      << ",\"availability\":" << JsonDouble(s.availability)
      << ",\"shed_rate\":" << JsonDouble(s.shed_rate)
      << ",\"deadline_miss_rate\":" << JsonDouble(s.deadline_miss_rate)
      << ",\"mean_ms\":" << JsonDouble(s.mean_ms)
      << ",\"p50_ms\":" << JsonDouble(s.p50_ms)
      << ",\"p90_ms\":" << JsonDouble(s.p90_ms)
      << ",\"p99_ms\":" << JsonDouble(s.p99_ms)
      << ",\"max_ms\":" << JsonDouble(s.max_ms) << ",\"exemplar_trace\":\""
      << s.exemplar_trace_id << "\",\"exemplar_ms\":"
      << JsonDouble(s.exemplar_ms) << "}";
  return out.str();
}

HttpResponse StatuszHandler(const HttpRequest& request) {
  SliEngine& engine = SliEngine::Get();
  SloWatchdog::Get().Tick();  // An idle server lists no recovered burn.
  const std::vector<SloWatchdog::Burn> burns =
      SloWatchdog::Get().ActiveBurns();
  HttpResponse resp;
  if (WantsJson(request)) {
    std::ostringstream body;
    body << "{\"enabled\":" << (SliEngine::Enabled() ? "true" : "false")
         << ",\"burns\":[";
    for (size_t i = 0; i < burns.size(); ++i) {
      if (i > 0) body << ',';
      body << "{\"name\":\"" << JsonEscape(burns[i].name) << "\",\"reason\":\""
           << JsonEscape(burns[i].reason) << "\",\"since_s\":"
           << burns[i].since_s << "}";
    }
    body << "],\"streams\":[";
    bool first_stream = true;
    for (const char* stream : engine.streams()) {
      std::vector<SliSnapshot> windows;
      for (int horizon : SliEngine::kHorizonsS) {
        windows.push_back(engine.Snapshot(stream, horizon));
      }
      if (windows.back().total == 0 &&
          std::strcmp(stream, SliEngine::kAllStream) != 0) {
        continue;  // Nothing retained anywhere in the widest window.
      }
      if (!first_stream) body << ',';
      first_stream = false;
      body << "{\"stream\":\"" << JsonEscape(stream) << "\",\"windows\":[";
      for (size_t i = 0; i < windows.size(); ++i) {
        if (i > 0) body << ',';
        body << SnapshotJson(windows[i]);
      }
      body << "]}";
    }
    body << "]}\n";
    resp.content_type = "application/json";
    resp.body = body.str();
    return resp;
  }

  std::ostringstream body;
  body << "slo status: SLIs " << (SliEngine::Enabled() ? "enabled" : "disabled")
       << "  (1s buckets, " << SliEngine::kWindowS << "s ring)\n\n";
  if (burns.empty()) {
    body << "active burns: none\n";
  } else {
    body << "active burns:\n";
    for (const auto& burn : burns) {
      body << "  " << burn.name << ": " << burn.reason << " (since engine second "
           << burn.since_s << ")\n";
    }
  }
  body << '\n'
       << std::left << std::setw(20) << "stream" << std::right << std::setw(7)
       << "window" << std::setw(8) << "n" << std::setw(8) << "avail"
       << std::setw(8) << "shed" << std::setw(8) << "miss" << std::setw(10)
       << "p50ms" << std::setw(10) << "p90ms" << std::setw(10) << "p99ms"
       << std::setw(10) << "maxms" << "  exemplar\n";
  const char* window_names[] = {"10s", "1m", "5m"};
  for (const char* stream : engine.streams()) {
    bool any = false;
    std::vector<SliSnapshot> windows;
    for (int horizon : SliEngine::kHorizonsS) {
      windows.push_back(engine.Snapshot(stream, horizon));
      any = any || windows.back().total > 0;
    }
    if (!any && std::strcmp(stream, SliEngine::kAllStream) != 0) continue;
    for (size_t i = 0; i < windows.size(); ++i) {
      const SliSnapshot& s = windows[i];
      body << std::left << std::setw(20) << stream << std::right
           << std::setw(7) << window_names[i] << std::setw(8) << s.total
           << std::setw(8) << std::fixed << std::setprecision(3)
           << s.availability << std::setw(8) << s.shed_rate << std::setw(8)
           << s.deadline_miss_rate << std::setw(10) << std::setprecision(2)
           << s.p50_ms << std::setw(10) << s.p90_ms << std::setw(10)
           << s.p99_ms << std::setw(10) << s.max_ms;
      if (s.exemplar_trace_id != 0) {
        body << "  " << s.exemplar_trace_id << " ("
             << std::setprecision(2) << s.exemplar_ms << "ms)";
      }
      body << '\n';
    }
  }
  body << "\n(?format=json for the machine form; /requestz for per-request "
          "wide events; /tracez resolves exemplar trace ids)\n";
  resp.body = body.str();
  return resp;
}

HttpResponse RequestzHandler(const HttpRequest& request) {
  const size_t limit = QueryParam(request, "limit", 100, 5000);
  const std::string status = QueryParamString(request, "status");
  const std::string task = QueryParamString(request, "task");
  const std::string origin = QueryParamString(request, "origin");

  // Snapshot everything retained, filter, then keep the newest `limit`.
  std::vector<WideEvent> events = EventLog::Get().Snapshot();
  events.erase(
      std::remove_if(events.begin(), events.end(),
                     [&](const WideEvent& e) {
                       const auto mismatch = [](const std::string& want,
                                                const char* got) {
                         return !want.empty() &&
                                want != (got == nullptr ? "" : got);
                       };
                       return mismatch(status, e.status) ||
                              mismatch(task, e.task) ||
                              mismatch(origin, e.origin);
                     }),
      events.end());
  if (events.size() > limit) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(limit));
  }
  // Newest first: the question is always "what just happened".
  std::reverse(events.begin(), events.end());

  HttpResponse resp;
  if (WantsJson(request)) {
    std::ostringstream body;
    body << "{\"dropped\":" << EventLog::Get().dropped() << ",\"events\":[";
    for (size_t i = 0; i < events.size(); ++i) {
      if (i > 0) body << ',';
      body << ToJsonLine(events[i]);
    }
    body << "]}\n";
    resp.content_type = "application/json";
    resp.body = body.str();
    return resp;
  }

  std::ostringstream body;
  body << "wide events: log "
       << (EventLog::Enabled() ? "enabled" : "disabled") << "  (showing "
       << events.size() << ", dropped " << EventLog::Get().dropped()
       << ")\n\n"
       << std::right << std::setw(8) << "id" << std::setw(7) << "origin"
       << std::setw(20) << "task" << std::setw(19) << "status" << std::setw(4)
       << "rep" << std::setw(10) << "total_ms" << std::setw(10) << "queue_ms"
       << std::setw(10) << "enc_ms" << std::setw(6) << "batch" << std::setw(9)
       << "bytes_in" << std::setw(10) << "bytes_out" << std::setw(8)
       << "ddl_ms" << "  trace\n";
  for (const WideEvent& e : events) {
    body << std::setw(8) << e.request_id << std::setw(7)
         << (e.origin ? e.origin : "?") << std::setw(20)
         << (e.task ? e.task : "?") << std::setw(19)
         << (e.status ? e.status : "?") << std::setw(4) << e.replica
         << std::fixed << std::setprecision(2) << std::setw(10)
         << e.total_us / 1000.0 << std::setw(10) << e.queue_wait_us / 1000.0
         << std::setw(10) << e.encode_us / 1000.0 << std::setw(6)
         << e.batch_size << std::setw(9) << e.bytes_in << std::setw(10)
         << e.bytes_out << std::setw(8) << std::setprecision(0)
         << e.deadline_budget_ms << "  ";
    if (e.trace_id != 0) body << e.trace_id;
    body << '\n';
  }
  body << "\n(?limit=N&status=...&task=...&origin=... to filter; "
          "?format=json for records)\n";
  resp.body = body.str();
  return resp;
}

}  // namespace

void RegisterStandardHandlers(ObsServer* server) {
  server->Handle("/metrics", MetricsHandler);
  server->Handle("/healthz", HealthzHandler);
  server->Handle("/varz", VarzHandler);
  server->Handle("/tracez", TracezHandler);
  server->Handle("/profilez", ProfilezHandler);
  server->Handle("/statusz", StatuszHandler);
  server->Handle("/requestz", RequestzHandler);
  server->Handle("/",
                 [server](const HttpRequest&) { return IndexHandler(server); });
}

HealthRegistry& HealthRegistry::Get() {
  static HealthRegistry* registry = new HealthRegistry();
  return *registry;
}

int HealthRegistry::Add(std::string name, ProbeFn probe) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = next_id_++;
  probes_.emplace(id, std::make_pair(std::move(name), std::move(probe)));
  return id;
}

void HealthRegistry::Remove(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  probes_.erase(id);
}

std::vector<HealthRegistry::Result> HealthRegistry::RunAll() const {
  // Snapshot under the lock, probe outside it: a probe must be free to touch
  // the registry of metrics (or anything else) without deadlocking us.
  std::vector<std::pair<std::string, ProbeFn>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(probes_.size());
    for (const auto& [id, entry] : probes_) snapshot.push_back(entry);
  }
  std::vector<Result> results;
  results.reserve(snapshot.size() + 1);
  // Liveness: answering at all means the process is live.
  results.push_back(Result{"live", true, ""});
  for (const auto& [name, probe] : snapshot) {
    Result r;
    r.name = name;
    r.ok = probe(&r.detail);
    results.push_back(std::move(r));
  }
  return results;
}

size_t HealthRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probes_.size();
}

namespace {
ObsServer* g_env_server = nullptr;
}  // namespace

ObsServer* StartFromEnv() {
  static ObsServer* const server = []() -> ObsServer* {
    // Unset, empty or not a port: the server stays off.
    const int port = EnvInt("TURL_OBS_PORT", -1, 0, 65535);
    if (port < 0) return nullptr;
    ObsServer::Options options;
    options.port = port;
    auto* s = new ObsServer(options);
    RegisterStandardHandlers(s);
    const Status status = s->Start();
    if (!status.ok()) {
      TURL_LOG(Warning) << "observability server failed to start: "
                        << status.ToString();
      delete s;
      return nullptr;
    }
    g_env_server = s;
    // Drain cleanly at exit so in-flight scrapes finish and sanitizers see
    // no live sockets/threads.
    std::atexit(+[] {
      if (g_env_server != nullptr) g_env_server->Stop();
    });
    TURL_LOG(Info) << "observability server listening on " << s->base_url();
    return s;
  }();
  return server;
}

}  // namespace server
}  // namespace obs
}  // namespace turl
