#include "obs/eventlog.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace turl {
namespace obs {

namespace {

/// TURL_EVENTLOG=0 pins the log off even against SetEnabled(true).
const bool g_pinned_off = ReadEnvSwitch("TURL_EVENTLOG") == EnvSwitch::kOff;

}  // namespace

std::string ToJsonLine(const WideEvent& event) {
  std::ostringstream out;
  out << "{\"origin\":\"" << JsonEscape(event.origin ? event.origin : "")
      << "\",\"task\":\"" << JsonEscape(event.task ? event.task : "")
      << "\",\"status\":\"" << JsonEscape(event.status ? event.status : "")
      << "\",\"id\":" << event.request_id << ",\"trace\":\"" << event.trace_id
      << "\",\"replica\":" << event.replica << ",\"end_ms\":"
      << JsonDouble(event.end_ms) << ",\"total_us\":"
      << JsonDouble(event.total_us) << ",\"queue_wait_us\":"
      << JsonDouble(event.queue_wait_us) << ",\"assembly_us\":"
      << JsonDouble(event.assembly_us) << ",\"encode_us\":"
      << JsonDouble(event.encode_us) << ",\"score_us\":"
      << JsonDouble(event.score_us) << ",\"reply_us\":"
      << JsonDouble(event.reply_us) << ",\"batch_size\":" << event.batch_size
      << ",\"bytes_in\":" << event.bytes_in << ",\"bytes_out\":"
      << event.bytes_out << ",\"deadline_budget_ms\":"
      << JsonDouble(event.deadline_budget_ms) << "}";
  return out.str();
}

std::atomic<bool> EventLog::enabled_{!g_pinned_off};

EventLog::EventLog() : rings_("TURL_EVENTLOG_BUFFER", 1024) {
  if (const char* path = std::getenv("TURL_EVENTLOG_JSONL")) {
    if (*path != '\0') {
      static std::string* exit_path = new std::string(path);
      std::atexit(+[] {
        if (!EventLog::Get().WriteJsonl(*exit_path)) {
          TURL_LOG(Warning) << "failed to write wide-event log to "
                            << *exit_path;
        }
      });
    }
  }
}

EventLog& EventLog::Get() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::SetEnabled(bool on) {
  if (g_pinned_off) return;
  enabled_.store(on, std::memory_order_relaxed);
}

void EventLog::Append(const WideEvent& event) {
  if (!Enabled()) return;
  rings_.ring()->Push(event);
}

std::vector<WideEvent> EventLog::Snapshot(size_t last_n) const {
  std::vector<WideEvent> out = rings_.Snapshot();
  if (last_n > 0 && out.size() > last_n) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(last_n));
  }
  return out;
}

uint64_t EventLog::dropped() const { return rings_.dropped(); }

void EventLog::Reset() { rings_.Reset(); }

std::string EventLog::ToJsonl(size_t last_n) const {
  std::ostringstream out;
  for (const WideEvent& event : Snapshot(last_n)) {
    out << ToJsonLine(event) << '\n';
  }
  return out.str();
}

bool EventLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << ToJsonl();
  return out.good();
}

}  // namespace obs
}  // namespace turl
