#include "obs/telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace turl {
namespace obs {

namespace {

bool Present(double v) { return !std::isnan(v); }

}  // namespace

std::string ToJsonLine(const TrainRecord& record) {
  std::ostringstream out;
  out << "{\"phase\":\"" << JsonEscape(record.phase)
      << "\",\"step\":" << record.step;
  if (record.epoch >= 0) out << ",\"epoch\":" << record.epoch;
  if (Present(record.loss)) out << ",\"loss\":" << JsonDouble(record.loss);
  if (Present(record.mlm_loss)) {
    out << ",\"mlm_loss\":" << JsonDouble(record.mlm_loss);
  }
  if (Present(record.mer_loss)) {
    out << ",\"mer_loss\":" << JsonDouble(record.mer_loss);
  }
  if (Present(record.eval_value)) {
    out << ",\"eval_metric\":\"" << JsonEscape(record.eval_metric)
        << "\",\"eval_value\":" << JsonDouble(record.eval_value);
  }
  if (Present(record.tables_per_sec)) {
    out << ",\"tables_per_sec\":" << JsonDouble(record.tables_per_sec);
  }
  // A NaN norm normally means "unmeasured", but on a warning record it is a
  // measured non-finite gradient — the whole point of the record — so it
  // must serialize rather than be dropped.
  if (Present(record.grad_norm) || !record.warning.empty()) {
    if (std::isfinite(record.grad_norm)) {
      out << ",\"grad_norm\":" << JsonDouble(record.grad_norm);
    } else {
      out << ",\"grad_norm\":\"" << (std::isnan(record.grad_norm)
                                         ? "nan"
                                         : (record.grad_norm > 0 ? "inf"
                                                                 : "-inf"))
          << '"';
    }
  }
  if (!record.warning.empty()) {
    out << ",\"warning\":\"" << JsonEscape(record.warning) << '"';
  }
  out << ",\"elapsed_sec\":" << JsonDouble(record.elapsed_sec) << '}';
  return out.str();
}

void StderrSink::Emit(const TrainRecord& record) {
  std::ostringstream out;
  char buf[64];
  out << '[' << record.phase << "] step " << record.step;
  if (record.epoch >= 0) out << " epoch " << record.epoch;
  if (Present(record.loss)) {
    std::snprintf(buf, sizeof(buf), " loss %.4f", record.loss);
    out << buf;
  }
  if (Present(record.mlm_loss) || Present(record.mer_loss)) {
    std::snprintf(buf, sizeof(buf), " (mlm %.4f / mer %.4f)",
                  Present(record.mlm_loss) ? record.mlm_loss : 0.0,
                  Present(record.mer_loss) ? record.mer_loss : 0.0);
    out << buf;
  }
  if (Present(record.eval_value)) {
    std::snprintf(buf, sizeof(buf), " %s %.4f", record.eval_metric.c_str(),
                  record.eval_value);
    out << buf;
  }
  if (Present(record.tables_per_sec)) {
    std::snprintf(buf, sizeof(buf), " %.1f tables/s", record.tables_per_sec);
    out << buf;
  }
  if (Present(record.grad_norm) || !record.warning.empty()) {
    std::snprintf(buf, sizeof(buf), " |g| %.3g", record.grad_norm);
    out << buf;
  }
  if (!record.warning.empty()) out << " WARNING: " << record.warning;
  std::snprintf(buf, sizeof(buf), " [%.1fs]", record.elapsed_sec);
  out << buf << '\n';
  std::fputs(out.str().c_str(), stderr);
}

JsonlSink::JsonlSink(const std::string& path)
    : out_(path, std::ios::app) {
  if (!out_.is_open()) {
    TURL_LOG(Error) << "JsonlSink: cannot open " << path;
  }
}

void JsonlSink::Emit(const TrainRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) return;
  // Flush per record: the hub's sinks are never destroyed (leaked
  // singleton), records are low-rate, and a tail -f on the log should see
  // every step as it happens.
  out_ << ToJsonLine(record) << std::endl;
}

void JsonlSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_.is_open()) out_.flush();
}

TelemetryHub::TelemetryHub() {
  if (const char* path = std::getenv("TURL_METRICS_JSONL")) {
    if (*path != '\0') AddOwnedSink(std::make_unique<JsonlSink>(path));
  }
  if (ReadEnvSwitch("TURL_METRICS_STDERR") == EnvSwitch::kOn) {
    AddOwnedSink(std::make_unique<StderrSink>());
  }
}

TelemetryHub& TelemetryHub::Get() {
  static TelemetryHub* hub = new TelemetryHub();
  return *hub;
}

void TelemetryHub::Emit(const TrainRecord& record) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetCounter(record.phase + ".records")->Inc();
  if (Present(record.loss)) {
    registry.GetGauge(record.phase + ".loss")->Set(record.loss);
  }
  if (Present(record.eval_value)) {
    registry.GetGauge(record.phase + "." + record.eval_metric)
        ->Set(record.eval_value);
  }
  if (Present(record.tables_per_sec)) {
    registry.GetGauge(record.phase + ".tables_per_sec")
        ->Set(record.tables_per_sec);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (MetricsSink* sink : sinks_) sink->Emit(record);
}

void TelemetryHub::AddSink(MetricsSink* sink) {
  TURL_CHECK(sink != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(sink);
}

void TelemetryHub::RemoveSink(MetricsSink* sink) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < sinks_.size(); ++i) {
    if (sinks_[i] == sink) {
      sinks_.erase(sinks_.begin() + long(i));
      return;
    }
  }
}

void TelemetryHub::AddOwnedSink(std::unique_ptr<MetricsSink> sink) {
  TURL_CHECK(sink != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(sink.get());
  owned_.push_back(std::move(sink));
}

void EmitRecord(const TrainRecord& record, MetricsSink* extra) {
  TelemetryHub::Get().Emit(record);
  if (extra != nullptr) extra->Emit(record);
}

void RecordTrainHealth(const std::string& phase, int64_t step, double loss,
                       double grad_norm, MetricsSink* extra,
                       double explode_threshold) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  registry.GetGauge("train.grad_norm")->Set(grad_norm);
  std::string warning;
  if (!std::isfinite(grad_norm)) {
    registry.GetCounter("obs.nonfinite_grads")->Inc();
    warning = "non-finite gradient norm";
  } else if (!std::isfinite(loss)) {
    registry.GetCounter("obs.nonfinite_grads")->Inc();
    warning = "non-finite loss";
  } else if (grad_norm > explode_threshold) {
    registry.GetCounter("obs.exploding_grads")->Inc();
    warning = "exploding gradient norm";
  }
  if (warning.empty()) return;
  TrainRecord record;
  record.phase = phase;
  record.step = step;
  if (std::isfinite(loss)) record.loss = loss;
  record.grad_norm = grad_norm;
  record.warning = std::move(warning);
  EmitRecord(record, extra);
}

FinetuneTelemetry::FinetuneTelemetry(std::string phase, MetricsSink* extra)
    : phase_(std::move(phase)), extra_(extra) {
  timer_.LapMillis();  // Start the first epoch's lap.
}

void FinetuneTelemetry::Step(double loss) {
  ++total_steps_;
  ++epoch_steps_;
  epoch_loss_ += loss;
  MetricsRegistry::Get().GetCounter(phase_ + ".steps")->Inc();
}

void FinetuneTelemetry::Step(double loss, double grad_norm) {
  Step(loss);
  RecordTrainHealth(phase_, total_steps_, loss, grad_norm, extra_);
}

void FinetuneTelemetry::EndEpoch(int epoch) {
  const double lap_sec = timer_.LapMillis() / 1e3;
  TrainRecord record;
  record.phase = phase_;
  record.step = total_steps_;
  record.epoch = epoch;
  if (epoch_steps_ > 0) record.loss = epoch_loss_ / double(epoch_steps_);
  if (lap_sec > 0) record.tables_per_sec = double(epoch_steps_) / lap_sec;
  record.elapsed_sec = timer_.ElapsedSeconds();
  EmitRecord(record, extra_);
  epoch_steps_ = 0;
  epoch_loss_ = 0.0;
}

void FinetuneTelemetry::Eval(const std::string& metric, double value) {
  TrainRecord record;
  record.phase = phase_;
  record.step = total_steps_;
  record.eval_metric = metric;
  record.eval_value = value;
  record.elapsed_sec = timer_.ElapsedSeconds();
  EmitRecord(record, extra_);
}

}  // namespace obs
}  // namespace turl
