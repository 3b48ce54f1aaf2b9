// Tracer tests: ring overflow semantics (oldest dropped first), seeded
// sampling determinism, span parent/child integrity when requests fan out
// across pool workers, result invariance with tracing on, and the Chrome
// trace JSON export validated by a minimal JSON parser.

#include "obs/trace.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "core/model.h"
#include "core/table_encoding.h"
#include "gtest/gtest.h"
#include "obs/profiler.h"
#include "rt/bulk.h"
#include "rt/inference_session.h"

namespace turl {
namespace obs {
namespace {

const core::TurlContext& Ctx() {
  static core::TurlContext* ctx = [] {
    core::ContextConfig config;
    config.corpus.num_tables = 150;
    config.seed = 42;
    return new core::TurlContext(core::BuildContext(config));
  }();
  return *ctx;
}

core::TurlConfig SmallConfig() {
  core::TurlConfig config;
  config.num_layers = 1;
  config.d_model = 32;
  config.d_intermediate = 64;
  config.num_heads = 2;
  return config;
}

const core::TurlModel& Model() {
  static core::TurlModel* model = new core::TurlModel(
      SmallConfig(), Ctx().vocab.size(), Ctx().entity_vocab.size(),
      /*seed=*/11);
  return *model;
}

const std::vector<core::EncodedTable>& Tables() {
  static std::vector<core::EncodedTable>* tables = [] {
    auto* out = new std::vector<core::EncodedTable>;
    const text::WordPieceTokenizer tokenizer = Ctx().MakeTokenizer();
    for (size_t idx : Ctx().corpus.valid) {
      core::EncodedTable t = core::EncodeTable(
          Ctx().corpus.tables[idx], tokenizer, Ctx().entity_vocab);
      if (t.total() > 0) out->push_back(std::move(t));
      if (out->size() >= 8) break;
    }
    return out;
  }();
  return *tables;
}

/// Enables tracing with keep-everything sampling and a clean collector for
/// the test body; restores disabled tracing on scope exit.
class TracingOn {
 public:
  TracingOn() {
    Tracer::SetEnabled(true);
    Tracer::Get().SetSampler(/*period=*/1, /*seed=*/0);
    Tracer::Get().collector().Reset();
  }
  ~TracingOn() { Tracer::SetEnabled(false); }
};

TEST(TraceRingTest, OverflowDropsOldestFirst) {
  TraceRing ring(/*capacity=*/8, /*tid=*/0);
  for (uint64_t i = 0; i < 20; ++i) {
    TraceEvent e;
    e.name = "e";
    e.trace_id = 1;
    e.span_id = i + 1;
    ring.Push(e);
  }
  std::vector<TraceEvent> out;
  ring.Snapshot(&out);
  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].span_id, 20 - 8 + i + 1) << "retain the newest, in order";
  }
  EXPECT_EQ(ring.dropped(), 12u);
}

TEST(TracerTest, SeededSamplingIsDeterministic) {
  TracingOn tracing;
  Tracer& tracer = Tracer::Get();

  const auto draw = [&](uint64_t period, uint64_t seed) {
    tracer.SetSampler(period, seed);
    std::vector<bool> kept;
    for (int i = 0; i < 256; ++i) kept.push_back(tracer.StartTrace().traced());
    return kept;
  };
  const std::vector<bool> first = draw(4, 1234);
  const std::vector<bool> second = draw(4, 1234);
  EXPECT_EQ(first, second) << "same (seed, seq) must replay the same set";

  int kept = 0;
  for (bool b : first) kept += b;
  EXPECT_GT(kept, 0) << "a 1/4 sampler keeps some of 256 traces";
  EXPECT_LT(kept, 256) << "a 1/4 sampler drops some of 256 traces";

  EXPECT_NE(first, draw(4, 99)) << "the sampled set must depend on the seed";
  tracer.SetSampler(1, 0);
}

TEST(TracerTest, DisabledSpansAreUntracedAndRecordNothing) {
  Tracer::SetEnabled(false);
  const size_t before = Tracer::Get().collector().Snapshot().size();
  {
    TraceSpan root(kNewTrace, "off.request");
    EXPECT_FALSE(root.traced());
    TURL_TRACE_SCOPE("off.child");
    EXPECT_FALSE(CurrentTraceContext().traced());
  }
  EXPECT_EQ(Tracer::Get().collector().Snapshot().size(), before);
}

TEST(TracerTest, ParseSamplePeriodForms) {
  EXPECT_EQ(ParseSamplePeriod(nullptr), 1u);
  EXPECT_EQ(ParseSamplePeriod(""), 1u);
  EXPECT_EQ(ParseSamplePeriod("1/16"), 16u);
  EXPECT_EQ(ParseSamplePeriod("8"), 8u);
  EXPECT_EQ(ParseSamplePeriod("0"), 1u);
  EXPECT_EQ(ParseSamplePeriod("junk"), 1u);
  // Malformed or out-of-range values keep every trace.
  EXPECT_EQ(ParseSamplePeriod("16k"), 1u);
  EXPECT_EQ(ParseSamplePeriod("3/16"), 1u);
  EXPECT_EQ(ParseSamplePeriod("1/99999999999999999999"), 1u);
  EXPECT_EQ(ParseSamplePeriod("0x10"), 1u);
}

TEST(TracerTest, ParentChildIntegrityAcrossWorkers) {
  TracingOn tracing;
  rt::InferenceSession session(Model(), rt::SessionOptions{.num_threads = 4});
  const auto& tables = Tables();
  const size_t n = 12;
  rt::BulkRun<int>(
      session, n,
      [&](size_t i) { return tables[i % tables.size()]; },
      [&](size_t, const core::EncodedTable&, const nn::Tensor& h) {
        return static_cast<int>(h.numel());
      });

  const std::vector<TraceEvent> events =
      Tracer::Get().collector().Snapshot();
  std::map<uint64_t, std::vector<TraceEvent>> by_trace;
  for (const TraceEvent& e : events) by_trace[e.trace_id].push_back(e);
  EXPECT_EQ(by_trace.size(), n) << "one trace per BulkRun instance";

  for (const auto& [trace_id, trace_events] : by_trace) {
    std::set<uint64_t> ids;
    for (const TraceEvent& e : trace_events) ids.insert(e.span_id);
    std::set<std::string> names;
    int roots = 0;
    for (const TraceEvent& e : trace_events) {
      names.insert(e.name);
      if (e.parent_id == 0) {
        ++roots;
        EXPECT_STREQ(e.name, "rt.request");
      } else {
        EXPECT_TRUE(ids.count(e.parent_id))
            << e.name << " parents a span missing from trace " << trace_id;
      }
    }
    EXPECT_EQ(roots, 1) << "exactly one root per trace";
    for (const char* want :
         {"task.encode_input", "rt.queue_wait", "rt.batch_assembly",
          "rt.encode"}) {
      EXPECT_TRUE(names.count(want))
          << "trace " << trace_id << " is missing stage " << want;
    }
  }
}

TEST(TracerTest, TracingDoesNotPerturbResults) {
  const core::EncodedTable& table = Tables()[0];
  rt::InferenceSession session(Model(), rt::SessionOptions{.num_threads = 1});
  const std::vector<float> off = session.Encode(table).ToVector();
  std::vector<float> on;
  {
    TracingOn tracing;
    TraceSpan root(kNewTrace, "rt.request");
    on = session.Encode(table).ToVector();
  }
  EXPECT_EQ(off, on) << "tracing must be bit-invisible to the forward";
}

/// Minimal recursive-descent JSON syntax checker — enough to prove the
/// Chrome export is well-formed without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text)
      : p_(text.c_str()), end_(text.c_str() + text.size()) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return p_ == end_;
  }

 private:
  void SkipWs() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r')) {
      ++p_;
    }
  }
  bool Literal(const char* s) {
    const size_t len = std::strlen(s);
    if (size_t(end_ - p_) < len || std::strncmp(p_, s, len) != 0) return false;
    p_ += len;
    return true;
  }
  bool String() {
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return false;
      }
      ++p_;
    }
    if (p_ >= end_) return false;
    ++p_;  // Closing quote.
    return true;
  }
  bool Number() {
    const char* start = p_;
    if (p_ < end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    while (p_ < end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                         *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                         *p_ == '+')) {
      ++p_;
    }
    return p_ > start;
  }
  bool Value() {
    SkipWs();
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{': {
        ++p_;
        SkipWs();
        if (p_ < end_ && *p_ == '}') return ++p_, true;
        while (true) {
          SkipWs();
          if (!String()) return false;
          SkipWs();
          if (p_ >= end_ || *p_ != ':') return false;
          ++p_;
          if (!Value()) return false;
          SkipWs();
          if (p_ < end_ && *p_ == ',') {
            ++p_;
            continue;
          }
          break;
        }
        if (p_ >= end_ || *p_ != '}') return false;
        ++p_;
        return true;
      }
      case '[': {
        ++p_;
        SkipWs();
        if (p_ < end_ && *p_ == ']') return ++p_, true;
        while (true) {
          if (!Value()) return false;
          SkipWs();
          if (p_ < end_ && *p_ == ',') {
            ++p_;
            continue;
          }
          break;
        }
        if (p_ >= end_ || *p_ != ']') return false;
        ++p_;
        return true;
      }
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const char* p_;
  const char* end_;
};

TEST(TraceExportTest, ChromeJsonIsWellFormed) {
  TracingOn tracing;
  {
    TraceSpan root(kNewTrace, "export.request");
    root.Annotate("head", "cell_filling");
    root.Annotate("batch", int64_t(17));
    TURL_TRACE_SCOPE("export.stage");
  }
  const std::string json = ChromeTraceJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("export.request"), std::string::npos);
  EXPECT_NE(json.find("export.stage"), std::string::npos);
  EXPECT_NE(json.find("cell_filling"), std::string::npos);

  const std::string report = SlowTraceReport(3);
  EXPECT_NE(report.find("export.request"), std::string::npos) << report;
  EXPECT_NE(report.find("export.stage"), std::string::npos) << report;
}

// Records a complete trace after the fact: a root span (parent 0) of
// `total_us` microseconds under trace id `id`, with one child stage
// covering the first half.
void RecordTrace(uint64_t id, const char* root_name, int64_t total_us) {
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::microseconds(total_us);
  Tracer& tracer = Tracer::Get();
  tracer.RecordManual(root_name, TraceContext{id, 0}, start, end);
  // Children parent under the root's span id; any nonzero span id works for
  // the report, which only distinguishes parent==0 from parent!=0.
  tracer.RecordManual("stage.encode", TraceContext{id, 1}, start,
                      start + std::chrono::microseconds(total_us / 2));
}

TEST(SlowTraceReportTest, EmptyRingReportsZeroTraces) {
  TracingOn tracing;
  const std::string report = SlowTraceReport(10);
  EXPECT_NE(report.find("slowest 0 of 0 traced requests"), std::string::npos)
      << report;
  // Header only: the column line follows, then nothing.
  EXPECT_EQ(report.find("stage.encode"), std::string::npos);
}

TEST(SlowTraceReportTest, SingleSpanReport) {
  TracingOn tracing;
  RecordTrace(/*id=*/7, "single.request", /*total_us=*/5000);
  const std::string report = SlowTraceReport(10);
  EXPECT_NE(report.find("slowest 1 of 1 traced requests"), std::string::npos)
      << report;
  EXPECT_NE(report.find("single.request"), std::string::npos);
  // 5000us root, 2500us child: both rendered in ms.
  EXPECT_NE(report.find("5.000"), std::string::npos) << report;
  EXPECT_NE(report.find("stage.encode 2.500"), std::string::npos) << report;
}

TEST(SlowTraceReportTest, TruncatesToSlowestN) {
  TracingOn tracing;
  // 15 traces with distinct durations 1ms..15ms; a 10-row report must keep
  // the slowest ten (6ms..15ms) and drop the fastest five.
  for (uint64_t i = 1; i <= 15; ++i) {
    RecordTrace(i, "ranked.request", int64_t(i) * 1000);
  }
  const std::string report = SlowTraceReport(10);
  EXPECT_NE(report.find("slowest 10 of 15 traced requests"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("15.000"), std::string::npos) << report;  // Slowest.
  // Rows are keyed by trace id in the first column: ids 6..15 survive, ids
  // 1..5 (the fastest) are truncated away.
  for (uint64_t id = 6; id <= 15; ++id) {
    EXPECT_NE(report.find("\n" + std::to_string(id) + " "), std::string::npos)
        << "missing trace " << id << "\n" << report;
  }
  for (uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(report.find("\n" + std::to_string(id) + " "), std::string::npos)
        << "trace " << id << " should be truncated\n" << report;
  }
}

TEST(SlowTraceReportTest, ChildStagesSumByName) {
  TracingOn tracing;
  const auto start = std::chrono::steady_clock::now();
  Tracer& tracer = Tracer::Get();
  tracer.RecordManual("summed.request", TraceContext{21, 0}, start,
                      start + std::chrono::microseconds(9000));
  // Two spans of the same stage name under one trace fold into one summed
  // column; a differently named stage stays separate.
  tracer.RecordManual("stage.a", TraceContext{21, 1}, start,
                      start + std::chrono::microseconds(1000));
  tracer.RecordManual("stage.a", TraceContext{21, 1}, start,
                      start + std::chrono::microseconds(2000));
  tracer.RecordManual("stage.b", TraceContext{21, 1}, start,
                      start + std::chrono::microseconds(4000));
  const std::string report = SlowTraceReport(10);
  EXPECT_NE(report.find("stage.a 3.000"), std::string::npos) << report;
  EXPECT_NE(report.find("stage.b 4.000"), std::string::npos) << report;
}

TEST(SlowTraceReportTest, NestedSpansGetNoColumn) {
  TracingOn tracing;
  {
    TraceSpan root(kNewTrace, "nested.request");
    TraceSpan stage("nested.stage");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    TURL_TRACE_SCOPE("nested.op");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  double stage_ms = 0.0;
  for (const TraceEvent& e : Tracer::Get().collector().Snapshot()) {
    if (std::strcmp(e.name, "nested.stage") == 0) stage_ms = e.dur_us / 1e3;
  }
  ASSERT_GT(stage_ms, 0.0);
  const std::string report = SlowTraceReport(10);
  char want[64];
  std::snprintf(want, sizeof(want), "nested.stage %.3f", stage_ms);
  EXPECT_NE(report.find(want), std::string::npos)
      << "the stage column carries the stage's own duration\n" << report;
  EXPECT_EQ(report.find("nested.op"), std::string::npos)
      << "a span under a stage is inside the stage's time\n" << report;
}

const SpanStats* FindSpan(const std::vector<SpanStats>& report,
                          const char* name) {
  for (const SpanStats& s : report) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// One span, two sinks: each case starts with both sinks off and a clean
/// profile and trace ring, and turns both off again at the end.
class SpanSinksTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(); }
  void TearDown() override { Reset(); }

  static void Reset() {
    Profiler::SetEnabled(false);
    Tracer::SetEnabled(false);
    Profiler::Get().Reset();
    Tracer::Get().SetSampler(/*period=*/1, /*seed=*/0);
    Tracer::Get().collector().Reset();
  }
  static size_t RingEvents() {
    return Tracer::Get().collector().Snapshot().size();
  }
};

TEST_F(SpanSinksTest, ProfilerOnlyAggregatesAndLeavesRingUnchanged) {
  Profiler::SetEnabled(true);
  const size_t before = RingEvents();
  {
    TURL_TRACE_SCOPE("sinks.profile_only");
  }
  const std::vector<SpanStats> report = Profiler::Get().Report();
  const SpanStats* s = FindSpan(report, "sinks.profile_only");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1);
  EXPECT_EQ(RingEvents(), before);
}

TEST_F(SpanSinksTest, TracerOnlyRecordsUnderParentAndSkipsProfiler) {
  Tracer::SetEnabled(true);
  uint64_t root_id = 0;
  {
    TraceSpan root(kNewTrace, "sinks.root");
    ASSERT_TRUE(root.traced());
    root_id = root.context().span_id;
    TURL_TRACE_SCOPE("sinks.trace_only");
  }
  const std::vector<TraceEvent> events = Tracer::Get().collector().Snapshot();
  const TraceEvent* child = nullptr;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.name, "sinks.trace_only") == 0) child = &e;
  }
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->parent_id, root_id);
  EXPECT_TRUE(Profiler::Get().Report().empty());
}

TEST_F(SpanSinksTest, BothSinksTakeTheSpanAndSplitSelfTime) {
  Profiler::SetEnabled(true);
  Tracer::SetEnabled(true);
  {
    TraceSpan parent(kNewTrace, "sinks.parent");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      TURL_TRACE_SCOPE("sinks.child");
      std::this_thread::sleep_for(std::chrono::milliseconds(4));
    }
  }
  std::set<std::string> traced;
  for (const TraceEvent& e : Tracer::Get().collector().Snapshot()) {
    traced.insert(e.name);
  }
  EXPECT_TRUE(traced.count("sinks.parent"));
  EXPECT_TRUE(traced.count("sinks.child"));

  // The same split ProfilerTest.NestedSpansSplitSelfFromChildTime expects.
  const std::vector<SpanStats> report = Profiler::Get().Report();
  const SpanStats* parent = FindSpan(report, "sinks.parent");
  const SpanStats* child = FindSpan(report, "sinks.child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_GE(parent->total_ms, child->total_ms);
  EXPECT_GE(child->total_ms, 4.0);
  EXPECT_LE(parent->self_ms, parent->total_ms - child->total_ms + 1.0);
  EXPECT_GE(parent->self_ms, 2.0);
}

TEST_F(SpanSinksTest, NewTraceSpanWithOnlyProfilingStillAggregates) {
  Profiler::SetEnabled(true);
  {
    TraceSpan root(kNewTrace, "sinks.step");
    EXPECT_FALSE(root.traced());
  }
  const std::vector<SpanStats> report = Profiler::Get().Report();
  const SpanStats* s = FindSpan(report, "sinks.step");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1);
}

TEST_F(SpanSinksTest, SpanClosesInTheTraceSinkAfterTracingIsDisabled) {
  Tracer::SetEnabled(true);
  {
    TraceSpan root(kNewTrace, "sinks.straddle");
    Tracer::SetEnabled(false);
  }
  EXPECT_EQ(RingEvents(), 1u);
  EXPECT_FALSE(CurrentTraceContext().traced()) << "context restored on close";
}

TEST(RingCapacityTest, KnobOutsideTwoToOneMebiKeepsTheDefault) {
  constexpr char kKnob[] = "TURL_TRACE_TEST_RING_CAPACITY";
  const auto read = [&](const char* value) {
    ::setenv(kKnob, value, 1);
    const size_t capacity = RingCapacityFromEnv(kKnob, 16384);
    ::unsetenv(kKnob);
    return capacity;
  };
  EXPECT_EQ(RingCapacityFromEnv(kKnob, 16384), 16384u);  // Unset.
  EXPECT_EQ(read("1e6"), 16384u) << "not a whole number";
  EXPECT_EQ(read("16k"), 16384u) << "not a whole number";
  EXPECT_EQ(read("99999999999"), 16384u) << "above 1048576";
  EXPECT_EQ(read("1"), 16384u) << "below the two-slot minimum";
  EXPECT_EQ(read("65536"), 65536u);
  EXPECT_EQ(read("1048576"), 1048576u);
}

}  // namespace
}  // namespace obs
}  // namespace turl
