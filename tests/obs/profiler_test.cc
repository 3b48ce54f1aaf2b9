#include "obs/profiler.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace turl {
namespace obs {
namespace {

void Sleep(double ms) {
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000)));
}

const SpanStats* Find(const std::vector<SpanStats>& report,
                      const std::string& name) {
  for (const SpanStats& s : report) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// Each test starts from a clean, enabled profiler and leaves it disabled.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler::Get().Reset();
    Profiler::SetEnabled(true);
  }
  void TearDown() override {
    Profiler::SetEnabled(false);
    Profiler::Get().Reset();
  }
};

TEST_F(ProfilerTest, AggregatesByName) {
  for (int i = 0; i < 3; ++i) {
    TURL_TRACE_SCOPE("test.leaf");
    Sleep(1.0);
  }
  auto report = Profiler::Get().Report();
  const SpanStats* leaf = Find(report, "test.leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->count, 3);
  EXPECT_GE(leaf->total_ms, 3.0);
  EXPECT_GT(leaf->max_ms, 0.0);
  EXPECT_LE(leaf->p50_ms, leaf->p95_ms);
  // A leaf has no children: all its time is self time.
  EXPECT_NEAR(leaf->self_ms, leaf->total_ms, 1e-9);
}

TEST_F(ProfilerTest, NestedSpansSplitSelfFromChildTime) {
  {
    TURL_TRACE_SCOPE("test.parent");
    Sleep(2.0);
    {
      TURL_TRACE_SCOPE("test.child");
      Sleep(4.0);
    }
  }
  auto report = Profiler::Get().Report();
  const SpanStats* parent = Find(report, "test.parent");
  const SpanStats* child = Find(report, "test.child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  // Parent total covers the child; parent self excludes it.
  EXPECT_GE(parent->total_ms, child->total_ms);
  EXPECT_GE(child->total_ms, 4.0);
  EXPECT_LE(parent->self_ms, parent->total_ms - child->total_ms + 1.0);
  EXPECT_GE(parent->self_ms, 2.0);
}

TEST_F(ProfilerTest, RecursiveSameNameSpansCount) {
  for (int depth = 0; depth < 2; ++depth) {
    TURL_TRACE_SCOPE("test.outer");
    TURL_TRACE_SCOPE("test.inner");
    Sleep(0.5);
  }
  auto report = Profiler::Get().Report();
  const SpanStats* outer = Find(report, "test.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 2);
}

TEST_F(ProfilerTest, DisabledSpansRecordNothing) {
  Profiler::SetEnabled(false);
  {
    TURL_TRACE_SCOPE("test.invisible");
    Sleep(1.0);
  }
  EXPECT_EQ(Find(Profiler::Get().Report(), "test.invisible"), nullptr);
}

TEST_F(ProfilerTest, SpanOpenAcrossDisableStillCloses) {
  // A span constructed while enabled must End() safely even if profiling is
  // turned off before the scope exits.
  {
    TURL_TRACE_SCOPE("test.straddle");
    Profiler::SetEnabled(false);
    Sleep(0.5);
  }
  // Keep the report alive past the Find(): a pointer into the returned
  // temporary would dangle before the assertions read it.
  const std::vector<SpanStats> report = Profiler::Get().Report();
  const SpanStats* s = Find(report, "test.straddle");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1);
  Profiler::SetEnabled(true);  // Restore for TearDown symmetry.
}

TEST_F(ProfilerTest, ReportSortedByTotalDescending) {
  {
    TURL_TRACE_SCOPE("test.slow");
    Sleep(5.0);
  }
  {
    TURL_TRACE_SCOPE("test.fast");
    Sleep(0.5);
  }
  auto report = Profiler::Get().Report();
  ASSERT_GE(report.size(), 2u);
  for (size_t i = 1; i < report.size(); ++i) {
    EXPECT_GE(report[i - 1].total_ms, report[i].total_ms);
  }
}

TEST_F(ProfilerTest, ReportsRenderEverySpanName) {
  {
    TURL_TRACE_SCOPE("test.render");
  }
  EXPECT_NE(Profiler::Get().ReportTable().find("test.render"),
            std::string::npos);
  const std::string json = Profiler::Get().ReportJson();
  EXPECT_NE(json.find("\"name\":\"test.render\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"total_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95_ms\":"), std::string::npos);
}

TEST_F(ProfilerTest, ThreadsAggregateIndependentlyThenMerge) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        TURL_TRACE_SCOPE("test.mt");
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<SpanStats> report = Profiler::Get().Report();
  const SpanStats* s = Find(report, "test.mt");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 200);
}

}  // namespace
}  // namespace obs
}  // namespace turl
