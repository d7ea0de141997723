// Tests of the benchmark's own logic: percentile sample counts, the
// outcome-resolution rule behind `accuracy`, and span bookkeeping.
// Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "telemetry/events.h"
#include "telemetry/store.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::Percentile;
using perfbench::ReportablePercentile;
namespace telemetry = cloudsurv::telemetry;

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  // Descending, so the function has to sort.
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileSampleCounts() {
  auto p50 = ReportablePercentile(Iota(100), 0.5);
  EXPECT(p50.ok());
  EXPECT(p50->value == 50.0 && p50->samples == 100 && p50->beyond == 50);

  // 100 samples leave exactly 10 beyond the 90th: reportable.
  auto p90 = ReportablePercentile(Iota(100), 0.9);
  EXPECT(p90.ok());
  EXPECT(p90->value == 90.0 && p90->beyond == 10);

  // 99 samples leave only 9 beyond it: the benchmark must refuse.
  EXPECT(!ReportablePercentile(Iota(99), 0.9).ok());
  // A p99 needs 1000 samples.
  EXPECT(!ReportablePercentile(Iota(999), 0.99).ok());
  EXPECT(ReportablePercentile(Iota(1000), 0.99).ok());

  // One region's daily partitions (151 days) carry a p90.
  auto daily = ReportablePercentile(Iota(151), 0.9);
  EXPECT(daily.ok());
  EXPECT(daily->value == 136.0 && daily->beyond == 15);

  EXPECT(!ReportablePercentile({}, 0.5).ok());
  EXPECT(!ReportablePercentile(Iota(10), 0.0).ok());
  auto max = ReportablePercentile(Iota(10), 1.0, 0);
  EXPECT(max.ok() && max->value == 10.0 && max->beyond == 0);
}

constexpr telemetry::Timestamp kStart = 1483228800;  // 2017-01-01
constexpr double kWindowDays = 100.0;

telemetry::Timestamp Day(double d) {
  return kStart + static_cast<telemetry::Timestamp>(
                      d * static_cast<double>(telemetry::kSecondsPerDay));
}

void AddDatabase(std::vector<telemetry::Event>& events,
                 telemetry::DatabaseId id, double created_day,
                 double dropped_day) {
  telemetry::DatabaseCreatedPayload payload;
  payload.server_id = id;
  payload.server_name = "srv" + std::to_string(id);
  payload.database_name = "db" + std::to_string(id);
  events.push_back(
      telemetry::MakeCreatedEvent(Day(created_day), id, id, payload));
  if (dropped_day >= 0.0) {
    events.push_back(telemetry::MakeDroppedEvent(Day(dropped_day), id, id));
  }
}

void TestOutcomeResolution() {
  // x = 2 days, y = 30 days, window of 100 days; -1 = never dropped.
  std::vector<telemetry::Event> events;
  AddDatabase(events, 1, 0.0, 1.0);    // gone before x: never assessed
  AddDatabase(events, 2, 0.0, 10.0);   // dropped before y: short-lived
  AddDatabase(events, 3, 0.0, 40.0);   // lived past y: long-lived
  AddDatabase(events, 4, 0.0, -1.0);   // alive at window end, past y: long
  AddDatabase(events, 5, 80.0, -1.0);  // censored at 20 days: excluded
  AddDatabase(events, 6, 0.0, 30.0);   // dropped at y: did not outlive it
  AddDatabase(events, 7, 75.0, 90.0);  // dropped inside the window: short
  telemetry::TelemetryStore store("R", 0, {}, kStart, Day(kWindowDays));
  for (telemetry::Event& e : events) EXPECT(store.Append(std::move(e)).ok());
  EXPECT(store.Finalize().ok());

  // Predicted labels: 1 = long-lived.
  const std::unordered_map<telemetry::DatabaseId, int> predicted = {
      {1, 1}, {2, 0}, {3, 0}, {4, 1}, {5, 1}, {6, 0}, {7, 1}};
  auto score = perfbench::ScoreResolved(store, 2.0, 30.0, predicted);
  EXPECT(score.ok());
  // Resolved: 2 (short, right), 3 (long, wrong), 4 (long, right),
  // 6 (short, right), 7 (short, wrong). Excluded: 1 and 5.
  EXPECT(score->resolved == 5);
  EXPECT(score->correct == 3);
  EXPECT(score->excluded == 2);
  EXPECT(std::fabs(score->accuracy() - 0.6) < 1e-12);

  // Censored tenants never count, whatever was predicted for them.
  const std::unordered_map<telemetry::DatabaseId, int> censored_only = {
      {5, 0}};
  auto none = perfbench::ScoreResolved(store, 2.0, 30.0, censored_only);
  EXPECT(none.ok() && none->resolved == 0 && none->excluded == 1);
  EXPECT(none->accuracy() == 0.0);
}

void TestTracer() {
  perfbench::Tracer off(false);
  EXPECT(off.Begin("measure") == 0);
  off.End(0);
  EXPECT(off.spans().empty());
  EXPECT(off.Coverage({"measure"}) == 1.0);

  perfbench::Tracer on(true);
  const uint32_t root = on.Begin("measure");
  const uint32_t child = on.Begin("serving.poll");
  const uint32_t grandchild = on.Begin("inner");
  on.End(grandchild);
  on.End(child);
  on.End(root);
  const uint32_t other = on.Begin("verify");
  on.End(other);
  EXPECT(on.spans().size() == 4);
  EXPECT(on.spans()[0].parent == 0);
  EXPECT(on.spans()[1].parent == root);
  EXPECT(on.spans()[2].parent == child);
  EXPECT(on.spans()[3].parent == 0);
  EXPECT(on.Total("serving.poll") >= on.Total("inner"));
  // Only direct children of the named roots count, and never more than
  // the roots' wall time.
  const double coverage = on.Coverage({"measure"});
  EXPECT(coverage >= 0.0 && coverage <= 1.0);
  EXPECT(on.ToJson().find("\"parent\": 1") != std::string::npos);

  // Paused: nothing new is recorded, but a span opened before the pause
  // still closes, and recording resumes with correct parents.
  const uint32_t open = on.Begin("measure");
  on.set_enabled(false);
  EXPECT(on.Begin("serving.poll") == 0);
  on.End(open);
  EXPECT(on.spans().size() == 5);
  EXPECT(on.spans()[4].end_s >= on.spans()[4].start_s);
  on.set_enabled(true);
  const uint32_t after = on.Begin("plan");
  on.End(after);
  EXPECT(on.spans().size() == 6 && on.spans()[5].parent == 0);
}

void TestProcessSampleSums() {
  perfbench::ProcessSample a;
  a.minflt = 10;
  a.majflt = 1;
  a.nivcsw = 7;
  a.steal_ticks = 5;
  a.total_ticks = 100;
  perfbench::ProcessSample b;
  b.minflt = 3;
  b.nivcsw = 2;
  b.steal_ticks = 15;
  b.total_ticks = 100;
  const perfbench::ProcessSample sum = a + b;
  EXPECT(sum.minflt == 13 && sum.majflt == 1 && sum.nivcsw == 9);
  EXPECT(std::fabs(sum.steal_share() - 0.1) < 1e-12);
  const perfbench::ProcessSample back = sum - b;
  EXPECT(back.minflt == a.minflt && back.nivcsw == a.nivcsw);
  EXPECT(back.steal_ticks == a.steal_ticks &&
         back.total_ticks == a.total_ticks);
  EXPECT(perfbench::ProcessSample{}.steal_share() == 0.0);
}

}  // namespace

int main() {
  TestPercentileSampleCounts();
  TestOutcomeResolution();
  TestTracer();
  TestProcessSampleSums();
  if (failures == 0) std::printf("perfbench_harness_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
