#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/cohort.h"
#include "obs/metrics.h"

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::Now() const { return SecondsSince(origin_); }

uint32_t Tracer::Begin(const char* name) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = name;
  span.start_s = Now();
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_s = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::Total(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end_s - s.start_s;
  }
  return total;
}

double Tracer::Coverage(const std::vector<std::string_view>& roots) const {
  std::vector<char> is_root(spans_.size() + 1, 0);
  double root_wall = 0.0;
  for (const Span& s : spans_) {
    if (s.parent != 0) continue;
    if (std::find(roots.begin(), roots.end(), s.name) == roots.end()) {
      continue;
    }
    is_root[s.id] = 1;
    root_wall += s.end_s - s.start_s;
  }
  double explained = 0.0;
  for (const Span& s : spans_) {
    if (s.parent != 0 && is_root[s.parent]) explained += s.end_s - s.start_s;
  }
  return root_wall <= 0.0 ? 1.0 : explained / root_wall;
}

std::string Tracer::ToJson() const {
  std::string out = "[";
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                  "\"start_s\": %.9f, \"end_s\": %.9f}",
                  i == 0 ? "" : ",", s.id, s.parent, s.name, s.start_s,
                  s.end_s);
    out += line;
  }
  out += "\n]\n";
  return out;
}

cloudsurv::Result<Percentile> ReportablePercentile(std::vector<double> samples,
                                                   double q,
                                                   size_t min_beyond) {
  if (!(q > 0.0 && q <= 1.0)) {
    return cloudsurv::Status::InvalidArgument("percentile must be in (0, 1]");
  }
  if (samples.empty()) {
    return cloudsurv::Status::FailedPrecondition("no samples");
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // Nearest rank; the epsilon keeps q * n that is an exact integer in
  // decimal (0.9 * 100) from rounding up past it in binary.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) -
                                              1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  Percentile p;
  p.value = samples[rank - 1];
  p.samples = n;
  p.beyond = n - rank;
  if (p.beyond < min_beyond) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "p%g of %zu samples has only %zu beyond it (need %zu): "
                  "the workload is too small for this percentile",
                  q * 100.0, n, p.beyond, min_beyond);
    return cloudsurv::Status::FailedPrecondition(msg);
  }
  return p;
}

cloudsurv::Result<OutcomeScore> ScoreResolved(
    const cloudsurv::telemetry::TelemetryStore& store, double observe_days,
    double long_threshold_days,
    const std::unordered_map<cloudsurv::telemetry::DatabaseId, int>&
        predicted) {
  auto cohort = cloudsurv::core::BuildPredictionCohort(store, observe_days,
                                                       long_threshold_days);
  if (!cohort.ok()) return cohort.status();
  OutcomeScore score;
  for (size_t i = 0; i < cohort->ids.size(); ++i) {
    auto it = predicted.find(cohort->ids[i]);
    if (it == predicted.end()) continue;
    ++score.resolved;
    if (it->second == cohort->labels[i]) ++score.correct;
  }
  score.excluded = predicted.size() - score.resolved;
  return score;
}

ProcessSample SampleProcess() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  ProcessSample s;
  s.minflt = usage.ru_minflt;
  s.majflt = usage.ru_majflt;
  s.nivcsw = usage.ru_nivcsw;
  // "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 8 && stat; ++field) {
    long long ticks = 0;
    stat >> ticks;
    s.total_ticks += ticks;
    if (field == 7) s.steal_ticks = ticks;
  }
  return s;
}

ProcessSample operator-(const ProcessSample& a, const ProcessSample& b) {
  ProcessSample d;
  d.minflt = a.minflt - b.minflt;
  d.majflt = a.majflt - b.majflt;
  d.nivcsw = a.nivcsw - b.nivcsw;
  d.steal_ticks = a.steal_ticks - b.steal_ticks;
  d.total_ticks = a.total_ticks - b.total_ticks;
  return d;
}

ProcessSample operator+(const ProcessSample& a, const ProcessSample& b) {
  ProcessSample s;
  s.minflt = a.minflt + b.minflt;
  s.majflt = a.majflt + b.majflt;
  s.nivcsw = a.nivcsw + b.nivcsw;
  s.steal_ticks = a.steal_ticks + b.steal_ticks;
  s.total_ticks = a.total_ticks + b.total_ticks;
  return s;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  return static_cast<bool>(out.flush());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
    }
  }
  return 0.0;
}

double ObsSnapshot::Value(const std::string& name) const {
  auto it = value.find(name);
  return it == value.end() ? 0.0 : it->second;
}

ObsSnapshot TakeObsSnapshot() {
  ObsSnapshot snap;
  for (const cloudsurv::obs::SeriesRef& s :
       cloudsurv::obs::Registry::Default().Series()) {
    switch (s.type) {
      case cloudsurv::obs::MetricType::kCounter:
        snap.value[s.name] += static_cast<double>(s.counter->Value());
        break;
      case cloudsurv::obs::MetricType::kGauge:
        snap.value[s.name] += s.gauge->Value();
        break;
      case cloudsurv::obs::MetricType::kHistogram:
        snap.value[s.name] += s.histogram->Sum();
        break;
    }
  }
  return snap;
}

}  // namespace perfbench
