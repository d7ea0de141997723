// Measurement pieces shared by the end-to-end benchmark driver
// (workloads.cc) and its tests (harness_test.cc): in-memory spans,
// percentiles that refuse to report a tail they have too few samples
// for, the §5 outcome-resolution rule, process noise diagnostics and
// reads of the library's own obs::Registry series.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "telemetry/store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------- spans

/// Records spans in memory while enabled; every call is a no-op (no
/// clock read) while disabled, so the untraced run pays nothing. A
/// span's parent is the innermost span still open when it began; a
/// span with parent 0 is a root (one benchmark phase).
class Tracer {
 public:
  struct Span {
    uint32_t id = 0;
    uint32_t parent = 0;
    const char* name = "";  ///< Static string.
    double start_s = 0.0;   ///< Seconds since the tracer was created.
    double end_s = 0.0;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Starts or stops recording new spans; spans already open still
  /// close normally.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span named `name` (a string literal); returns its id, or
  /// 0 when disabled.
  uint32_t Begin(const char* name);
  /// Closes span `id`, which must be the innermost open span.
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration of every span called `name`, in seconds.
  double Total(std::string_view name) const;

  /// Share of the wall time of the roots named in `roots` that their
  /// direct children explain (1.0 when no such root was recorded).
  double Coverage(const std::vector<std::string_view>& roots) const;

  /// All spans as a JSON array.
  std::string ToJson() const;

 private:
  double Now() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  uint32_t id_;
};

// ---------------------------------------------------------- percentiles

/// A nearest-rank percentile and the sample count behind it.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  /// Samples ranked strictly above the reported one.
  size_t beyond = 0;
};

/// Nearest-rank q-quantile (q in (0, 1]): the sample at rank
/// ceil(q * n) of the sorted samples. Fails when there are no samples
/// or when fewer than `min_beyond` samples lie beyond the reported one,
/// so a workload sized too small for its tail percentile fails loudly
/// instead of reporting its maximum.
cloudsurv::Result<Percentile> ReportablePercentile(std::vector<double> samples,
                                                   double q,
                                                   size_t min_beyond = 10);

// --------------------------------------------------- outcome resolution

/// Predictions scored against outcomes that have resolved by the end of
/// the store's window.
struct OutcomeScore {
  size_t resolved = 0;  ///< Predictions whose tenant's outcome is known.
  size_t correct = 0;   ///< ... and whose predicted label matches it.
  /// Predictions for tenants censored before y days (outcome unknown)
  /// or not alive at x days; left out of the accuracy.
  size_t excluded = 0;

  double accuracy() const {
    return resolved == 0 ? 0.0
                         : static_cast<double>(correct) /
                               static_cast<double>(resolved);
  }
};

/// Scores `predicted` (database id -> predicted label, 1 = long-lived)
/// with the core::BuildPredictionCohort rules: a tenant alive at x days
/// that drops by y days is short-lived (0), one that lives past y days
/// is long-lived (1), and one censored before y days is excluded.
cloudsurv::Result<OutcomeScore> ScoreResolved(
    const cloudsurv::telemetry::TelemetryStore& store, double observe_days,
    double long_threshold_days,
    const std::unordered_map<cloudsurv::telemetry::DatabaseId, int>&
        predicted);

// --------------------------------------------------- process diagnostics

/// getrusage counters of the whole process, plus the host's stolen and
/// total CPU ticks from /proc/stat (all CPUs).
struct ProcessSample {
  long minflt = 0;  ///< Minor page faults (first-touch memory).
  long majflt = 0;  ///< Major page faults (reads from disk).
  long nivcsw = 0;  ///< Involuntary context switches (preemption).
  long long steal_ticks = 0;  ///< Time the hypervisor ran someone else.
  long long total_ticks = 0;

  /// Share of all CPU time the hypervisor stole.
  double steal_share() const {
    return total_ticks <= 0 ? 0.0
                            : static_cast<double>(steal_ticks) /
                                  static_cast<double>(total_ticks);
  }
};

ProcessSample SampleProcess();
ProcessSample operator-(const ProcessSample& a, const ProcessSample& b);
ProcessSample operator+(const ProcessSample& a, const ProcessSample& b);

/// Resets the process's peak resident set (VmHWM) to its current size.
/// Returns false where /proc/self/clear_refs is not writable.
bool ResetPeakRss();
/// VmHWM in MB (10^6 bytes); 0 when /proc/self/status is unreadable.
double PeakRssMb();

// ------------------------------------------------------ registry reads

/// Every obs::Registry::Default() series reduced to one number per
/// name: counters and gauges by value, histograms by their sum, all
/// summed over label sets.
struct ObsSnapshot {
  std::map<std::string, double> value;

  double Value(const std::string& name) const;
};

ObsSnapshot TakeObsSnapshot();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
