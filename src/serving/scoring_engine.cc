#include "serving/scoring_engine.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <iterator>
#include <optional>
#include <utility>

namespace cloudsurv::serving {

namespace {

using telemetry::Event;
using telemetry::EventKind;
using telemetry::kSecondsPerDay;
using telemetry::Timestamp;

Timestamp MaturityOf(Timestamp created_at, double observe_days) {
  return created_at + static_cast<Timestamp>(
                          observe_days * static_cast<double>(kSecondsPerDay));
}

}  // namespace

/// What scoring one shard batch produced.
struct ScoringEngine::ShardBatchResult {
  std::vector<ScoredDatabase> scored;
  uint64_t skipped = 0;
  uint64_t fallback = 0;
  uint64_t retries = 0;
  bool deadline_exceeded = false;
  Status status;  // Non-OK only for snapshot/model-availability failures.
};

/// One poll's shard batches, shared by its claimers: the polling thread
/// and its pool tasks. Claimers take contiguous runs of batches in
/// shard order until none is left.
struct ScoringEngine::PollWork {
  /// Staged events that cost as much to append as one due row costs to
  /// extract and score. Measured at 40-55 on streamed regions with 16
  /// shards (perfbench serve_live: 0.44 s per 1.01M appended events
  /// against 0.80 s per 46k scored rows).
  static constexpr uint64_t kEventsPerRow = 45;

  std::vector<ShardBatch> batches;
  /// Whether batch i is claimed alone: it has rows to score off a
  /// snapshot that is known to be needed before its append.
  std::vector<bool> alone;
  /// Work of batch i, in appended events (kEventsPerRow per due row).
  /// Fixed before claiming starts: claimers move the staged events out.
  std::vector<uint64_t> cost;
  /// results[i] is written only by the claimer that took batch i.
  std::vector<ShardBatchResult> results;
  size_t num_claimers = 1;

  /// Claims the next run of batches, [begin, end); empty once all are
  /// claimed. A snapshot batch costs a copy and Finalize of its shard's
  /// whole log, which its cost does not show, so it is claimed alone.
  /// Other batches cost their staged events plus their due rows; a
  /// claim takes at least one of them and goes on until it holds
  /// 1 / num_claimers of the cost still unclaimed (guided
  /// self-scheduling), so early claims are large, amortizing the task
  /// and the inference call over many shards, and the last ones small,
  /// balancing the claimers' finish times.
  std::pair<size_t, size_t> Claim() {
    std::lock_guard<std::mutex> lock(mu);
    const size_t begin = next;
    size_t end = begin;
    if (begin < batches.size() && alone[begin]) {
      end = begin + 1;
    } else {
      const uint64_t target = (cost_left + num_claimers - 1) / num_claimers;
      uint64_t claimed = 0;
      while (end < batches.size() && !alone[end] &&
             (end == begin || claimed < target)) {
        claimed += cost[end++];
      }
      cost_left -= claimed;
    }
    next = end;
    return {begin, end};
  }

  std::mutex mu;
  size_t next = 0;       // First unclaimed batch.
  uint64_t cost_left = 0;  // Cost of the unclaimed batches not claimed alone.
};

const char* HealthStateToString(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kShedding:
      return "shedding";
  }
  return "unknown";
}

RegionContext RegionContext::FromStore(
    const telemetry::TelemetryStore& store) {
  RegionContext ctx;
  ctx.region_name = store.region_name();
  ctx.utc_offset_minutes = store.utc_offset_minutes();
  ctx.holidays = store.holidays();
  ctx.window_start = store.window_start();
  ctx.window_end = store.window_end();
  return ctx;
}

ScoringEngine::EngineSeries ScoringEngine::MakeEngineSeries() {
  // Each engine gets its own labelled series so EngineMetrics stays
  // per-instance even though the registry is process-wide.
  static std::atomic<uint64_t> next_instance{0};
  const obs::LabelSet labels = {
      {"engine",
       std::to_string(next_instance.fetch_add(1,
                                              std::memory_order_relaxed))}};
  obs::Registry& registry = obs::Registry::Default();
  EngineSeries series;
  series.events_flushed = registry.GetCounter(
      "cloudsurv_engine_events_flushed_total",
      "Events moved from the ingest buffer into shard logs", "events",
      labels);
  series.databases_tracked = registry.GetCounter(
      "cloudsurv_engine_databases_tracked_total",
      "Creations registered with the maturity tracker", "databases",
      labels);
  series.databases_cancelled = registry.GetCounter(
      "cloudsurv_engine_databases_cancelled_total",
      "Databases dropped before their observation window elapsed",
      "databases", labels);
  series.databases_scored = registry.GetCounter(
      "cloudsurv_engine_databases_scored_total",
      "Assessments produced by scoring tasks", "databases", labels);
  series.databases_confident = registry.GetCounter(
      "cloudsurv_engine_databases_confident_total",
      "Assessments inside the confident probability bands", "databases",
      labels);
  series.databases_skipped = registry.GetCounter(
      "cloudsurv_engine_databases_skipped_total",
      "Matured databases whose Assess() call failed", "databases",
      labels);
  series.polls = registry.GetCounter("cloudsurv_engine_polls_total",
                                     "Poll()/Drain() cycles", "polls",
                                     labels);
  series.snapshots = registry.GetCounter(
      "cloudsurv_engine_snapshots_total",
      "Per-shard TelemetryStore snapshots materialized", "snapshots",
      labels);
  series.direct_reads = registry.GetCounter(
      "cloudsurv_engine_direct_reads_total",
      "Shard batches scored directly off a readable live store",
      "batches", labels);
  series.fallback_scored = registry.GetCounter(
      "cloudsurv_engine_fallback_scored_total",
      "Assessments served by the weighted-random fallback", "databases",
      labels);
  series.deadline_exceeded = registry.GetCounter(
      "cloudsurv_engine_deadline_exceeded_total",
      "Shard batches whose virtual scoring deadline expired", "batches",
      labels);
  series.retries = registry.GetCounter(
      "cloudsurv_engine_retries_total",
      "Ingest and snapshot retry attempts", "retries", labels);
  auto rejected = [&](const char* reason) {
    obs::LabelSet with_reason = labels;
    with_reason.push_back({"reason", reason});
    return registry.GetCounter(
        "cloudsurv_engine_rejected_total",
        "Ingest attempts the engine rejected, by reason", "events",
        with_reason);
  };
  series.rejected_shed = rejected("shed");
  series.rejected_error = rejected("error");
  series.rejected_invalid = rejected("invalid");
  series.health_state = registry.GetGauge(
      "cloudsurv_engine_health_state",
      "Serving health (0 healthy, 1 degraded, 2 shedding)", "state",
      labels);
  series.health_transitions = registry.GetCounter(
      "cloudsurv_engine_health_transitions_total",
      "Health-state machine transitions", "transitions", labels);
  series.scoring_latency_us = registry.GetHistogram(
      "cloudsurv_engine_scoring_latency_us",
      "Per-database scoring latency inside claiming threads", "us",
      labels);
  return series;
}

ScoringEngine::ScoringEngine(RegionContext region, Options options)
    : region_(std::move(region)),
      options_(options),
      ingest_(options.num_shards, options.fault_injector),
      registry_(options.fault_injector),
      pool_(options.num_threads, options.queue_capacity,
            options.fault_injector),
      shard_logs_(ingest_.num_shards()),
      series_(MakeEngineSeries()) {
  // Hysteresis requires low < high; a degenerate config collapses to a
  // one-event band rather than disabling shedding silently.
  if (options_.shed_high_watermark > 0 &&
      options_.shed_low_watermark >= options_.shed_high_watermark) {
    options_.shed_low_watermark = options_.shed_high_watermark - 1;
  }
  if (options_.fallback_positive_rate >= 0.0) {
    fallback_model_ = ml::WeightedRandomClassifier::FromPositiveRate(
        options_.fallback_positive_rate);
  }
  for (ShardLog& log : shard_logs_) {
    log.store.emplace(region_.region_name, region_.utc_offset_minutes,
                      region_.holidays, region_.window_start,
                      region_.window_end);
  }
  series_.health_state->Set(0.0);
}

ScoringEngine::~ScoringEngine() { pool_.Shutdown(); }

Status ScoringEngine::Ingest(telemetry::Event event) {
  // Fast path: no injector and no watermarks means no retry loop, no
  // shedding check — identical to the pre-fault-layer engine except for
  // the per-reason rejection counter.
  if (options_.fault_injector == nullptr &&
      options_.shed_high_watermark == 0) {
    Status accepted = ingest_.Ingest(std::move(event));
    if (!accepted.ok()) series_.rejected_invalid->Increment();
    return accepted;
  }

  if (options_.shed_high_watermark > 0) {
    if (health() == HealthState::kShedding) {
      series_.rejected_shed->Increment();
      return Status::FailedPrecondition(
          "load shed: ingest backlog over watermark");
    }
    if (ingest_.approx_pending() >= options_.shed_high_watermark) {
      SetHealth(HealthState::kShedding);
      series_.rejected_shed->Increment();
      return Status::FailedPrecondition(
          "load shed: ingest backlog over watermark");
    }
  }

  Status last;
  for (size_t attempt = 0;; ++attempt) {
    last = ingest_.Ingest(event);
    if (last.ok()) return last;
    if (last.code() == StatusCode::kInvalidArgument) {
      // Malformed events are never retryable.
      series_.rejected_invalid->Increment();
      return last;
    }
    if (attempt >= options_.ingest_retries) break;
    series_.retries->Increment();
    fault::SleepFor(RetryBackoffUs(attempt));
  }
  series_.rejected_error->Increment();
  // Retry exhaustion is a degradation signal; the next cycle picks the
  // flag up.
  cycle_dirty_.store(true, std::memory_order_relaxed);
  return last;
}

double ScoringEngine::RetryBackoffUs(size_t attempt) {
  const size_t capped = attempt < 20 ? attempt : 20;
  double backoff = options_.retry_backoff_us *
                   static_cast<double>(uint64_t{1} << capped);
  if (options_.retry_jitter > 0.0) {
    // Jitter is seeded (plan seed, else fallback seed) and salted per
    // draw — varied sleeps, deterministic given the call sequence, and
    // no shared Rng to lock.
    const uint64_t seed = options_.fault_injector != nullptr
                              ? options_.fault_injector->seed()
                              : options_.fallback_seed;
    Rng rng = Rng(seed).Fork(
        jitter_salt_.fetch_add(1, std::memory_order_relaxed));
    backoff *= rng.Uniform(1.0 - options_.retry_jitter,
                           1.0 + options_.retry_jitter);
  }
  return backoff;
}

ScoredDatabase ScoringEngine::FallbackScore(
    const PendingDatabase& pending) const {
  // Forked per database id: the draw depends only on (seed, id), so
  // fallback outputs are independent of scoring order and thread count
  // and bit-match the §4 weighted-random baseline run standalone.
  Rng rng = Rng(options_.fallback_seed).Fork(pending.database_id);
  ScoredDatabase scored;
  scored.database_id = pending.database_id;
  scored.subscription_id = pending.subscription_id;
  scored.matured_at = pending.matures_at;
  scored.model_version = 0;
  scored.fallback = true;
  scored.assessment.predicted_label = fallback_model_.Predict(rng);
  scored.assessment.positive_probability = fallback_model_.positive_rate();
  scored.assessment.confident = false;
  scored.assessment.recommended_pool = core::Pool::kGeneral;
  scored.assessment.model_name = "weighted-random-fallback";
  return scored;
}

void ScoringEngine::SetHealth(HealthState next) {
  const int previous = health_.exchange(static_cast<int>(next),
                                        std::memory_order_relaxed);
  if (previous == static_cast<int>(next)) return;
  series_.health_transitions->Increment();
  series_.health_state->Set(static_cast<double>(static_cast<int>(next)));
}

void ScoringEngine::UpdateHealthAfterCycle(bool dirty) {
  if (options_.shed_high_watermark > 0) {
    const size_t pending = ingest_.approx_pending();
    if (health() == HealthState::kShedding) {
      if (pending <= options_.shed_low_watermark) {
        // Shedding clears into kDegraded, never straight to healthy —
        // the backlog was a degradation event and must age out through
        // the recovery counter like any other.
        SetHealth(HealthState::kDegraded);
        clean_polls_ = 0;
      }
      return;
    }
    if (pending >= options_.shed_high_watermark) {
      SetHealth(HealthState::kShedding);
      return;
    }
  }
  if (dirty) {
    SetHealth(HealthState::kDegraded);
    clean_polls_ = 0;
    return;
  }
  if (health() == HealthState::kDegraded &&
      ++clean_polls_ >= options_.recovery_polls) {
    SetHealth(HealthState::kHealthy);
    clean_polls_ = 0;
  }
}

std::vector<std::vector<Event>> ScoringEngine::TrackStagedEvents() {
  // Tracker totals are authoritative (Add dedupes, Cancel checks
  // maturity); mirror them onto the registry by delta.
  const uint64_t added_before = tracker_.total_added();
  const uint64_t cancelled_before = tracker_.total_cancelled();
  std::vector<std::vector<Event>> staged = ingest_.TakeAll();
  for (size_t shard = 0; shard < staged.size(); ++shard) {
    const std::vector<Event>& batch = staged[shard];
    if (batch.empty()) continue;
    series_.events_flushed->Increment(batch.size());
    for (const Event& event : batch) {
      switch (event.kind()) {
        case EventKind::kDatabaseCreated: {
          PendingDatabase pending;
          pending.database_id = event.database_id;
          pending.subscription_id = event.subscription_id;
          pending.matures_at =
              MaturityOf(event.timestamp, options_.observe_days);
          pending.shard = shard;
          tracker_.Add(pending);
          break;
        }
        case EventKind::kDatabaseDropped:
          // A drop before maturity makes the prediction task undefined
          // for this database — stop tracking it.
          tracker_.Cancel(event.database_id, event.timestamp);
          break;
        default:
          break;
      }
    }
  }
  series_.databases_tracked->Increment(tracker_.total_added() -
                                       added_before);
  series_.databases_cancelled->Increment(tracker_.total_cancelled() -
                                         cancelled_before);
  return staged;
}

void ScoringEngine::FallbackScoreBatch(const ShardBatch& batch,
                                       ShardBatchResult* result) const {
  result->scored.reserve(batch.due.size());
  for (const PendingDatabase& pending : batch.due) {
    result->scored.push_back(FallbackScore(pending));
  }
  result->fallback = batch.due.size();
}

Result<telemetry::TelemetryStore> ScoringEngine::BuildSnapshot(
    size_t shard, ShardBatchResult* result) {
  // Snapshot materialization from the shard's event log, with bounded
  // retries around injected allocation/io failures.
  fault::FaultInjector* injector = options_.fault_injector;
  const ShardLog& log = shard_logs_[shard];
  std::vector<Event> base;
  base.reserve(log.store->num_events());
  for (const Event& event : log.store->events()) {
    base.push_back(event);
  }
  Status status;
  for (size_t attempt = 0; attempt <= options_.snapshot_retries; ++attempt) {
    if (attempt > 0) {
      ++result->retries;
      fault::SleepFor(RetryBackoffUs(attempt - 1));
    }
    if (injector != nullptr) {
      const fault::Outcome outcome = injector->Evaluate(
          fault::Site::kSnapshotBuild, static_cast<int64_t>(shard));
      fault::SleepFor(outcome.delay_us + outcome.stall_us);
      if (outcome.fail) {
        status = outcome.io
                     ? Status::IOError("injected io failure building snapshot")
                     : Status::Internal(
                           "injected allocation failure building snapshot");
        continue;
      }
    }
    telemetry::TelemetryStore candidate(
        region_.region_name, region_.utc_offset_minutes, region_.holidays,
        region_.window_start, region_.window_end);
    std::vector<Event> copy(base);
    candidate.Reserve(copy.size());
    status = candidate.AppendEvents(std::move(copy));
    if (!status.ok()) continue;
    status = candidate.Finalize();
    if (!status.ok()) continue;
    return candidate;
  }
  return status;
}

void ScoringEngine::ScoreBatched(const ModelRegistry::ActiveModel& active,
                                 const std::vector<BatchedShard>& shards) {
  // Rows of every shard go through one AssessMany call: grouped per
  // model slot across shards and scored by the compiled FlatForest in
  // blocks. Assessments are bit-identical to the per-id loop of
  // ScorePerRow; nullopt marks exactly the ids whose per-id Assess
  // would fail.
  std::vector<std::vector<telemetry::DatabaseId>> ids(shards.size());
  std::vector<core::LongevityService::AssessSegment> segments(shards.size());
  size_t total = 0;
  for (size_t k = 0; k < shards.size(); ++k) {
    ids[k].reserve(shards[k].batch->due.size());
    for (const PendingDatabase& pending : shards[k].batch->due) {
      ids[k].push_back(pending.database_id);
    }
    segments[k] = {shards[k].store, ids[k]};
    total += ids[k].size();
  }
  const auto batch_start = std::chrono::steady_clock::now();
  ml::FlatForest::BatchOptions batch_opts;
  batch_opts.block_rows = options_.inference_block_rows;
  batch_opts.traversal = options_.inference_traversal;
  auto assessments = active.model->AssessMany(segments, batch_opts);
  const double batch_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - batch_start)
                              .count();
  // Record the amortized per-database latency so the histogram keeps its
  // per-assessment semantics (one sample per scored database, as on the
  // per-row path).
  const double per_db_us = batch_us / static_cast<double>(total);
  size_t position = 0;
  for (const BatchedShard& shard : shards) {
    const std::vector<PendingDatabase>& due = shard.batch->due;
    ShardBatchResult& result = *shard.result;
    if (!assessments.ok()) {
      result.skipped = due.size();
      result.status = assessments.status();
      continue;
    }
    result.scored.reserve(due.size());
    for (const PendingDatabase& pending : due) {
      series_.scoring_latency_us->Observe(per_db_us);
      std::optional<core::LongevityService::Assessment>& assessment =
          (*assessments)[position++];
      if (!assessment.has_value()) {
        ++result.skipped;
        continue;
      }
      ScoredDatabase scored;
      scored.database_id = pending.database_id;
      scored.subscription_id = pending.subscription_id;
      scored.matured_at = pending.matures_at;
      scored.model_version = active.version;
      scored.assessment = *std::move(assessment);
      result.scored.push_back(std::move(scored));
    }
  }
}

void ScoringEngine::ScorePerRow(const ModelRegistry::ActiveModel& active,
                                const telemetry::TelemetryStore& store,
                                const ShardBatch& batch,
                                ShardBatchResult* result) {
  // Per-database scoring against a virtual-time deadline. The virtual
  // clock advances by injected delays plus a fixed cost per assessment —
  // never by wall time — so deadline behaviour is bit-reproducible
  // across machines and thread counts.
  fault::FaultInjector* injector = options_.fault_injector;
  const bool fallback_enabled = options_.fallback_positive_rate >= 0.0;
  const int64_t shard_key = static_cast<int64_t>(batch.shard);
  double virtual_us = 0.0;
  bool past_deadline = false;
  result->scored.reserve(batch.due.size());
  for (const PendingDatabase& pending : batch.due) {
    if (injector != nullptr) {
      const fault::Outcome outcome =
          injector->Evaluate(fault::Site::kScoreAssess, shard_key);
      fault::SleepFor(outcome.delay_us + outcome.stall_us);
      virtual_us += outcome.delay_us + outcome.stall_us;
    }
    if (!past_deadline && options_.batch_deadline_us > 0.0 &&
        virtual_us > options_.batch_deadline_us) {
      past_deadline = true;
      result->deadline_exceeded = true;
    }
    if (past_deadline) {
      if (fallback_enabled) {
        result->scored.push_back(FallbackScore(pending));
        ++result->fallback;
      } else {
        ++result->skipped;
      }
      continue;
    }
    // ScopedTimer records into the engine's latency histogram; the
    // histogram is thread-safe so tasks observe directly.
    obs::ScopedTimer timer(series_.scoring_latency_us);
    auto assessment = active.model->Assess(store, pending.database_id);
    timer.Stop();
    virtual_us += options_.assess_virtual_cost_us;
    if (!assessment.ok()) {
      // E.g. dropped exactly inside the window with the drop event
      // racing the maturity cutoff — batch Assess() on the final store
      // fails identically, so skipping keeps the two paths equivalent.
      ++result->skipped;
      continue;
    }
    ScoredDatabase scored;
    scored.database_id = pending.database_id;
    scored.subscription_id = pending.subscription_id;
    scored.matured_at = pending.matures_at;
    scored.model_version = active.version;
    scored.assessment = *std::move(assessment);
    result->scored.push_back(std::move(scored));
  }
}

void ScoringEngine::ScoreClaims(PollWork& work) {
  for (;;) {
    const auto [begin, end] = work.Claim();
    if (begin == end) return;
    ScoreShardGroup(
        std::span<ShardBatch>(work.batches).subspan(begin, end - begin),
        std::span<ShardBatchResult>(work.results).subspan(begin, end - begin));
  }
}

void ScoringEngine::ScoreShardGroup(std::span<ShardBatch> group,
                                    std::span<ShardBatchResult> results) {
  // Every shard of the run first takes its own staged events, in
  // arrival order, before anything reads its store. Ids were validated
  // at ingest, so the only way a live append can fail is a lifecycle
  // violation — which poisons the store out of readable() and routes
  // the shard to the snapshot path below, where Finalize() reports the
  // same violation batch scoring would.
  for (ShardBatch& batch : group) {
    if (batch.staged.empty()) continue;
    telemetry::TelemetryStore& store = *shard_logs_[batch.shard].store;
    store.Reserve(batch.staged.size());
    if (!store.AppendEvents(std::move(batch.staged)).ok()) {
      cycle_dirty_.store(true, std::memory_order_relaxed);
    }
  }

  fault::FaultInjector* injector = options_.fault_injector;
  const bool fallback_enabled = options_.fallback_positive_rate >= 0.0;
  // With no per-database injection points or virtual-time deadline to
  // honour, shards take the batched path (ScoreBatched).
  const bool batched =
      injector == nullptr && options_.batch_deadline_us <= 0.0;

  // Pin the model snapshot for the whole group; a concurrent Publish()
  // swaps later groups, never this one.
  const ModelRegistry::ActiveModel active = registry_.CurrentWithVersion();
  // Shards read straight off their live stores, scored together after
  // the loop.
  std::vector<BatchedShard> direct;
  for (size_t k = 0; k < group.size(); ++k) {
    const ShardBatch& batch = group[k];
    ShardBatchResult& result = results[k];
    if (batch.due.empty()) continue;  // Claimed for its append alone.
    // A swap-race fault is evaluated per shard, so replay does not
    // depend on how shards were grouped or which worker ran the group.
    bool model_available = active.model != nullptr;
    if (model_available && injector != nullptr &&
        injector->Evaluate(fault::Site::kRegistrySwap,
                           static_cast<int64_t>(batch.shard))
            .swap_race) {
      model_available = false;
    }
    if (!model_available) {
      if (!fallback_enabled) {
        result.status = Status::FailedPrecondition("no model published");
        continue;
      }
      FallbackScoreBatch(batch, &result);
      continue;
    }

    // Pick the store this shard reads. Direct-read fast path: ordered
    // streaming ingest keeps the live shard store readable(), so the
    // shard scores straight off its columnar state — no event copy, no
    // Finalize() barrier. A configured injector always takes the
    // snapshot path, preserving the fault::Site::kSnapshotBuild
    // injection point fault plans target.
    const telemetry::TelemetryStore& live = *shard_logs_[batch.shard].store;
    if (injector == nullptr && live.readable()) {
      series_.direct_reads->Increment();
      if (batched) {
        direct.push_back({&live, &batch, &result});
      } else {
        ScorePerRow(active, live, batch, &result);
      }
      continue;
    }
    Result<telemetry::TelemetryStore> snapshot =
        BuildSnapshot(batch.shard, &result);
    if (!snapshot.ok()) {
      if (fallback_enabled) {
        FallbackScoreBatch(batch, &result);
        continue;
      }
      // No fallback: the batch is reported skipped (counted, not
      // silently dropped) and the poll surfaces the error.
      result.skipped = batch.due.size();
      result.status = snapshot.status();
      continue;
    }
    series_.snapshots->Increment();
    if (batched) {
      ScoreBatched(active, {{&*snapshot, &batch, &result}});
    } else {
      ScorePerRow(active, *snapshot, batch, &result);
    }
  }
  if (!direct.empty()) ScoreBatched(active, direct);
}

Result<std::vector<ScoredDatabase>> ScoringEngine::ScoreDue(
    std::vector<std::vector<Event>> staged,
    std::vector<PendingDatabase> due) {
  // Group matured databases by owning shard, in shard order: one
  // snapshot (when needed) serves a shard's whole batch.
  std::vector<std::vector<PendingDatabase>> by_shard(shard_logs_.size());
  for (PendingDatabase& p : due) {
    by_shard[p.shard].push_back(p);
  }
  auto work = std::make_shared<PollWork>();
  for (size_t shard = 0; shard < by_shard.size(); ++shard) {
    if (staged[shard].empty() && by_shard[shard].empty()) continue;
    // Fault injection keeps the snapshot path's injection points; an
    // out-of-order arrival in an earlier poll left the live store
    // unreadable for good. One in this poll's append shows only after
    // the append, and the claim then snapshots the shard in its run.
    const bool alone =
        !by_shard[shard].empty() &&
        (options_.fault_injector != nullptr ||
         !shard_logs_[shard].store->readable());
    const uint64_t cost = staged[shard].size() +
                          PollWork::kEventsPerRow * by_shard[shard].size();
    if (!alone) work->cost_left += cost;
    work->alone.push_back(alone);
    work->cost.push_back(cost);
    work->batches.push_back(
        {shard, std::move(staged[shard]), std::move(by_shard[shard])});
  }
  if (work->batches.empty()) return std::vector<ScoredDatabase>();
  work->results.resize(work->batches.size());
  work->num_claimers =
      std::min(pool_.num_threads() + 1, work->batches.size());

  // The polling thread is claimer 0 and at most num_threads pool tasks
  // are the others. Nothing else touches the shard logs until every
  // claimer is done: the polling thread waits on all futures below
  // before the poll returns.
  std::vector<std::future<void>> futures;
  futures.reserve(work->num_claimers - 1);
  for (size_t t = 1; t < work->num_claimers; ++t) {
    futures.push_back(pool_.Submit([this, work]() { ScoreClaims(*work); }));
  }
  ScoreClaims(*work);
  for (std::future<void>& future : futures) future.get();

  // Results are accounted in shard order whatever the claims were, so
  // the first error reported is the lowest failing shard's.
  std::vector<ScoredDatabase> all;
  Status first_error = Status::OK();
  for (ShardBatchResult& result : work->results) {
    series_.retries->Increment(result.retries);
    if (result.deadline_exceeded) {
      series_.deadline_exceeded->Increment();
      cycle_dirty_.store(true, std::memory_order_relaxed);
    }
    if (!result.status.ok()) {
      series_.databases_skipped->Increment(result.skipped);
      cycle_dirty_.store(true, std::memory_order_relaxed);
      if (first_error.ok()) first_error = result.status;
      continue;
    }
    series_.databases_scored->Increment(result.scored.size() -
                                        result.fallback);
    series_.databases_skipped->Increment(result.skipped);
    if (result.fallback > 0) {
      series_.fallback_scored->Increment(result.fallback);
      cycle_dirty_.store(true, std::memory_order_relaxed);
    }
    uint64_t confident = 0;
    for (const ScoredDatabase& s : result.scored) {
      if (s.assessment.confident) ++confident;
    }
    series_.databases_confident->Increment(confident);
    std::move(result.scored.begin(), result.scored.end(),
              std::back_inserter(all));
  }
  if (!first_error.ok()) return first_error;

  std::sort(all.begin(), all.end(),
            [](const ScoredDatabase& a, const ScoredDatabase& b) {
              return a.database_id < b.database_id;
            });
  return all;
}

Result<std::vector<ScoredDatabase>> ScoringEngine::RunCycle(
    std::vector<std::vector<Event>> staged,
    std::vector<PendingDatabase> due) {
  Result<std::vector<ScoredDatabase>> scored =
      ScoreDue(std::move(staged), std::move(due));
  // Consume-and-reset: a dirty flag raised between cycles (e.g. ingest
  // retry exhaustion on a producer thread) degrades this cycle.
  const bool dirty =
      cycle_dirty_.exchange(false, std::memory_order_relaxed) ||
      !scored.ok();
  UpdateHealthAfterCycle(dirty);
  return scored;
}

Result<std::vector<ScoredDatabase>> ScoringEngine::Poll(Timestamp now) {
  series_.polls->Increment();
  if (options_.fault_injector != nullptr) {
    // A skewed poll clock. Negative skew (clock behind) is output-
    // neutral — databases just score on a later poll; positive skew can
    // score a window before all its events arrived, which is exactly
    // the bug class the plan is trying to reproduce.
    now += static_cast<Timestamp>(
        options_.fault_injector->Evaluate(fault::Site::kEngineClock)
            .skew_s);
  }
  std::vector<std::vector<Event>> staged = TrackStagedEvents();
  return RunCycle(std::move(staged), tracker_.TakeDue(now));
}

Result<std::vector<ScoredDatabase>> ScoringEngine::Drain() {
  series_.polls->Increment();
  std::vector<std::vector<Event>> staged = TrackStagedEvents();
  return RunCycle(std::move(staged), tracker_.TakeAll());
}

EngineMetrics ScoringEngine::Metrics() const {
  EngineMetrics m;
  m.events_ingested = ingest_.events_ingested();
  m.events_flushed = series_.events_flushed->Value();
  m.databases_tracked = tracker_.total_added();
  m.databases_cancelled = tracker_.total_cancelled();
  m.databases_scored = series_.databases_scored->Value();
  m.databases_confident = series_.databases_confident->Value();
  m.databases_skipped = series_.databases_skipped->Value();
  m.polls = series_.polls->Value();
  m.snapshots_built = series_.snapshots->Value();
  m.direct_read_batches = series_.direct_reads->Value();
  m.databases_fallback = series_.fallback_scored->Value();
  m.deadline_exceeded = series_.deadline_exceeded->Value();
  m.retries = series_.retries->Value();
  m.rejected_shed = series_.rejected_shed->Value();
  m.rejected_error = series_.rejected_error->Value();
  m.rejected_invalid = series_.rejected_invalid->Value();
  m.health = health();
  m.health_transitions = series_.health_transitions->Value();
  // Histogram quantiles: bucket-interpolated estimates, and exactly 0
  // when no assessment has run yet (an empty histogram has well-defined
  // quantiles — no empty-reservoir garbage).
  m.scoring_p50_us = series_.scoring_latency_us->Quantile(0.50);
  m.scoring_p99_us = series_.scoring_latency_us->Quantile(0.99);
  return m;
}

}  // namespace cloudsurv::serving
