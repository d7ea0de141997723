#ifndef CLOUDSURV_CORE_SERVICE_H_
#define CLOUDSURV_CORE_SERVICE_H_

#include <array>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "artifact/reader.h"
#include "core/provisioning.h"
#include "features/feature_plan.h"
#include "features/features.h"
#include "ml/flat_forest.h"
#include "ml/random_forest.h"
#include "telemetry/store.h"

namespace cloudsurv::core {

/// End-to-end lifespan service — the deployable form of the paper's
/// pipeline. Train() learns one random forest per creation edition from
/// historical telemetry (plus a pooled fallback model); Assess() then
/// scores any database that has completed its observation window and
/// recommends a resource pool, acting only on confident predictions
/// (sections 4, 5.3, 3.1).
class LongevityService {
 public:
  struct Options {
    double observe_days = 2.0;
    double long_threshold_days = 30.0;
    ml::ForestParams forest_params;
    features::FeatureConfig feature_config;
    /// Minimum labeled cohort size to train a per-edition model;
    /// smaller editions fall back to the pooled model.
    size_t min_cohort_size = 200;
    uint64_t seed = 1;

    Options() {
      forest_params.num_trees = 80;
      forest_params.max_depth = 14;
    }
  };

  /// One scored database.
  struct Assessment {
    int predicted_label = 0;            ///< 1 = long-lived.
    double positive_probability = 0.0;
    bool confident = false;
    double confidence_threshold = 0.5;  ///< t = max(q, 1-q) of the model.
    Pool recommended_pool = Pool::kGeneral;
    /// Which model scored it ("Basic", "Standard", "Premium", "pooled").
    std::string model_name;
  };

  /// Trains the per-edition and pooled models on `history`. Fails if
  /// even the pooled cohort is too small or single-class.
  static Result<LongevityService> Train(
      const telemetry::TelemetryStore& history, const Options& options =
          Options());

  /// Scores one database of `store` (typically live telemetry). The
  /// database must have survived the observation window; features are
  /// computed only from telemetry up to created_at + observe_days.
  Result<Assessment> Assess(const telemetry::TelemetryStore& store,
                            telemetry::DatabaseId id) const;

  /// The databases `ids` of one `store`: one part of a multi-store
  /// AssessMany call.
  struct AssessSegment {
    const telemetry::TelemetryStore* store = nullptr;
    std::span<const telemetry::DatabaseId> ids;
  };

  /// Scores the databases of several stores in one pass. Rows of every
  /// segment are grouped per resolved model slot, extracted into that
  /// slot's matrix (each segment's rows from its own store) and pushed
  /// through the compiled `ml::FlatForest` in one call per slot with
  /// `batch` (block size, traversal kernel; legacy per-row scoring when
  /// CompileForInference has not run). `out` holds one entry per id,
  /// segments concatenated in order; an entry is nullopt exactly when
  /// per-id Assess on that segment's store would fail (unknown id, too
  /// little telemetry). Every produced Assessment is bit-identical to
  /// the per-id call.
  Result<std::vector<std::optional<Assessment>>> AssessMany(
      std::span<const AssessSegment> segments,
      const ml::FlatForest::BatchOptions& batch = {}) const;

  /// The one-segment AssessMany: scores `ids` of `store`.
  Result<std::vector<std::optional<Assessment>>> AssessMany(
      const telemetry::TelemetryStore& store,
      const std::vector<telemetry::DatabaseId>& ids,
      const ml::FlatForest::BatchOptions& batch = {}) const;

  /// Convenience overload pinning only the block size (0 = the
  /// compiled forest's autotuned size); traversal kind stays kAuto.
  Result<std::vector<std::optional<Assessment>>> AssessMany(
      const telemetry::TelemetryStore& store,
      const std::vector<telemetry::DatabaseId>& ids,
      size_t block_rows) const;

  /// Compiles every trained forest into its flat inference form
  /// (ml::FlatForest). Call once after Train()/Load(); Assess and
  /// AssessMany then route through the flat representation.
  /// `ModelRegistry::Publish` does this at publish time.
  Status CompileForInference();

  /// True iff CompileForInference has run.
  bool inference_compiled() const {
    return pooled_model_.present && pooled_model_.flat.compiled();
  }

  /// Scores every eligible database of `store` and returns a placement
  /// plan over the confident ones.
  Result<PoolAssignmentPlan> PlanPlacements(
      const telemetry::TelemetryStore& store) const;

  /// True iff a dedicated model exists for `edition` (otherwise the
  /// pooled model serves it).
  bool HasEditionModel(telemetry::Edition edition) const;

  const Options& options() const { return options_; }

  /// Persists all trained models and thresholds to text; exact
  /// round trip via Load().
  std::string Save() const;

  /// Restores a service from Save() output.
  static Result<LongevityService> Load(const std::string& text);

  /// Persists the full service — options, per-slot thresholds, the
  /// trainable forests, and their compiled `ml::FlatForest` form — as
  /// one CSRV binary artifact at `path` (atomic tmp-file + rename).
  /// Slots that are not yet compiled are compiled on the fly; the
  /// service itself is not mutated.
  Status SaveArtifact(const std::string& path) const;

  /// Restores a service from a SaveArtifact() file. The compiled
  /// forests are bound directly to the (typically mmap'ed) file bytes —
  /// zero per-array copies — so the returned service is immediately
  /// inference_compiled(). Corrupt, truncated, or version-mismatched
  /// files are rejected with a precise error.
  static Result<LongevityService> LoadArtifact(
      const std::string& path,
      const artifact::ArtifactReader::Options& reader_options);
  static Result<LongevityService> LoadArtifact(const std::string& path) {
    return LoadArtifact(path, artifact::ArtifactReader::Options());
  }

 private:
  LongevityService() = default;

  struct ModelSlot {
    bool present = false;
    ml::RandomForestClassifier forest;
    /// Compiled inference form; empty until CompileForInference().
    ml::FlatForest flat;
    double threshold = 0.5;  ///< max(q, 1-q) from the training cohort.
  };

  const ModelSlot& SlotFor(telemetry::Edition edition) const;

  /// Compiles feature_plan_ from options_; call whenever options_ is
  /// set. A config the plan rejects leaves it uncompiled.
  void CompileFeaturePlan();

  Options options_;
  /// The extraction plan AssessMany uses, compiled once per service.
  /// Uncompiled iff the plan rejects the config, in which case every
  /// per-id extraction fails too and AssessMany returns all nullopt.
  features::FeaturePlan feature_plan_;
  std::array<ModelSlot, telemetry::kNumEditions> edition_models_;
  ModelSlot pooled_model_;
};

}  // namespace cloudsurv::core

#endif  // CLOUDSURV_CORE_SERVICE_H_
