#include "core/service.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <numeric>
#include <sstream>

#include "artifact/format.h"
#include "artifact/writer.h"
#include "common/string_util.h"
#include "core/cohort.h"
#include "features/feature_plan.h"

namespace cloudsurv::core {

namespace {

using telemetry::Edition;
using telemetry::TelemetryStore;

using EditionRows = std::array<std::vector<size_t>, telemetry::kNumEditions>;

// The pooled prediction cohort's dataset, and each edition's rows of it.
// An edition's cohort is the pooled cohort filtered by creation edition,
// in the same order, so those rows are its own cohort's dataset.
Result<ml::Dataset> PooledDataset(const TelemetryStore& history,
                                  const LongevityService::Options& options,
                                  EditionRows& edition_rows) {
  CLOUDSURV_ASSIGN_OR_RETURN(
      PredictionCohort cohort,
      BuildPredictionCohort(history, options.observe_days,
                            options.long_threshold_days));
  if (cohort.ids.size() < options.min_cohort_size) {
    return Status::FailedPrecondition("cohort too small");
  }
  for (size_t i = 0; i < cohort.editions.size(); ++i) {
    edition_rows[static_cast<size_t>(cohort.editions[i])].push_back(i);
  }
  features::FeatureConfig feature_config = options.feature_config;
  feature_config.observation_days = options.observe_days;
  return features::BuildDataset(history, cohort.ids, cohort.labels,
                                feature_config);
}

// Fits one model slot on `rows` of `dataset`; returns the forest and its
// confidence threshold max(q, 1-q).
Result<std::pair<ml::RandomForestClassifier, double>> TrainSlot(
    const ml::Dataset& dataset, const std::vector<size_t>& rows,
    const LongevityService::Options& options) {
  if (rows.size() < options.min_cohort_size) {
    return Status::FailedPrecondition("cohort too small");
  }
  size_t positives = 0;
  for (size_t r : rows) positives += dataset.label(r) == 1 ? 1 : 0;
  if (positives == 0 || positives == rows.size()) {
    return Status::FailedPrecondition("single-class cohort");
  }
  const double q =
      static_cast<double>(positives) / static_cast<double>(rows.size());
  ml::RandomForestClassifier forest;
  CLOUDSURV_RETURN_NOT_OK(forest.FitOnRows(
      dataset, rows, options.forest_params, options.seed));
  return std::make_pair(std::move(forest), std::max(q, 1.0 - q));
}

}  // namespace

Result<LongevityService> LongevityService::Train(
    const TelemetryStore& history, const Options& options) {
  if (!history.readable()) {
    return Status::FailedPrecondition("history store is not readable");
  }
  LongevityService service;
  service.options_ = options;
  service.CompileFeaturePlan();

  // Pooled fallback first; it must exist.
  auto pooled_failure = [](const Status& status) {
    return Status::FailedPrecondition("cannot train pooled model: " +
                                      status.message());
  };
  EditionRows edition_rows;
  auto dataset = PooledDataset(history, options, edition_rows);
  if (!dataset.ok()) return pooled_failure(dataset.status());
  std::vector<size_t> all(dataset->num_rows());
  std::iota(all.begin(), all.end(), 0);
  auto pooled = TrainSlot(*dataset, all, options);
  if (!pooled.ok()) return pooled_failure(pooled.status());
  service.pooled_model_.present = true;
  service.pooled_model_.forest = std::move(pooled->first);
  service.pooled_model_.threshold = pooled->second;

  for (int e = 0; e < telemetry::kNumEditions; ++e) {
    auto slot =
        TrainSlot(*dataset, edition_rows[static_cast<size_t>(e)], options);
    if (!slot.ok()) continue;  // fall back to pooled for this edition
    auto& model = service.edition_models_[static_cast<size_t>(e)];
    model.present = true;
    model.forest = std::move(slot->first);
    model.threshold = slot->second;
  }
  return service;
}

const LongevityService::ModelSlot& LongevityService::SlotFor(
    Edition edition) const {
  const ModelSlot& slot =
      edition_models_[static_cast<size_t>(edition)];
  return slot.present ? slot : pooled_model_;
}

void LongevityService::CompileFeaturePlan() {
  features::FeatureConfig feature_config = options_.feature_config;
  feature_config.observation_days = options_.observe_days;
  auto plan = features::FeaturePlan::Compile(feature_config);
  feature_plan_ = plan.ok() ? *std::move(plan) : features::FeaturePlan();
}

bool LongevityService::HasEditionModel(Edition edition) const {
  return edition_models_[static_cast<size_t>(edition)].present;
}

Result<LongevityService::Assessment> LongevityService::Assess(
    const TelemetryStore& store, telemetry::DatabaseId id) const {
  if (!pooled_model_.present) {
    return Status::FailedPrecondition("service is not trained");
  }
  CLOUDSURV_ASSIGN_OR_RETURN(const telemetry::DatabaseRecord record,
                             store.FindDatabase(id));
  features::FeatureConfig feature_config = options_.feature_config;
  feature_config.observation_days = options_.observe_days;
  CLOUDSURV_ASSIGN_OR_RETURN(
      std::vector<double> row,
      features::ExtractFeatures(store, record, feature_config));

  const Edition edition = record.initial_edition();
  const ModelSlot& slot = SlotFor(edition);
  Assessment assessment;
  assessment.model_name =
      &slot == &pooled_model_ ? "pooled"
                              : telemetry::EditionToString(edition);
  // The flat path accumulates the same doubles in the same order as
  // PredictProba(row)[1] — routing through it changes nothing but speed.
  assessment.positive_probability =
      slot.flat.compiled() ? slot.flat.PredictPositive(row)
                           : slot.forest.PredictProba(row)[1];
  assessment.predicted_label =
      assessment.positive_probability > 0.5 ? 1 : 0;
  assessment.confidence_threshold = slot.threshold;
  assessment.confident =
      assessment.positive_probability >= slot.threshold ||
      assessment.positive_probability <= 1.0 - slot.threshold;
  if (assessment.confident) {
    assessment.recommended_pool =
        assessment.predicted_label == 1 ? Pool::kStable : Pool::kChurn;
  } else {
    assessment.recommended_pool = Pool::kGeneral;
  }
  return assessment;
}

Status LongevityService::CompileForInference() {
  if (!pooled_model_.present) {
    return Status::FailedPrecondition("service is not trained");
  }
  CLOUDSURV_ASSIGN_OR_RETURN(pooled_model_.flat,
                             ml::FlatForest::Compile(pooled_model_.forest));
  for (auto& slot : edition_models_) {
    if (!slot.present) continue;
    CLOUDSURV_ASSIGN_OR_RETURN(slot.flat,
                               ml::FlatForest::Compile(slot.forest));
  }
  return Status::OK();
}

Result<std::vector<std::optional<LongevityService::Assessment>>>
LongevityService::AssessMany(const TelemetryStore& store,
                             const std::vector<telemetry::DatabaseId>& ids,
                             size_t block_rows) const {
  ml::FlatForest::BatchOptions batch;
  batch.block_rows = block_rows;
  return AssessMany(store, ids, batch);
}

Result<std::vector<std::optional<LongevityService::Assessment>>>
LongevityService::AssessMany(const TelemetryStore& store,
                             const std::vector<telemetry::DatabaseId>& ids,
                             const ml::FlatForest::BatchOptions& batch) const {
  const AssessSegment segment{&store, ids};
  return AssessMany(std::span<const AssessSegment>(&segment, 1), batch);
}

Result<std::vector<std::optional<LongevityService::Assessment>>>
LongevityService::AssessMany(std::span<const AssessSegment> segments,
                             const ml::FlatForest::BatchOptions& batch) const {
  if (!pooled_model_.present) {
    return Status::FailedPrecondition("service is not trained");
  }
  size_t total = 0;
  for (const AssessSegment& segment : segments) total += segment.ids.size();
  std::vector<std::optional<Assessment>> out(total);
  if (!feature_plan_.compiled()) {
    // A config the plan rejects is one every per-id extraction would
    // reject too, and per-id Assess maps that to nullopt.
    return out;
  }
  const features::FeaturePlan& plan = feature_plan_;
  const size_t width = plan.num_features();

  // Group ids by resolved model slot so every group is extracted and
  // scored in one fused batch (at most kNumEditions + 1 groups): one
  // pass fills a reused row-major matrix, which feeds the compiled
  // forest directly — no per-row vectors, no intermediate Dataset. A
  // group's rows keep segment order, so each segment's rows form one
  // contiguous run, extracted from that segment's store.
  struct Run {
    size_t segment = 0;
    size_t begin = 0;  ///< First row of the run within the group.
    size_t end = 0;
  };
  struct Group {
    const ModelSlot* slot = nullptr;
    std::string model_name;
    std::vector<telemetry::DatabaseId> group_ids;
    std::vector<size_t> positions;  ///< Index into out.
    std::vector<Run> runs;
  };
  std::vector<Group> groups;
  size_t first_position = 0;
  for (size_t s = 0; s < segments.size(); ++s) {
    const AssessSegment& segment = segments[s];
    for (size_t i = 0; i < segment.ids.size(); ++i) {
      auto record = segment.store->FindDatabase(segment.ids[i]);
      if (!record.ok()) continue;  // nullopt, as per-id Assess would fail
      const Edition edition = (*record).initial_edition();
      const ModelSlot& slot = SlotFor(edition);
      Group* group = nullptr;
      for (auto& g : groups) {
        if (g.slot == &slot) {
          group = &g;
          break;
        }
      }
      if (group == nullptr) {
        groups.emplace_back();
        group = &groups.back();
        group->slot = &slot;
        group->model_name = &slot == &pooled_model_
                                ? "pooled"
                                : telemetry::EditionToString(edition);
      }
      const size_t row = group->group_ids.size();
      if (group->runs.empty() || group->runs.back().segment != s) {
        group->runs.push_back(Run{s, row, row});
      }
      ++group->runs.back().end;
      group->group_ids.push_back(segment.ids[i]);
      group->positions.push_back(first_position + i);
    }
    first_position += segment.ids.size();
  }

  std::vector<double> matrix;
  std::vector<uint8_t> row_ok;
  std::vector<uint8_t> run_ok;
  std::vector<double> dense;
  std::vector<double> probs;
  std::vector<double> row_copy;
  std::vector<size_t> scored_positions;
  for (auto& group : groups) {
    const size_t group_size = group.group_ids.size();
    matrix.assign(group_size * width, 0.0);
    row_ok.resize(group_size);
    // No pool here: AssessMany runs inside the serving engine's own
    // pool workers, and nested submission into a bounded queue could
    // deadlock. The caller parallelizes across shard groups instead.
    const std::span<const telemetry::DatabaseId> group_ids(group.group_ids);
    for (const Run& run : group.runs) {
      CLOUDSURV_RETURN_NOT_OK(plan.ExtractBatchPartial(
          *segments[run.segment].store,
          group_ids.subspan(run.begin, run.end - run.begin),
          matrix.data() + run.begin * width, &run_ok, /*pool=*/nullptr));
      std::copy(run_ok.begin(), run_ok.end(),
                row_ok.begin() + static_cast<ptrdiff_t>(run.begin));
    }
    scored_positions.clear();
    size_t num_rows = 0;
    for (size_t k = 0; k < group_size; ++k) {
      if (!row_ok[k]) continue;  // nullopt, as per-id Assess would fail
      if (num_rows != k) {
        std::memcpy(matrix.data() + num_rows * width,
                    matrix.data() + k * width, width * sizeof(double));
      }
      scored_positions.push_back(group.positions[k]);
      ++num_rows;
    }
    if (num_rows == 0) continue;
    probs.clear();
    if (group.slot->flat.compiled()) {
      const ml::FlatForest& flat = group.slot->flat;
      if (flat.num_classes() != 0 && flat.num_classes() != 2) {
        return Status::FailedPrecondition(
            "positive-class probabilities require a binary problem");
      }
      if (width != flat.num_features()) {
        return Status::InvalidArgument("feature count mismatch");
      }
      dense.assign(num_rows * flat.out_dim(), 0.0);
      CLOUDSURV_RETURN_NOT_OK(
          flat.PredictProbaBatch(matrix.data(), num_rows, dense.data(),
                                 batch));
      probs.resize(num_rows);
      if (flat.out_dim() == 1) {
        std::copy(dense.begin(), dense.end(), probs.begin());
      } else {
        for (size_t k = 0; k < num_rows; ++k) {
          probs[k] = dense[k * flat.out_dim() + 1];
        }
      }
    } else {
      probs.reserve(num_rows);
      for (size_t k = 0; k < num_rows; ++k) {
        row_copy.assign(matrix.begin() + static_cast<ptrdiff_t>(k * width),
                        matrix.begin() +
                            static_cast<ptrdiff_t>((k + 1) * width));
        probs.push_back(group.slot->forest.PredictProba(row_copy)[1]);
      }
    }
    for (size_t k = 0; k < scored_positions.size(); ++k) {
      Assessment assessment;
      assessment.model_name = group.model_name;
      assessment.positive_probability = probs[k];
      assessment.predicted_label =
          assessment.positive_probability > 0.5 ? 1 : 0;
      assessment.confidence_threshold = group.slot->threshold;
      assessment.confident =
          assessment.positive_probability >= group.slot->threshold ||
          assessment.positive_probability <= 1.0 - group.slot->threshold;
      if (assessment.confident) {
        assessment.recommended_pool =
            assessment.predicted_label == 1 ? Pool::kStable : Pool::kChurn;
      } else {
        assessment.recommended_pool = Pool::kGeneral;
      }
      out[scored_positions[k]] = std::move(assessment);
    }
  }
  return out;
}

Result<PoolAssignmentPlan> LongevityService::PlanPlacements(
    const TelemetryStore& store) const {
  std::vector<telemetry::DatabaseId> eligible;
  for (const telemetry::DatabaseRecord& record : store.databases()) {
    const double observed =
        record.ObservedLifespanDays(store.window_end());
    if (observed < options_.observe_days) continue;
    eligible.push_back(record.id);
  }
  CLOUDSURV_ASSIGN_OR_RETURN(auto assessments, AssessMany(store, eligible));
  PoolAssignmentPlan plan;
  for (size_t i = 0; i < eligible.size(); ++i) {
    if (!assessments[i].has_value()) continue;
    if (assessments[i]->recommended_pool != Pool::kGeneral) {
      plan.pools[eligible[i]] = assessments[i]->recommended_pool;
    }
  }
  return plan;
}

std::string LongevityService::Save() const {
  std::string out = "longevity_service v1\n";
  out += "observe_days " + FormatDouble(options_.observe_days, 6) + "\n";
  out += "long_threshold_days " +
         FormatDouble(options_.long_threshold_days, 6) + "\n";
  auto save_slot = [&out](const std::string& name, const ModelSlot& slot) {
    if (!slot.present) return;
    out += "model " + name + " " + FormatDouble(slot.threshold, 17) + "\n";
    const std::string blob = slot.forest.Serialize();
    out += "blob_bytes " + std::to_string(blob.size()) + "\n";
    out += blob;
  };
  save_slot("pooled", pooled_model_);
  for (int e = 0; e < telemetry::kNumEditions; ++e) {
    save_slot(telemetry::EditionToString(static_cast<Edition>(e)),
              edition_models_[static_cast<size_t>(e)]);
  }
  return out;
}

Result<LongevityService> LongevityService::Load(const std::string& text) {
  LongevityService service;
  size_t pos = 0;
  auto next_line = [&]() -> std::optional<std::string> {
    if (pos >= text.size()) return std::nullopt;
    const size_t end = text.find('\n', pos);
    std::string line = text.substr(
        pos, end == std::string::npos ? std::string::npos : end - pos);
    pos = end == std::string::npos ? text.size() : end + 1;
    return line;
  };

  auto header = next_line();
  if (!header || *header != "longevity_service v1") {
    return Status::InvalidArgument("unrecognized service format");
  }
  // A key's value must parse cleanly AND consume the whole line;
  // "observe_days 2.0 surprise" is rejected, not silently truncated.
  auto parse_double_line = [](std::istringstream& is, const std::string& line,
                              double* out) -> Status {
    std::string extra;
    if (!(is >> *out) || (is >> extra)) {
      return Status::InvalidArgument("malformed service line: '" + line +
                                     "'");
    }
    return Status::OK();
  };
  while (auto line = next_line()) {
    std::istringstream is(*line);
    std::string key;
    is >> key;
    if (key == "observe_days") {
      CLOUDSURV_RETURN_NOT_OK(
          parse_double_line(is, *line, &service.options_.observe_days));
    } else if (key == "long_threshold_days") {
      CLOUDSURV_RETURN_NOT_OK(parse_double_line(
          is, *line, &service.options_.long_threshold_days));
    } else if (key == "model") {
      std::string name;
      double threshold = 0.5;
      std::string extra;
      if (!(is >> name >> threshold) || (is >> extra)) {
        return Status::InvalidArgument("malformed model line: '" + *line +
                                       "'");
      }
      if (!(threshold >= 0.0 && threshold <= 1.0)) {
        return Status::InvalidArgument(
            "model " + name + " has confidence threshold " +
            FormatDouble(threshold, 6) + " outside [0, 1]");
      }
      auto size_line = next_line();
      if (!size_line) {
        return Status::InvalidArgument("missing blob size for model " +
                                       name);
      }
      // Strict "blob_bytes <decimal>" — std::from_chars on an unsigned
      // target rejects a leading '-', reports overflow, and lets us
      // require that the digits span the rest of the line.
      constexpr const char kSizePrefix[] = "blob_bytes ";
      constexpr size_t kSizePrefixLen = sizeof(kSizePrefix) - 1;
      if (size_line->rfind(kSizePrefix, 0) != 0) {
        return Status::InvalidArgument("malformed blob size line: '" +
                                       *size_line + "'");
      }
      const char* digits = size_line->data() + kSizePrefixLen;
      const char* digits_end = size_line->data() + size_line->size();
      size_t blob_size = 0;
      const auto parsed = std::from_chars(digits, digits_end, blob_size);
      if (digits == digits_end || parsed.ec != std::errc() ||
          parsed.ptr != digits_end) {
        return Status::InvalidArgument(
            "bad blob size '" + size_line->substr(kSizePrefixLen) +
            "' for model " + name +
            " (expected a non-negative byte count)");
      }
      if (blob_size > text.size() - pos) {
        return Status::InvalidArgument(
            "truncated model blob: " + name + " declares " +
            std::to_string(blob_size) + " bytes, only " +
            std::to_string(text.size() - pos) + " remain");
      }
      const std::string blob = text.substr(pos, blob_size);
      pos += blob_size;
      CLOUDSURV_ASSIGN_OR_RETURN(
          ml::RandomForestClassifier forest,
          ml::RandomForestClassifier::Deserialize(blob));
      ModelSlot* slot = nullptr;
      if (name == "pooled") {
        slot = &service.pooled_model_;
      } else {
        Edition edition;
        if (!telemetry::EditionFromString(name, &edition)) {
          return Status::InvalidArgument("unknown model name: " + name);
        }
        slot = &service.edition_models_[static_cast<size_t>(edition)];
      }
      if (slot->present) {
        return Status::InvalidArgument("duplicate model '" + name +
                                       "' in saved service");
      }
      slot->present = true;
      slot->forest = std::move(forest);
      slot->threshold = threshold;
    } else if (key.empty()) {
      continue;
    } else {
      return Status::InvalidArgument("unknown service key: " + key);
    }
  }
  service.CompileFeaturePlan();
  if (!service.pooled_model_.present) {
    return Status::InvalidArgument("saved service lacks a pooled model");
  }
  return service;
}

namespace {

/// Slot layout inside a service artifact: 0 is the pooled fallback,
/// 1 + e the dedicated model for edition e.
std::string SlotName(uint32_t slot) {
  return slot == 0 ? "pooled"
                   : telemetry::EditionToString(
                         static_cast<Edition>(slot - 1));
}

}  // namespace

Status LongevityService::SaveArtifact(const std::string& path) const {
  if (!pooled_model_.present) {
    return Status::FailedPrecondition("service is not trained");
  }
  artifact::ArtifactWriter writer(artifact::PayloadKind::kService);

  artifact::ServiceMeta meta{};
  meta.observe_days = options_.observe_days;
  meta.long_threshold_days = options_.long_threshold_days;
  meta.num_models = 1;
  for (const auto& slot : edition_models_) {
    if (slot.present) ++meta.num_models;
  }
  writer.AddStruct(artifact::SectionId::kServiceMeta, 0, meta);

  auto add_slot = [&writer](uint32_t slot_index,
                            const ModelSlot& slot) -> Status {
    const std::string name = SlotName(slot_index);
    if (name.size() > artifact::kMaxModelNameLen) {
      return Status::InvalidArgument("model name too long: " + name);
    }
    artifact::ModelEntry entry{};
    entry.slot = slot_index;
    entry.name_len = static_cast<uint32_t>(name.size());
    entry.threshold = slot.threshold;
    std::memcpy(entry.name, name.data(), name.size());
    writer.AddStruct(artifact::SectionId::kModelEntry, slot_index, entry);
    // Trainable form (exact %.17g text blob) so a loaded artifact can
    // still be re-saved as text or re-compiled by a future build.
    writer.AddBytes(artifact::SectionId::kForestBlob, slot_index,
                    slot.forest.Serialize());
    // Compiled form: the SoA arrays a reader binds zero-copy.
    if (slot.flat.compiled()) {
      return slot.flat.WriteTo(writer, slot_index);
    }
    CLOUDSURV_ASSIGN_OR_RETURN(ml::FlatForest flat,
                               ml::FlatForest::Compile(slot.forest));
    return flat.WriteTo(writer, slot_index);
  };
  CLOUDSURV_RETURN_NOT_OK(add_slot(0, pooled_model_));
  for (int e = 0; e < telemetry::kNumEditions; ++e) {
    const auto& slot = edition_models_[static_cast<size_t>(e)];
    if (!slot.present) continue;
    CLOUDSURV_RETURN_NOT_OK(
        add_slot(static_cast<uint32_t>(e) + 1, slot));
  }
  return writer.WriteFile(path);
}

Result<LongevityService> LongevityService::LoadArtifact(
    const std::string& path,
    const artifact::ArtifactReader::Options& reader_options) {
  CLOUDSURV_ASSIGN_OR_RETURN(
      artifact::ArtifactReader reader,
      artifact::ArtifactReader::Open(path, reader_options));
  if (reader.payload() != artifact::PayloadKind::kService) {
    return Status::InvalidArgument(
        path + ": artifact holds payload kind " +
        std::to_string(static_cast<uint32_t>(reader.payload())) +
        ", not a service snapshot (pack one with 'cloudsurv pack')");
  }
  CLOUDSURV_ASSIGN_OR_RETURN(
      artifact::ServiceMeta meta,
      reader.Struct<artifact::ServiceMeta>(
          artifact::SectionId::kServiceMeta, 0));

  LongevityService service;
  service.options_.observe_days = meta.observe_days;
  service.options_.long_threshold_days = meta.long_threshold_days;

  uint32_t loaded = 0;
  for (const artifact::SectionEntry& section : reader.sections()) {
    if (section.id !=
        static_cast<uint32_t>(artifact::SectionId::kModelEntry)) {
      continue;
    }
    CLOUDSURV_ASSIGN_OR_RETURN(
        artifact::ModelEntry entry,
        reader.Struct<artifact::ModelEntry>(
            artifact::SectionId::kModelEntry, section.index));
    if (entry.slot != section.index ||
        entry.slot > static_cast<uint32_t>(telemetry::kNumEditions)) {
      return Status::InvalidArgument(
          path + ": model entry has out-of-range slot " +
          std::to_string(entry.slot));
    }
    if (entry.name_len > artifact::kMaxModelNameLen) {
      return Status::InvalidArgument(
          path + ": model entry has oversized name length " +
          std::to_string(entry.name_len));
    }
    const std::string name(entry.name, entry.name_len);
    if (name != SlotName(entry.slot)) {
      return Status::InvalidArgument(
          path + ": slot " + std::to_string(entry.slot) +
          " is named '" + name + "', expected '" +
          SlotName(entry.slot) + "'");
    }
    ModelSlot* slot =
        entry.slot == 0
            ? &service.pooled_model_
            : &service.edition_models_[entry.slot - 1];
    if (slot->present) {
      return Status::InvalidArgument(path + ": duplicate model slot " +
                                     std::to_string(entry.slot));
    }

    const artifact::SectionEntry* blob =
        reader.Find(artifact::SectionId::kForestBlob, entry.slot);
    if (blob == nullptr) {
      return Status::InvalidArgument(path + ": model '" + name +
                                     "' lacks a forest blob section");
    }
    const std::string blob_text(
        reinterpret_cast<const char*>(reader.SectionBytes(*blob)),
        static_cast<size_t>(blob->size));
    CLOUDSURV_ASSIGN_OR_RETURN(
        slot->forest, ml::RandomForestClassifier::Deserialize(blob_text));
    // Bind the compiled form straight to the artifact bytes; the slot's
    // FlatForest pins the mapping via its backing reference.
    CLOUDSURV_ASSIGN_OR_RETURN(slot->flat,
                               ml::FlatForest::FromView(reader, entry.slot));
    slot->threshold = entry.threshold;
    slot->present = true;
    ++loaded;
  }
  if (loaded != meta.num_models) {
    return Status::InvalidArgument(
        path + ": service meta declares " +
        std::to_string(meta.num_models) + " models, found " +
        std::to_string(loaded));
  }
  service.CompileFeaturePlan();
  if (!service.pooled_model_.present) {
    return Status::InvalidArgument(path +
                                   ": artifact lacks a pooled model");
  }
  return service;
}

}  // namespace cloudsurv::core
