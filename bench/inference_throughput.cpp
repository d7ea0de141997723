// Inference throughput: compiles a trained random forest into the flat
// SoA representation (ml/flat_forest.h), scores a synthetic matrix in
// batches through the legacy per-row path and the blocked flat path,
// and reports rows/sec plus p50/p99 per-batch latency for each batch
// size x thread count x traversal kernel (scalar, AVX2 when the
// build/CPU has it, and the quantized code path when the forest is
// quantizable), with the flat-vs-legacy speedup. Every flat prediction
// is checked bit-for-bit against the legacy output — any mismatch
// fails the bench (non-zero exit). Speedups are informational: on a
// single-core container the parallel sweep cannot demonstrate the
// multi-core acceptance number, so only bit-identity is load-bearing;
// tools/bench_check.py gates the speedup ratios against a committed
// baseline in CI.
//
// A startup-to-first-score axis persists the same forest both ways and
// measures the cold-start path each deployment shape pays: text load +
// Deserialize + Compile, versus opening the CSRV binary artifact
// (artifact/reader.h) with an mmap'ed cold page cache (best-effort
// eviction via posix_fadvise), a warm cache, and the buffered-read
// fallback — each timed through the first scored row.
//
// Scale knobs (environment): CLOUDSURV_BENCH_ROWS (default 32768),
// CLOUDSURV_BENCH_FEATURES (30), CLOUDSURV_BENCH_TREES (80),
// CLOUDSURV_BENCH_DEPTH (12), CLOUDSURV_BENCH_ITERS (5),
// CLOUDSURV_THREADS (8). Reports JSON on stdout.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "artifact/reader.h"
#include "artifact/writer.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/dataset.h"
#include "ml/flat_forest.h"
#include "ml/random_forest.h"
#include "ml/simd/traversal.h"

namespace {

using namespace cloudsurv;

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

double Seconds(const std::chrono::steady_clock::time_point& t0,
               const std::chrono::steady_clock::time_point& t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// Continuous features with a noisy linear label rule (same shape as the
// training bench) so the forest grows to real depth. `grid` > 0 snaps
// every value onto a grid of that many points — few distinct values per
// feature keeps the compiled cut tables within the uint8 code budget,
// exercising the narrowest quantized tier.
ml::Dataset SyntheticMatrix(size_t rows, size_t features, size_t grid,
                            uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  names.reserve(features);
  for (size_t f = 0; f < features; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    names.push_back(std::move(name));
  }
  std::vector<std::vector<double>> matrix;
  std::vector<int> labels;
  matrix.reserve(rows);
  labels.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<double> row(features);
    double score = 0.0;
    for (size_t f = 0; f < features; ++f) {
      double v = rng.Normal(0.0, 1.0);
      if (grid > 0) {
        const double step = 6.0 / static_cast<double>(grid);
        v = std::max(-3.0, std::min(3.0, v));
        v = std::round(v / step) * step;
      }
      row[f] = v;
      if (f < 5) score += row[f] * (f % 2 == 0 ? 1.0 : -1.0);
    }
    labels.push_back(score + rng.Normal(0.0, 1.0) > 0.0 ? 1 : 0);
    matrix.push_back(std::move(row));
  }
  auto d = ml::Dataset::Make(names, std::move(matrix), std::move(labels));
  if (!d.ok()) {
    std::fprintf(stderr, "dataset build failed: %s\n",
                 d.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(d).value();
}

double PercentileUs(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t index = static_cast<size_t>(
      p / 100.0 * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(index, samples.size() - 1)];
}

struct BatchStats {
  double rows_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double MedianMs(std::vector<double> ms) { return PercentileUs(std::move(ms), 50.0); }

// Best-effort page-cache eviction so the next read of `path` faults in
// from disk. Returns false when the platform (or filesystem) cannot
// honour the advice; the "cold" number then degrades to warm and the
// JSON says so.
bool DropFileCache(const std::string& path) {
#if !defined(_WIN32)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return false;
#endif
}

BatchStats Summarize(const std::vector<double>& batch_seconds,
                     size_t total_rows) {
  BatchStats stats;
  double total_s = 0.0;
  std::vector<double> us;
  us.reserve(batch_seconds.size());
  for (double s : batch_seconds) {
    total_s += s;
    us.push_back(s * 1e6);
  }
  stats.rows_per_sec =
      total_s > 0.0 ? static_cast<double>(total_rows) / total_s : 0.0;
  stats.p50_us = PercentileUs(us, 50.0);
  stats.p99_us = PercentileUs(us, 99.0);
  return stats;
}

}  // namespace

int main() {
  const size_t rows = EnvSize("CLOUDSURV_BENCH_ROWS", 32768);
  const size_t features = EnvSize("CLOUDSURV_BENCH_FEATURES", 30);
  const size_t trees = EnvSize("CLOUDSURV_BENCH_TREES", 80);
  const int depth = static_cast<int>(EnvSize("CLOUDSURV_BENCH_DEPTH", 12));
  const size_t iters = EnvSize("CLOUDSURV_BENCH_ITERS", 5);
  const size_t max_threads = EnvSize("CLOUDSURV_THREADS", 8);
  const size_t grid = EnvSize("CLOUDSURV_BENCH_GRID", 0);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  const ml::Dataset data = SyntheticMatrix(rows, features, grid, 99);

  ml::ForestParams params;
  params.num_trees = static_cast<int>(trees);
  params.max_depth = depth;
  params.split_algorithm = ml::SplitAlgorithm::kHistogram;
  ml::RandomForestClassifier forest;
  if (Status fitted = forest.Fit(data, params, 99); !fitted.ok()) {
    std::fprintf(stderr, "fit failed: %s\n", fitted.ToString().c_str());
    return 1;
  }

  const auto c0 = std::chrono::steady_clock::now();
  auto compiled = ml::FlatForest::Compile(forest);
  const auto c1 = std::chrono::steady_clock::now();
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  const ml::FlatForest& flat = *compiled;
  if (Status check = flat.SelfCheck(); !check.ok()) {
    std::fprintf(stderr, "self check failed: %s\n",
                 check.ToString().c_str());
    return 1;
  }

  // Reference predictions; every flat batch below must match exactly.
  auto reference = forest.PredictPositiveProba(data);
  if (!reference.ok()) {
    std::fprintf(stderr, "legacy predict failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }

  // --- Startup-to-first-score axis -------------------------------------
  // Persist the trained forest as (a) the text serialization a train box
  // writes and (b) a CSRV binary artifact, then measure load-to-first-
  // score for each deployment shape. The probe row's score must be
  // bit-identical to the legacy reference in every mode.
  const std::string scratch =
      (std::filesystem::temp_directory_path() / "cloudsurv_infer_bench")
          .string();
  const std::string text_path = scratch + ".txt";
  const std::string csrv_path = scratch + ".csrv";
  {
    std::ofstream out(text_path, std::ios::binary | std::ios::trunc);
    out << forest.Serialize();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", text_path.c_str());
      return 1;
    }
  }
  {
    artifact::ArtifactWriter writer(artifact::PayloadKind::kFlatForest);
    if (Status s = flat.WriteTo(writer); !s.ok()) {
      std::fprintf(stderr, "artifact pack failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    if (Status s = writer.WriteFile(csrv_path); !s.ok()) {
      std::fprintf(stderr, "artifact write failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  const size_t text_bytes = std::filesystem::file_size(text_path);
  const size_t artifact_bytes = std::filesystem::file_size(csrv_path);

  std::vector<std::vector<double>> probe_rows = {data.row(0)};
  auto probe_made = ml::Dataset::Make(data.feature_names(),
                                      std::move(probe_rows), {data.label(0)});
  if (!probe_made.ok()) return 1;
  const ml::Dataset probe = std::move(probe_made).value();
  const double first_ref = (*reference)[0];

  const auto score_probe = [&probe](const ml::FlatForest& f) -> double {
    auto out = f.PredictPositiveProbaBatch(probe);
    if (!out.ok()) {
      std::fprintf(stderr, "startup probe score failed: %s\n",
                   out.status().ToString().c_str());
      std::exit(1);
    }
    return (*out)[0];
  };

  std::vector<double> text_ms, cold_ms, warm_ms, buffered_ms;
  bool startup_identical = true;
  bool mmap_zero_copy = true;
  bool cold_cache_dropped = true;
  for (size_t it = 0; it < iters; ++it) {
    {  // Text model: read + Deserialize + Compile + first score.
      const auto t0 = std::chrono::steady_clock::now();
      std::ifstream in(text_path, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      auto loaded = ml::RandomForestClassifier::Deserialize(buf.str());
      if (!loaded.ok()) return 1;
      auto recompiled = ml::FlatForest::Compile(*loaded);
      if (!recompiled.ok()) return 1;
      const double score = score_probe(*recompiled);
      const auto t1 = std::chrono::steady_clock::now();
      text_ms.push_back(Seconds(t0, t1) * 1e3);
      if (score != first_ref) startup_identical = false;
    }
    const auto artifact_run = [&](const artifact::ArtifactReader::Options&
                                      options,
                                  std::vector<double>& samples,
                                  bool expect_mapped) {
      const auto t0 = std::chrono::steady_clock::now();
      auto reader = artifact::ArtifactReader::Open(csrv_path, options);
      if (!reader.ok()) {
        std::fprintf(stderr, "artifact open failed: %s\n",
                     reader.status().ToString().c_str());
        std::exit(1);
      }
      auto view = ml::FlatForest::FromView(*reader);
      if (!view.ok()) {
        std::fprintf(stderr, "artifact view failed: %s\n",
                     view.status().ToString().c_str());
        std::exit(1);
      }
      const double score = score_probe(*view);
      const auto t1 = std::chrono::steady_clock::now();
      samples.push_back(Seconds(t0, t1) * 1e3);
      if (score != first_ref) startup_identical = false;
      if (expect_mapped && reader->mapped() && !view->zero_copy()) {
        mmap_zero_copy = false;
      }
    };
    artifact::ArtifactReader::Options mmap_options;  // prefer_mmap = true
    if (!DropFileCache(csrv_path)) cold_cache_dropped = false;
    artifact_run(mmap_options, cold_ms, /*expect_mapped=*/true);
    artifact_run(mmap_options, warm_ms, /*expect_mapped=*/true);
    artifact::ArtifactReader::Options buffered_options;
    buffered_options.prefer_mmap = false;
    artifact_run(buffered_options, buffered_ms, /*expect_mapped=*/false);
  }
  std::remove(text_path.c_str());
  std::remove(csrv_path.c_str());
  const double startup_text_ms = MedianMs(text_ms);
  const double startup_warm_ms = MedianMs(warm_ms);
  const double warm_speedup =
      startup_warm_ms > 0.0 ? startup_text_ms / startup_warm_ms : 0.0;

  // Pre-split the matrix into per-batch datasets (untimed copies). 64
  // rows is the batch the serving path and the nightly plan send.
  const std::vector<size_t> batch_sizes = {64, 512, 4096,
                                           std::min<size_t>(rows, 16384)};
  bool bit_identical = true;
  size_t mismatches = 0;

  std::printf("{\n");
  std::printf(
      "  \"rows\": %zu, \"features\": %zu, \"trees\": %zu, "
      "\"depth\": %d, \"iterations\": %zu, \"cores\": %u,\n",
      rows, features, trees, depth, iters, cores);
  std::printf(
      "  \"compile\": {\"ms\": %.3f, \"nodes\": %zu, \"leaves\": %zu, "
      "\"memory_bytes\": %zu, \"quantized\": %s, \"code_bits\": %d, "
      "\"tuned_block_rows\": %zu, \"breadth_first\": %s},\n",
      Seconds(c0, c1) * 1e3, flat.num_nodes(), flat.num_leaves(),
      flat.memory_bytes(), flat.quantized() ? "true" : "false",
      flat.code_bits(), flat.tuned_block_rows(),
      flat.nodes_breadth_first() ? "true" : "false");
  std::printf(
      "  \"simd\": {\"avx2_compiled_in\": %s, \"avx2_available\": %s, "
      "\"force_scalar\": %s},\n",
      ml::simd::Avx2CompiledIn() ? "true" : "false",
      ml::simd::Avx2Supported() ? "true" : "false",
      ml::simd::ForceScalar() ? "true" : "false");
  std::printf(
      "  \"startup\": {\"iterations\": %zu, \"text_bytes\": %zu, "
      "\"artifact_bytes\": %zu,\n"
      "    \"text_load_compile_ms\": %.3f, \"artifact_mmap_cold_ms\": %.3f, "
      "\"artifact_mmap_warm_ms\": %.3f, \"artifact_buffered_ms\": %.3f,\n"
      "    \"mmap_zero_copy\": %s, \"cold_cache_dropped\": %s, "
      "\"warm_speedup_vs_text\": %.2f, \"first_score_identical\": %s},\n",
      iters, text_bytes, artifact_bytes, startup_text_ms, MedianMs(cold_ms),
      startup_warm_ms, MedianMs(buffered_ms),
      mmap_zero_copy ? "true" : "false",
      cold_cache_dropped ? "true" : "false", warm_speedup,
      startup_identical ? "true" : "false");

  // Flat-path configurations: the portable scalar kernel always runs;
  // the AVX2 kernel runs when the build and CPU both have it; the
  // quantized (integer-code) path runs when the forest is quantizable.
  // The quantized path ignores the traversal kind, so it is swept once
  // and labelled as its own kernel rather than crossed with the kinds.
  struct FlatConfig {
    ml::simd::TraversalKind kind;
    bool use_quantized;
    const char* label;
  };
  std::vector<FlatConfig> flat_configs;
  flat_configs.push_back(
      {ml::simd::TraversalKind::kScalar, false, "scalar"});
  if (ml::simd::Avx2Supported()) {
    flat_configs.push_back({ml::simd::TraversalKind::kAvx2, false, "avx2"});
  }
  if (flat.quantized()) {
    flat_configs.push_back(
        {ml::simd::TraversalKind::kScalar, true, "quantized"});
  }

  std::printf("  \"runs\": [\n");
  bool first_run = true;
  double best_speedup_4096 = 0.0;
  for (size_t batch_rows : batch_sizes) {
    std::vector<ml::Dataset> batches;
    for (size_t lo = 0; lo < rows; lo += batch_rows) {
      const size_t hi = std::min(rows, lo + batch_rows);
      std::vector<std::vector<double>> slice;
      std::vector<int> labels;
      slice.reserve(hi - lo);
      for (size_t i = lo; i < hi; ++i) {
        slice.push_back(data.row(i));
        labels.push_back(data.label(i));
      }
      auto d = ml::Dataset::Make(data.feature_names(), std::move(slice),
                                 std::move(labels));
      if (!d.ok()) return 1;
      batches.push_back(std::move(d).value());
    }

    // Legacy baseline: the allocation-lean per-row loop.
    std::vector<double> legacy_seconds;
    for (size_t it = 0; it < iters; ++it) {
      for (const auto& batch : batches) {
        const auto t0 = std::chrono::steady_clock::now();
        auto out = forest.PredictPositiveProba(batch);
        const auto t1 = std::chrono::steady_clock::now();
        if (!out.ok()) return 1;
        legacy_seconds.push_back(Seconds(t0, t1));
      }
    }
    const BatchStats legacy = Summarize(legacy_seconds, rows * iters);
    std::printf(
        "%s    {\"mode\": \"legacy\", \"batch_rows\": %zu, \"threads\": 1, "
        "\"rows_per_sec\": %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f}",
        first_run ? "" : ",\n", batch_rows, legacy.rows_per_sec,
        legacy.p50_us, legacy.p99_us);
    first_run = false;

    // Flat path: thread sweep (1 = sequential, no pool) x traversal
    // kernel (scalar / AVX2 / quantized integer codes).
    std::vector<size_t> thread_sweep = {1};
    for (size_t t = 2; t <= max_threads; t *= 2) thread_sweep.push_back(t);
    for (const FlatConfig& cfg : flat_configs)
    for (size_t num_threads : thread_sweep) {
      ThreadPool pool(num_threads, /*max_queued=*/1024);
      ml::FlatForest::BatchOptions options;
      options.pool = num_threads > 1 ? &pool : nullptr;
      options.use_quantized = cfg.use_quantized;
      options.traversal = cfg.kind;

      std::vector<double> flat_seconds;
      for (size_t it = 0; it < iters; ++it) {
        size_t offset = 0;
        for (const auto& batch : batches) {
          const auto t0 = std::chrono::steady_clock::now();
          auto out = flat.PredictPositiveProbaBatch(batch, options);
          const auto t1 = std::chrono::steady_clock::now();
          if (!out.ok()) {
            std::fprintf(stderr, "flat predict failed: %s\n",
                         out.status().ToString().c_str());
            return 1;
          }
          flat_seconds.push_back(Seconds(t0, t1));
          if (it == 0) {
            for (size_t i = 0; i < out->size(); ++i) {
              if ((*out)[i] != (*reference)[offset + i]) {
                bit_identical = false;
                ++mismatches;
              }
            }
          }
          offset += batch.num_rows();
        }
      }
      const BatchStats stats = Summarize(flat_seconds, rows * iters);
      const double speedup = legacy.rows_per_sec > 0.0
                                 ? stats.rows_per_sec / legacy.rows_per_sec
                                 : 0.0;
      if (batch_rows >= 4096) {
        best_speedup_4096 = std::max(best_speedup_4096, speedup);
      }
      std::printf(
          ",\n    {\"mode\": \"flat\", \"batch_rows\": %zu, "
          "\"threads\": %zu, \"traversal\": \"%s\", \"quantized\": %s, "
          "\"rows_per_sec\": %.0f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
          "\"speedup_vs_legacy\": %.2f}",
          batch_rows, num_threads, cfg.label,
          cfg.use_quantized ? "true" : "false", stats.rows_per_sec,
          stats.p50_us, stats.p99_us, speedup);
    }
  }
  std::printf("\n  ],\n");
  std::printf("  \"bit_identical\": %s, \"mismatches\": %zu,\n",
              bit_identical ? "true" : "false", mismatches);
  std::printf("  \"multi_core\": %s,\n", cores > 1 ? "true" : "false");
  std::printf("  \"best_speedup_at_batch_4096\": %.2f\n",
              best_speedup_4096);
  std::printf("}\n");
  if (cores <= 1) {
    std::fprintf(stderr,
                 "single-core container: speedups are informational, "
                 "bit-identity is the pass/fail signal\n");
  }
  cloudsurv::bench::EmitRegistrySnapshot();
  return bit_identical && startup_identical ? 0 : 1;
}
