#ifndef CLOUDSURV_ML_FLAT_FOREST_H_
#define CLOUDSURV_ML_FLAT_FOREST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "ml/dataset.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "ml/simd/traversal.h"

namespace cloudsurv::artifact {
class ArtifactBuffer;
class ArtifactReader;
class ArtifactWriter;
}  // namespace cloudsurv::artifact

namespace cloudsurv::ml {

namespace flat_internal {

/// Contiguous, read-mostly storage that either owns its elements
/// (vector-backed — the Compile() path) or aliases external memory
/// without copying (the artifact mmap path — FlatForest::FromView).
/// Copying an owning column deep-copies; copying a view copies the
/// alias, which is safe because FlatForest carries a shared handle to
/// the backing bytes alongside its view columns.
template <typename T>
class Column {
 public:
  Column() = default;
  Column(const Column& other) { CopyFrom(other); }
  Column& operator=(const Column& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Column(Column&& other) noexcept { MoveFrom(std::move(other)); }
  Column& operator=(Column&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  /// Takes ownership of `values`.
  void Adopt(std::vector<T> values) {
    owned_ = std::move(values);
    data_ = owned_.data();
    size_ = owned_.size();
    owns_ = true;
  }

  /// Aliases `[data, data + size)`; the caller guarantees the bytes
  /// outlive every copy of this column.
  void BindView(const T* data, size_t size) {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = data;
    size_ = size;
    owns_ = false;
  }

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// False when this column aliases artifact-backed memory.
  bool owns() const { return owns_; }
  const T& operator[](size_t i) const { return data_[i]; }
  const T& front() const { return data_[0]; }
  const T& back() const { return data_[size_ - 1]; }

 private:
  void CopyFrom(const Column& other) {
    owns_ = other.owns_;
    if (other.owns_) {
      owned_ = other.owned_;
      data_ = owned_.data();
      size_ = owned_.size();
    } else {
      owned_.clear();
      owned_.shrink_to_fit();
      data_ = other.data_;
      size_ = other.size_;
    }
  }
  void MoveFrom(Column&& other) {
    owns_ = other.owns_;
    if (other.owns_) {
      // A vector move transfers the heap buffer, so the element
      // address is stable across the move.
      owned_ = std::move(other.owned_);
      data_ = owned_.data();
      size_ = owned_.size();
    } else {
      owned_.clear();
      owned_.shrink_to_fit();
      data_ = other.data_;
      size_ = other.size_;
    }
    other.owned_.clear();
    other.data_ = nullptr;
    other.size_ = 0;
    other.owns_ = true;
  }

  std::vector<T> owned_;
  const T* data_ = nullptr;
  size_t size_ = 0;
  bool owns_ = true;  ///< True (vacuously) in the default empty state.
};

}  // namespace flat_internal

/// Compiled, immutable inference representation of a trained tree
/// ensemble — the serving-path counterpart of the training-oriented
/// `DecisionTreeClassifier`/`GradientBoostedTreesClassifier` node
/// structs (which keep a heap-allocated probability vector per node and
/// therefore pay a cache miss per node hop).
///
/// Layout: struct-of-arrays node storage. All trees are packed
/// back-to-back into contiguous `feature`/`threshold`/`left`/`right`
/// arrays (children are absolute node ids, `feature == -1` marks a
/// leaf) with `tree_offsets` giving each tree's root; leaf payloads
/// (class distributions, or scalar leaf weights for boosted trees)
/// live in one dense `leaf_values` matrix indexed by a per-leaf id.
///
/// Quantized traversal: at compile time the per-feature set of distinct
/// split thresholds is collected; each node threshold is replaced by
/// its index into the sorted per-feature cut table and incoming rows
/// are quantized once per batch to one small integer code per feature
/// (`code(v) = #{cuts < v}`). Because `v <= cut[k]  <=>  code(v) <= k`
/// for every cut, the quantized traversal routes every row exactly as
/// the double comparison would — the smaller row working set costs no
/// accuracy at all, and the bit-identity tests pin that. Codes are
/// `uint8_t` (~8x smaller rows) when every feature has <= 255 cuts and
/// `uint16_t` (~4x) up to 65535; histogram training draws thresholds
/// from <= 256 bins per feature, but its node-local gap-midpoint
/// refinement (BinnedDataset::refined_threshold) can push the distinct
/// count of a deep forest past the uint8 budget, hence the wide tier.
/// Quantized traversal is opt-in (BatchOptions::use_quantized): rows
/// are scored exactly once here, so the per-batch quantization cost is
/// never amortized, and bench/inference_throughput shows the plain SoA
/// double traversal ahead whenever a block of double rows is
/// cache-resident.
///
/// Batch scoring iterates rows x trees in cache-sized row blocks (all
/// trees stay hot while a block's rows stream through) and can fan
/// independent blocks out over a `common::ThreadPool`. The per-block
/// double traversal dispatches to the kernels in `ml/simd/` — an
/// always-built scalar walk and, when the build and CPU allow it, an
/// AVX2 kernel keeping 16 rows in flight per node step (gathered loads,
/// vector compares, blended child-index advance); kAuto picks the best
/// available. Compile() additionally stores each tree's nodes in
/// breadth-first order so a tree's hot first levels occupy adjacent
/// cache lines, and autotunes the default block size from the forest
/// shape and the L2 size. Per-row accumulation order is tree 0..T-1
/// with the same summation the legacy path uses, so results are
/// bit-identical at any block size, thread count, and traversal kind.
///
/// A FlatForest is immutable after Compile() returns; concurrent reads
/// from any number of threads are safe.
class FlatForest {
 public:
  /// Batch traversal knobs. Defaults favour an L1/L2-resident block of
  /// rows sized per compiled forest; see docs/inference.md.
  struct BatchOptions {
    /// Rows per traversal block. 0 (default) picks the per-forest
    /// autotuned size (`tuned_block_rows()`, derived from the forest's
    /// hot-node footprint vs. the L2 cache); any explicit value >= 1
    /// overrides it.
    size_t block_rows = 0;
    /// When set, independent blocks are scored as pool tasks. The
    /// caller must not be running *inside* a task of the same bounded
    /// pool (nested submission can deadlock on the queue bound).
    ThreadPool* pool = nullptr;
    /// Which traversal kernel walks the double rows. kAuto resolves to
    /// the AVX2 multi-row kernel when the build and CPU support it
    /// (honouring CLOUDSURV_FORCE_SCALAR), else the portable scalar
    /// kernel. An *explicit* kAvx2 on a build/CPU without it fails the
    /// batch call with InvalidArgument — never a silent downgrade. All
    /// kernels are bit-identical. Ignored when the quantized traversal
    /// runs (that path is scalar integer-code routing).
    simd::TraversalKind traversal = simd::TraversalKind::kAuto;
    /// Use the integer code traversal when the forest is quantizable.
    /// Both paths are bit-identical. Off by default: each batch pays
    /// one binary search per (row, used feature) to quantize, and
    /// bench/inference_throughput measures that as a net loss against
    /// the SIMD double traversal when the double rows already fit in
    /// cache — enable it for very wide rows or feature-heavy models
    /// where the 4-8x row shrink matters.
    bool use_quantized = false;
  };

  FlatForest() = default;

  /// Compiles a fitted random forest. Fails on an unfitted forest.
  static Result<FlatForest> Compile(const RandomForestClassifier& forest);

  /// Compiles a fitted gradient-boosted ensemble (scalar leaves,
  /// logit accumulation seeded with the base score).
  static Result<FlatForest> Compile(
      const GradientBoostedTreesClassifier& gbdt);

  // --- Binary model artifacts (src/artifact/, CSRV container) --------

  /// Serializes the compiled arrays into `writer` as one CSRV section
  /// per SoA array, tagged with `slot` as the section index (0 for a
  /// standalone forest; a LongevityService snapshot writes one forest
  /// per model slot). Byte-exact: FromView on the written artifact
  /// reproduces this forest's predictions bit for bit.
  Status WriteTo(artifact::ArtifactWriter& writer, uint32_t slot = 0) const;

  /// Binds a FlatForest directly onto the arrays inside a validated
  /// artifact — the zero-copy startup path. No array is copied: every
  /// column aliases the reader's (typically mmap'ed) backing bytes,
  /// and the forest retains shared ownership of that backing, so the
  /// mapping stays alive for as long as any copy of the forest does.
  /// Runs SelfCheck() before returning, so a structurally corrupt
  /// artifact that slipped past the checksums is still rejected.
  static Result<FlatForest> FromView(const artifact::ArtifactReader& reader,
                                     uint32_t slot = 0);

  /// True when the node arrays alias artifact backing bytes rather
  /// than owned vectors (i.e. this forest came from FromView).
  bool zero_copy() const { return backing_ != nullptr; }

  bool compiled() const { return !tree_offsets_.empty(); }
  /// True for a classifier ensemble (leaf class distributions); false
  /// for a boosted regressor (scalar logit leaves).
  bool is_classifier() const { return num_classes_ > 0; }
  /// True when the integer code traversal is available.
  bool quantized() const { return quantized_; }
  /// Bits per stored row code: 8 (every feature <= 255 cuts), 16
  /// (<= 65535 cuts), or 0 when the forest is not quantizable.
  int code_bits() const {
    return quantized_ ? (narrow_codes_ ? 8 : 16) : 0;
  }

  /// Rows-per-block the compiler picked for this forest (used whenever
  /// BatchOptions::block_rows is 0): sized so one block of double rows
  /// plus accumulators shares the L2 cache with the forest's hot top
  /// levels. Always in [64, 8192] and a multiple of 8.
  size_t tuned_block_rows() const { return tuned_block_rows_; }

  /// True when every tree's nodes are stored root-first in
  /// breadth-first order (Compile() emits this layout so the hot first
  /// levels of a tree occupy adjacent cache lines). Artifacts written
  /// before the BFS layout load fine — node order is plain data — so
  /// FromView forests may legitimately return false here.
  bool nodes_breadth_first() const;

  size_t num_trees() const {
    return tree_offsets_.empty() ? 0 : tree_offsets_.size() - 1;
  }
  size_t num_nodes() const { return feature_.size(); }
  size_t num_leaves() const {
    return leaf_dim_ == 0 ? 0 : leaf_values_.size() / leaf_dim_;
  }
  int num_classes() const { return num_classes_; }
  size_t num_features() const { return num_features_; }

  /// Total bytes of the compiled arrays (layout cost accounting).
  size_t memory_bytes() const;

  /// Verifies structural invariants (offset monotonicity, child and
  /// leaf references in range, quantized cuts consistent with the
  /// double thresholds). Cheap; tests and Compile() debug paths use it.
  Status SelfCheck() const;

  // --- Single-row scoring (bit-identical to the legacy per-row path) -

  /// Classifier: averaged class distribution into `out` (resized to
  /// num_classes). Regressor: out = {sigmoid(logit)}.
  void PredictProbaInto(const std::vector<double>& row,
                        std::vector<double>& out) const;

  /// Convenience copy of PredictProbaInto.
  std::vector<double> PredictProba(const std::vector<double>& row) const;

  /// Positive-class probability: classifier -> averaged P[class 1]
  /// (requires a binary ensemble), regressor -> sigmoid(logit). This is
  /// the quantity `LongevityService::Assess` serves.
  double PredictPositive(const std::vector<double>& row) const;

  // --- Blocked batch scoring -----------------------------------------

  /// Scores `n` rows given as a contiguous row-major matrix
  /// (`rows[i * num_features + f]`, finite values). `out` must hold
  /// `n * out_dim()` doubles: per row the averaged class distribution
  /// (classifier) or the single sigmoid probability (regressor).
  Status PredictProbaBatch(const double* rows, size_t n, double* out,
                           const BatchOptions& options) const;
  Status PredictProbaBatch(const double* rows, size_t n, double* out) const {
    return PredictProbaBatch(rows, n, out, BatchOptions());
  }

  /// Positive-class probability per dataset row; bit-identical to
  /// `RandomForestClassifier::PredictPositiveProba` /
  /// `GradientBoostedTreesClassifier::PredictPositiveProba`.
  Result<std::vector<double>> PredictPositiveProbaBatch(
      const Dataset& data, const BatchOptions& options) const;
  Result<std::vector<double>> PredictPositiveProbaBatch(
      const Dataset& data) const {
    return PredictPositiveProbaBatch(data, BatchOptions());
  }

  /// Positive-class probability for externally assembled rows (the
  /// serving path groups feature rows per model slot and scores them
  /// here). Every row must have num_features values.
  Result<std::vector<double>> PredictPositiveProbaRows(
      const std::vector<std::vector<double>>& rows,
      const BatchOptions& options) const;
  Result<std::vector<double>> PredictPositiveProbaRows(
      const std::vector<std::vector<double>>& rows) const {
    return PredictPositiveProbaRows(rows, BatchOptions());
  }

  /// argmax class per dataset row (classifier; probability > 0.5 for a
  /// regressor); bit-identical to the legacy PredictBatch.
  Result<std::vector<int>> PredictBatch(const Dataset& data,
                                        const BatchOptions& options) const;
  Result<std::vector<int>> PredictBatch(const Dataset& data) const {
    return PredictBatch(data, BatchOptions());
  }

  /// Doubles per row that PredictProbaBatch writes (num_classes for a
  /// classifier, 1 for a regressor).
  size_t out_dim() const { return leaf_dim_ == 0 ? 0 : out_dim_; }

 private:
  /// Reusable per-task buffers: the packed double row block handed to
  /// the traversal kernels, and the quantized code block.
  struct BlockScratch {
    std::vector<double> packed;
    std::vector<uint8_t> qcodes;
  };

  /// Raw-pointer view of the SoA arrays for the traversal kernels.
  simd::ForestView View() const;

  /// Scores one block of rows addressed through per-row pointers.
  /// `kernel` walks the double rows (already resolved and validated by
  /// ScorePtrs; ignored when `use_quantized` selects the code
  /// traversal). Scratch buffers are resized as needed and reusable
  /// across the blocks of one task.
  void ScoreBlock(const double* const* rows, size_t n, double* out,
                  bool use_quantized, simd::TraversalFn kernel,
                  BlockScratch& scratch) const;

  /// Shared driver: resolves the traversal kernel, blocks `row_ptrs`
  /// and fans the blocks out.
  Status ScorePtrs(const double* const* row_ptrs, size_t n, double* out,
                   const BatchOptions& options) const;

  /// Quantized-code kernel of ScoreBlock, instantiated for uint8_t and
  /// uint16_t codes; `scratch` is a reusable raw byte buffer.
  template <typename Code>
  void TraverseQuantized(const double* const* rows, size_t n, double* out,
                         std::vector<uint8_t>& scratch) const;

  /// Collects per-feature distinct thresholds and fills the quantized
  /// tables when every feature fits in uint8 codes.
  void BuildQuantizedTables();

  /// Rebuilds `used_features_` (features with >= 1 cut) from the cut
  /// offset table; quantization skips the rest, since a feature no
  /// split node tests can never route a row.
  void BuildUsedFeatures();

  /// Derives `tuned_block_rows_` from the forest shape and the machine
  /// L2 size. Runs at the end of Compile() and FromView().
  void AutotuneBlockRows();

  template <typename T>
  using Column = flat_internal::Column<T>;

  int num_classes_ = 0;     ///< 0 for a boosted regressor.
  size_t num_features_ = 0;
  size_t leaf_dim_ = 0;     ///< num_classes, or 1 for a regressor.
  size_t out_dim_ = 0;      ///< num_classes, or 1 for a regressor.
  double base_score_ = 0.0; ///< Regressor accumulator seed.

  // SoA node storage; index = absolute node id. Owned after Compile(),
  // views into an artifact's bytes after FromView().
  Column<int32_t> feature_;    ///< -1 marks a leaf.
  Column<double> threshold_;
  Column<int32_t> left_;
  Column<int32_t> right_;
  Column<int32_t> leaf_index_; ///< Leaves: row into leaf_values_.
  Column<double> leaf_values_; ///< num_leaves x leaf_dim_, dense.
  Column<int32_t> tree_offsets_; ///< Tree t = [offsets[t], offsets[t+1]).

  /// Rows per block when BatchOptions::block_rows is 0 (autotuned).
  size_t tuned_block_rows_ = 512;

  // Quantized traversal tables (valid iff quantized_).
  bool quantized_ = false;
  bool narrow_codes_ = false;        ///< Row codes fit in uint8_t.
  /// Features with at least one cut — the only ones quantization needs
  /// to code. Derived (never serialized); rebuilt by FromView.
  std::vector<int32_t> used_features_;
  Column<uint16_t> qthreshold_; ///< Per node: cut index (0 for leaves).
  Column<int32_t> cut_offsets_; ///< Per feature f: cuts in
                                ///< cut_values_[off[f], off[f+1]).
  Column<double> cut_values_;   ///< Ascending distinct thresholds.

  /// Pins the mapped/loaded artifact bytes the view columns alias;
  /// nullptr for a Compile()d forest.
  std::shared_ptr<const artifact::ArtifactBuffer> backing_;
};

}  // namespace cloudsurv::ml

#endif  // CLOUDSURV_ML_FLAT_FOREST_H_
