#ifndef CLOUDSURV_ML_SIMD_TRAVERSAL_H_
#define CLOUDSURV_ML_SIMD_TRAVERSAL_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

/// Runtime-dispatched forest-traversal kernels.
///
/// `FlatForest` keeps the layout and the bit-identity contract; this
/// directory keeps the raw per-block traversal loops. Every kernel
/// consumes the same `ForestView` (raw pointers into the SoA arrays)
/// and a packed row-major block, and accumulates leaf payloads into a
/// pre-seeded output buffer using the exact per-row tree-order double
/// summation of the legacy predictors — so all kernels produce
/// bit-identical results and the harness in tests/ml_flat_forest_test
/// can EXPECT_EQ doubles across them.
///
/// Two kernels exist:
///   - scalar: portable one-row-at-a-time walk, always built.
///   - avx2:   16 rows in flight per node step, as four independent
///             4-row groups (gathered feature/threshold loads,
///             `_mm256_cmp_pd` masks, blended child-index advance) whose
///             dependent gather chains overlap, compiled into its own
///             -mavx2 translation unit and only linked when the
///             toolchain and target support it.
///
/// Selection is a pure function of (requested kind, build flags, CPUID,
/// CLOUDSURV_FORCE_SCALAR): `Resolve` maps kAuto onto the best
/// available kernel; explicit kinds are honoured verbatim and `Kernel`
/// returns nullptr when an explicit kind is not available, which the
/// caller surfaces as a Status instead of silently downgrading.

namespace cloudsurv::ml::simd {

/// Which traversal kernel a batch request wants.
enum class TraversalKind : uint8_t {
  kAuto = 0,    ///< Best available: avx2 when compiled in + CPU support.
  kScalar = 1,  ///< Portable one-row-at-a-time kernel.
  kAvx2 = 2,    ///< 16-rows-per-step AVX2 kernel; explicit requests
                ///< fail with a Status when the build or CPU lacks it.
};

/// Raw pointers into a compiled forest's SoA arrays. Non-owning; valid
/// only while the FlatForest that produced it is alive.
struct ForestView {
  const int32_t* feature = nullptr;    ///< -1 marks a leaf.
  const double* threshold = nullptr;
  const int32_t* left = nullptr;       ///< Absolute node ids.
  const int32_t* right = nullptr;
  const int32_t* leaf_index = nullptr; ///< Row into leaf_values.
  const double* leaf_values = nullptr; ///< num_leaves x leaf_dim.
  const int32_t* tree_offsets = nullptr;
  size_t num_trees = 0;
  size_t num_features = 0;
  size_t leaf_dim = 0;
  size_t out_dim = 0;
};

/// Kernel signature: accumulate raw leaf sums for `n` packed rows
/// (`rows[i * num_features + f]`, finite values) into `out`
/// (`n * out_dim` doubles, pre-seeded by the caller with 0 or the
/// regressor base score). No finalization (divide/sigmoid) happens
/// here — the caller owns it so every kernel shares one epilogue.
using TraversalFn = void (*)(const ForestView& forest, const double* rows,
                             size_t n, double* out);

/// Portable kernel; the arithmetic reference all others must match.
void ScalarTraverse(const ForestView& forest, const double* rows, size_t n,
                    double* out);

#if defined(CLOUDSURV_HAVE_AVX2)
/// AVX2 kernel (traversal_avx2.cc, built with -mavx2). Each tree step
/// advances four 4-row groups together (16 rows); the one to three
/// full groups left over walk together in one loop, and the last n % 4
/// rows reuse ScalarTraverse. Only declared when the translation unit
/// is part of the build.
void Avx2Traverse(const ForestView& forest, const double* rows, size_t n,
                  double* out);
#endif

/// True when the AVX2 translation unit was compiled into this binary.
bool Avx2CompiledIn();

/// True when Avx2CompiledIn() and the running CPU reports AVX2.
bool Avx2Supported();

/// True when the CLOUDSURV_FORCE_SCALAR environment variable is set to
/// anything but "0" — kAuto then resolves to the scalar kernel (CI uses
/// this to drive both kernels through the same sanitizer jobs).
bool ForceScalar();

/// Maps kAuto onto the best available kernel (honouring ForceScalar);
/// explicit kinds are returned unchanged, even when unavailable.
TraversalKind Resolve(TraversalKind requested);

/// Kernel for a *resolved* kind; nullptr when that kind is not
/// available in this build/CPU (never nullptr for kScalar).
TraversalFn Kernel(TraversalKind resolved);

/// Stable lowercase name: "auto", "scalar", "avx2".
const char* KindName(TraversalKind kind);

/// Parses "auto" / "scalar" / "avx2"; false on anything else.
bool ParseKind(std::string_view text, TraversalKind* out);

}  // namespace cloudsurv::ml::simd

#endif  // CLOUDSURV_ML_SIMD_TRAVERSAL_H_
