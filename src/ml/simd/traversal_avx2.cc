// AVX2 multi-row traversal: 16 rows advance through a tree per node
// step, as four independent 4-row groups. This translation unit is
// compiled with -mavx2 (see src/ml/CMakeLists.txt) and linked only when
// the toolchain targets x86-64 with AVX2 support; callers reach it
// through the runtime dispatch in traversal.cc, never directly.
//
// Why four groups: a tree level is a chain of dependent gathers
// (feature -> row value and threshold -> left/right -> next feature),
// so one 4-row group spends most of each step waiting on gather
// latency, not on memory bandwidth. The groups' chains are independent,
// so interleaving them keeps four chains in flight and the core
// overlaps their latencies. Two groups leave latency exposed, and
// eight were not reliably faster (docs/inference.md has the sweep).
//
// Bit-identity argument: lanes are rows. Every lane routes on the same
// `row[f] <= threshold[node]` comparison as the scalar walk
// (_CMP_LE_OQ matches `<=` exactly, including the NaN-goes-right
// behaviour), and each row's leaf payload is accumulated in tree order
// 0..T-1 with plain double adds — lane-wise vertical adds carry no
// cross-lane arithmetic, so the summation sequence per row is the
// scalar one and the results are the same doubles. Grouping only
// changes which rows share a loop iteration, never a row's arithmetic.

#include "ml/simd/traversal.h"

#if defined(CLOUDSURV_HAVE_AVX2)

#include <immintrin.h>

namespace cloudsurv::ml::simd {

namespace {

constexpr size_t kLanes = 4;   // Rows per group (one __m256d of values).
constexpr size_t kGroups = 4;  // Groups walked together per tree step.

/// Narrows a 4x64-bit compare mask to a 4x32-bit lane mask (each lane
/// all-ones or all-zero) so it can steer 32-bit node-id blends.
inline __m128i MaskPdToEpi32(__m256d mask) {
  const __m256i lanes = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  return _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(mask), lanes));
}

/// Walks the G 4-row groups starting at block row `first` through the
/// tree rooted at `root` together, then adds each row's leaf payload
/// into `out`. Each group keeps its own node, feature and row-base
/// registers; the loop steps every group until every lane of every
/// group sits on a leaf.
template <size_t G>
inline void WalkGroups(const ForestView& f, const double* rows, size_t first,
                       int32_t root, double* out) {
  const int features = static_cast<int>(f.num_features);
  const __m128i minus_one = _mm_set1_epi32(-1);

  __m128i node[G];
  __m128i feat[G];
  __m128i row_base[G];
  const __m128i root_feat = _mm_set1_epi32(f.feature[root]);
  for (size_t g = 0; g < G; ++g) {
    // Row start offsets (in doubles) of the group's four lanes inside
    // the packed block; adding a lane's feature id yields its gather
    // index.
    const int base = static_cast<int>(first + g * kLanes) * features;
    row_base[g] = _mm_setr_epi32(base, base + features, base + 2 * features,
                                 base + 3 * features);
    node[g] = _mm_set1_epi32(root);
    feat[g] = root_feat;
  }

  // A lane is on a leaf once its feature is -1, so every lane of every
  // group is done exactly when the AND of all feature ids has every
  // sign bit set.
  const auto all_leaves = [&feat]() {
    __m128i all = feat[0];
    for (size_t g = 1; g < G; ++g) all = _mm_and_si128(all, feat[g]);
    return _mm_movemask_ps(_mm_castsi128_ps(all)) == 0xF;
  };
  while (!all_leaves()) {
    for (size_t g = 0; g < G; ++g) {
      // Finished lanes keep their node id via the blend below, and the
      // gathers they still issue read valid leaf entries; masking
      // their feat == -1 with `active` clamps them to feature 0 so the
      // (discarded) row gather stays in bounds.
      const __m128i active = _mm_cmpgt_epi32(feat[g], minus_one);
      const __m128i feat_safe = _mm_and_si128(feat[g], active);
      const __m128i value_idx = _mm_add_epi32(row_base[g], feat_safe);
      const __m256d values = _mm256_i32gather_pd(rows, value_idx, 8);
      const __m256d thresholds = _mm256_i32gather_pd(f.threshold, node[g], 8);
      const __m256d go_left = _mm256_cmp_pd(values, thresholds, _CMP_LE_OQ);
      const __m128i lefts = _mm_i32gather_epi32(f.left, node[g], 4);
      const __m128i rights = _mm_i32gather_epi32(f.right, node[g], 4);
      const __m128i next =
          _mm_blendv_epi8(rights, lefts, MaskPdToEpi32(go_left));
      node[g] = _mm_blendv_epi8(node[g], next, active);
      feat[g] = _mm_i32gather_epi32(f.feature, node[g], 4);
    }
  }

  for (size_t g = 0; g < G; ++g) {
    const size_t i = first + g * kLanes;
    const __m128i leaf = _mm_i32gather_epi32(f.leaf_index, node[g], 4);
    if (f.out_dim == 1 && f.leaf_dim == 1) {
      // Regressor: scalar leaves, contiguous accumulators — one
      // vertical (per-lane, bit-exact) add.
      const __m256d leaf_vals = _mm256_i32gather_pd(f.leaf_values, leaf, 8);
      double* acc = out + i;
      _mm256_storeu_pd(acc, _mm256_add_pd(_mm256_loadu_pd(acc), leaf_vals));
    } else {
      // Classifier: out_dim-strided accumulators; AVX2 has no scatter,
      // and leaf_dim is tiny (the class count), so finish the group
      // with per-lane scalar adds.
      alignas(16) int32_t leaf_ids[kLanes];
      _mm_store_si128(reinterpret_cast<__m128i*>(leaf_ids), leaf);
      for (size_t k = 0; k < kLanes; ++k) {
        const double* payload =
            f.leaf_values + static_cast<size_t>(leaf_ids[k]) * f.leaf_dim;
        double* acc = out + (i + k) * f.out_dim;
        for (size_t c = 0; c < f.leaf_dim; ++c) acc[c] += payload[c];
      }
    }
  }
}

}  // namespace

void Avx2Traverse(const ForestView& f, const double* rows, size_t n,
                  double* out) {
  const size_t step = kLanes * kGroups;
  const size_t n_step = n - n % step;
  const size_t n_vec = n - n % kLanes;

  // Trees outer, 16-row steps inner: the node arrays stream once per
  // block while the packed rows and the n x out_dim accumulators stay
  // cache-resident (mirrors the scalar kernel's blocking).
  for (size_t t = 0; t < f.num_trees; ++t) {
    const int32_t root = f.tree_offsets[t];
    for (size_t i = 0; i < n_step; i += step) {
      WalkGroups<kGroups>(f, rows, i, root, out);
    }
    // The 1-3 full groups left over walk together too: per-model
    // batches have any size, and overlapping the leftovers' chains beats
    // walking them one by one (docs/inference.md has the pairs).
    switch ((n_vec - n_step) / kLanes) {
      case 1:
        WalkGroups<1>(f, rows, n_step, root, out);
        break;
      case 2:
        WalkGroups<2>(f, rows, n_step, root, out);
        break;
      case 3:
        WalkGroups<3>(f, rows, n_step, root, out);
        break;
      default:
        break;
    }
  }

  // Ragged tail (n % 4 rows): the scalar kernel finishes them with the
  // same per-row arithmetic; cross-row ordering is irrelevant because
  // rows accumulate independently.
  if (n_vec < n) {
    ScalarTraverse(f, rows + n_vec * f.num_features, n - n_vec,
                   out + n_vec * f.out_dim);
  }
}

}  // namespace cloudsurv::ml::simd

#endif  // CLOUDSURV_HAVE_AVX2
