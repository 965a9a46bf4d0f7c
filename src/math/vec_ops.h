// Dense float vector kernels used by the scoring and gradient code: the
// std::span layer over the ISA dispatch in math/simd.h (AVX2+FMA, NEON,
// or scalar — selected at compile time). Reductions accumulate in double
// (8 interleaved partial sums; see simd.h's numerics contract) to keep
// ranking scores stable at D = several hundred.
#ifndef KGE_MATH_VEC_OPS_H_
#define KGE_MATH_VEC_OPS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/hotpath.h"

namespace kge {

// Σ a_d b_d
KGE_HOT_NOALLOC
double Dot(std::span<const float> a, std::span<const float> b);

// out[row] = float(Dot(v, rows[row])) where `rows` is a row-major
// out.size() × v.size() matrix — the fold-then-dot ranking step executed
// as one tiled matrix-vector product (see simd::DotBatch). Guaranteed to
// produce exactly float(Dot(v, row)) per row.
KGE_HOT_NOALLOC
void DotBatch(std::span<const float> v, std::span<const float> rows,
              std::span<float> out);

// out[q*R + r] = float(Dot(queries[q], rows[r])) where `queries` is a
// row-major num_queries × n matrix, `rows` an R × n matrix, and `out`
// num_queries × R — the cache-blocked GEMV→GEMM ranking step (see
// simd::DotBatchMulti). Every cell is exactly float(Dot(query, row)):
// identical to num_queries separate DotBatch calls, just faster.
KGE_HOT_NOALLOC
void DotBatchMulti(std::span<const float> queries, size_t num_queries,
                   std::span<const float> rows, std::span<float> out);

// out[i] = float(Dot(v, rows[ids[i]])) where `rows` is a row-major
// (rows.size()/v.size()) × v.size() matrix — DotBatch over an
// id-indirected row set, scoring gathered candidates straight out of the
// embedding table without compacting them first (see
// simd::DotBatchIndexed).
KGE_HOT_NOALLOC
void DotBatchIndexed(std::span<const float> v, std::span<const float> rows,
                     std::span<const int32_t> ids, std::span<float> out);

// Σ a_d b_d c_d — the trilinear product ⟨a,b,c⟩ of Eq. (3).
KGE_HOT_NOALLOC
double TrilinearDot(std::span<const float> a, std::span<const float> b,
                    std::span<const float> c);

// out_d = a_d * b_d (Hadamard product)
KGE_HOT_NOALLOC
void Hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out);

// out_d += scale * a_d * b_d
KGE_HOT_NOALLOC
void HadamardAxpy(float scale, std::span<const float> a,
                  std::span<const float> b, std::span<float> out);

// out_d += scale * a_d
KGE_HOT_NOALLOC
void Axpy(float scale, std::span<const float> a, std::span<float> out);

// out_d = value
KGE_HOT_NOALLOC
void Fill(std::span<float> out, float value);

// out_d *= scale
KGE_HOT_NOALLOC
void Scale(std::span<float> out, float scale);

// Σ a_d²
KGE_HOT_NOALLOC
double SquaredNorm(std::span<const float> a);

// sqrt(Σ a_d²)
KGE_HOT_NOALLOC
double Norm(std::span<const float> a);

// Σ |a_d|
KGE_HOT_NOALLOC
double L1Norm(std::span<const float> a);

// Σ |a_d - b_d|^p for p in {1, 2} (TransE distances).
KGE_HOT_NOALLOC
double LpDistance(std::span<const float> a, std::span<const float> b, int p);

// Scales `a` to unit L2 norm; leaves an all-zero vector unchanged.
KGE_HOT_NOALLOC
void NormalizeL2(std::span<float> a);

// max_d |a_d - b_d|
KGE_HOT_NOALLOC
double MaxAbsDiff(std::span<const float> a, std::span<const float> b);

}  // namespace kge

#endif  // KGE_MATH_VEC_OPS_H_
