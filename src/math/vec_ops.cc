// Thin std::span wrappers over the ISA dispatch layer in math/simd.h.
// Shape checks live here; the kernels themselves are pointer+size.
#include "math/vec_ops.h"

#include <cmath>

#include "math/simd.h"
#include "util/check.h"

namespace kge {

double Dot(std::span<const float> a, std::span<const float> b) {
  KGE_DCHECK(a.size() == b.size());
  return simd::Dot(a.data(), b.data(), a.size());
}

void DotBatch(std::span<const float> v, std::span<const float> rows,
              std::span<float> out) {
  KGE_DCHECK(rows.size() == v.size() * out.size());
  simd::DotBatch(v.data(), rows.data(), out.size(), v.size(), out.data());
}

void DotBatchMulti(std::span<const float> queries, size_t num_queries,
                   std::span<const float> rows, std::span<float> out) {
  KGE_DCHECK(num_queries > 0);
  KGE_DCHECK(queries.size() % num_queries == 0);
  const size_t n = queries.size() / num_queries;
  KGE_DCHECK(out.size() % num_queries == 0);
  const size_t num_rows = out.size() / num_queries;
  KGE_DCHECK(rows.size() == num_rows * n);
  simd::DotBatchMulti(queries.data(), num_queries, rows.data(), num_rows, n,
                      out.data());
}

void DotBatchIndexed(std::span<const float> v, std::span<const float> rows,
                     std::span<const int32_t> ids, std::span<float> out) {
  KGE_DCHECK(out.size() == ids.size());
  KGE_DCHECK(v.empty() || rows.size() % v.size() == 0);
  simd::DotBatchIndexed(v.data(), rows.data(), ids.data(), ids.size(),
                        v.size(), out.data());
}

double TrilinearDot(std::span<const float> a, std::span<const float> b,
                    std::span<const float> c) {
  KGE_DCHECK(a.size() == b.size() && b.size() == c.size());
  return simd::TrilinearDot(a.data(), b.data(), c.data(), a.size());
}

void Hadamard(std::span<const float> a, std::span<const float> b,
              std::span<float> out) {
  KGE_DCHECK(a.size() == b.size() && a.size() == out.size());
  simd::Hadamard(a.data(), b.data(), out.data(), a.size());
}

void HadamardAxpy(float scale, std::span<const float> a,
                  std::span<const float> b, std::span<float> out) {
  KGE_DCHECK(a.size() == b.size() && a.size() == out.size());
  simd::HadamardAxpy(scale, a.data(), b.data(), out.data(), a.size());
}

void Axpy(float scale, std::span<const float> a, std::span<float> out) {
  KGE_DCHECK(a.size() == out.size());
  simd::Axpy(scale, a.data(), out.data(), a.size());
}

void Fill(std::span<float> out, float value) {
  simd::Fill(out.data(), value, out.size());
}

void Scale(std::span<float> out, float scale) {
  simd::Scale(out.data(), scale, out.size());
}

double SquaredNorm(std::span<const float> a) {
  return simd::SquaredNorm(a.data(), a.size());
}

double Norm(std::span<const float> a) { return std::sqrt(SquaredNorm(a)); }

double L1Norm(std::span<const float> a) {
  return simd::L1Norm(a.data(), a.size());
}

double LpDistance(std::span<const float> a, std::span<const float> b, int p) {
  KGE_DCHECK(a.size() == b.size());
  KGE_DCHECK(p == 1 || p == 2);
  if (p == 1) return simd::L1Distance(a.data(), b.data(), a.size());
  return simd::SquaredL2Distance(a.data(), b.data(), a.size());
}

void NormalizeL2(std::span<float> a) {
  const double norm = Norm(a);
  if (norm <= 0.0) return;
  const float inv = static_cast<float>(1.0 / norm);
  simd::Scale(a.data(), inv, a.size());
}

double MaxAbsDiff(std::span<const float> a, std::span<const float> b) {
  KGE_DCHECK(a.size() == b.size());
  return simd::MaxAbsDiff(a.data(), b.data(), a.size());
}

}  // namespace kge
