#include "core/scoring_replica.h"

#include "math/simd.h"
#include "util/check.h"

namespace kge {

const char* ScorePrecisionName(ScorePrecision precision) {
  switch (precision) {
    case ScorePrecision::kDouble:
      return "double";
    case ScorePrecision::kFloat32:
      return "float32";
    case ScorePrecision::kInt8:
      return "int8";
  }
  return "?";
}

bool ParseScorePrecision(std::string_view text, ScorePrecision* out) {
  KGE_CHECK(out != nullptr);
  if (text == "double") {
    *out = ScorePrecision::kDouble;
  } else if (text == "float32") {
    *out = ScorePrecision::kFloat32;
  } else if (text == "int8") {
    *out = ScorePrecision::kInt8;
  } else {
    return false;
  }
  return true;
}

ScoringReplica::ScoringReplica(const ParameterBlock* master)
    : master_(master) {
  KGE_CHECK(master_ != nullptr);
}

bool ScoringReplica::IsFresh(ScorePrecision precision) const {
  if (precision != ScorePrecision::kInt8) return true;
  return int8_generation_ == master_->generation();
}

void ScoringReplica::EnsureFresh(ScorePrecision precision) {
  if (IsFresh(precision)) return;
  // Only the int8 tier reaches here. Record the stamp BEFORE reading the
  // table: if a (misbehaving) concurrent writer mutates the master
  // mid-quantization, the replica stays marked stale rather than
  // silently serving half-old codes.
  const uint64_t generation = master_->generation();
  const auto num_rows = size_t(master_->num_rows());
  const auto dim = size_t(master_->row_dim());
  const std::span<const float> master_rows = master_->Flat();
  int8_rows_.resize(num_rows * dim);
  int8_scales_.resize(num_rows);
  simd::QuantizeRowsI8(master_rows.data(), num_rows, dim, int8_rows_.data(),
                       int8_scales_.data());
  int8_generation_ = generation;
}

bool ScoringReplica::BoundsFresh(ScorePrecision precision) const {
  if (precision == ScorePrecision::kInt8) {
    return IsFresh(precision) &&
           int8_bounds_generation_ == master_->generation();
  }
  return master_bounds_generation_ == master_->generation();
}

void ScoringReplica::EnsureBoundsFresh(ScorePrecision precision) {
  if (BoundsFresh(precision)) return;
  const uint64_t generation = master_->generation();
  const auto num_rows = size_t(master_->num_rows());
  const auto dim = size_t(master_->row_dim());
  const size_t rows_per_tile = simd::PrunedTileRows(dim);
  const size_t tiles = simd::PrunedTileCount(num_rows, dim);
  if (precision == ScorePrecision::kInt8) {
    EnsureFresh(precision);
    int8_bounds_.resize(tiles);
    simd::TileMaxRowNormsI8(int8_rows_.data(), int8_scales_.data(), num_rows,
                            dim, rows_per_tile, int8_bounds_.data());
    int8_bounds_generation_ = generation;
    return;
  }
  master_bounds_.resize(tiles);
  simd::TileMaxRowNorms(master_->Flat().data(), num_rows, dim, rows_per_tile,
                        master_bounds_.data());
  master_bounds_generation_ = generation;
}

std::span<const float> ScoringReplica::TileBounds(
    ScorePrecision precision) const {
  KGE_DCHECK(BoundsFresh(precision));
  return precision == ScorePrecision::kInt8 ? int8_bounds_ : master_bounds_;
}

CandidateTable ScoringReplica::Table(ScorePrecision precision) const {
  CandidateTable table;
  table.width = size_t(master_->row_dim());
  if (precision == ScorePrecision::kInt8) {
    table.int8_rows = Int8Rows();
    table.int8_scales = Int8Scales();
  } else {
    table.rows = master_->Flat();
  }
  if (BoundsFresh(precision)) table.tile_bounds = TileBounds(precision);
  return table;
}

std::span<const std::int8_t> ScoringReplica::Int8Rows() const {
  KGE_DCHECK(IsFresh(ScorePrecision::kInt8));
  return int8_rows_;
}

std::span<const float> ScoringReplica::Int8Scales() const {
  KGE_DCHECK(IsFresh(ScorePrecision::kInt8));
  return int8_scales_;
}

}  // namespace kge
