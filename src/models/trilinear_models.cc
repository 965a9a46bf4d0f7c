#include "models/trilinear_models.h"

#include <vector>

#include "math/vec_ops.h"
#include "util/check.h"
#include "util/scratch.h"

namespace kge {

MultiEmbeddingModel::MultiEmbeddingModel(std::string name,
                                         int32_t num_entities,
                                         int32_t num_relations, int32_t dim,
                                         WeightTable weights, uint64_t seed)
    : name_(std::move(name)),
      dim_(dim),
      weights_(std::move(weights)),
      entities_(name_ + ".entities", num_entities, weights_.ne(), dim),
      relations_(name_ + ".relations", num_relations, weights_.nr(), dim),
      entity_replica_(entities_.block()) {
  KGE_CHECK(dim > 0);
  InitParameters(seed);
}

void MultiEmbeddingModel::InitParameters(uint64_t seed) {
  Rng rng(seed);
  entities_.InitXavier(&rng);
  relations_.InitXavier(&rng);
}

double MultiEmbeddingModel::Score(const Triple& triple) const {
  return ScoreTriple(weights_, dim_, entities_.Of(triple.head),
                     entities_.Of(triple.tail),
                     relations_.Of(triple.relation));
}

void MultiEmbeddingModel::FoldQuery(QuerySide side, EntityId anchor,
                                    RelationId relation,
                                    std::span<float> fold) const {
  if (side == QuerySide::kTail) {
    FoldForTail(weights_, dim_, entities_.Of(anchor), relations_.Of(relation),
                fold);
  } else {
    FoldForHead(weights_, dim_, entities_.Of(anchor), relations_.Of(relation),
                fold);
  }
}

std::span<const float> MultiEmbeddingModel::Fold(QuerySide side,
                                                 EntityId anchor,
                                                 RelationId relation) const {
  // One per-thread fold buffer: no scoring path holds a fold across a
  // call that folds again.
  static thread_local std::vector<float> fold_buf;
  const std::span<float> fold =
      ScratchSpan(fold_buf, size_t(weights_.ne()) * size_t(dim_));
  FoldQuery(side, anchor, relation, fold);
  return fold;
}

void MultiEmbeddingModel::ScoreAll(QuerySide side, EntityId anchor,
                                   RelationId relation,
                                   std::span<float> out) const {
  KGE_CHECK(out.size() == size_t(entities_.num_ids()));
  // Fold once, then one tiled matrix-vector product over the whole
  // entity table (rows are contiguous in the parameter block). Zero heap
  // allocations at steady state.
  DotBatch(Fold(side, anchor, relation), entities_.block().Flat(), out);
}

void MultiEmbeddingModel::ScoreBatch(QuerySide side, EntityId anchor,
                                     RelationId relation,
                                     std::span<const EntityId> candidates,
                                     std::span<float> out) const {
  KGE_CHECK(out.size() == candidates.size());
  // Candidate rows are scored in place in the entity table via the
  // id-indirected kernel — no per-call gather copy.
  DotBatchIndexed(Fold(side, anchor, relation), entities_.block().Flat(),
                  candidates, out);
}

std::vector<ParameterBlock*> MultiEmbeddingModel::Blocks() {
  return {entities_.block(), relations_.block()};
}

void MultiEmbeddingModel::AccumulateGradients(const Triple& triple,
                                              float dscore,
                                              GradientBuffer* grads) {
  std::span<float> gh = grads->GradFor(kEntityBlock, triple.head);
  std::span<float> gt = grads->GradFor(kEntityBlock, triple.tail);
  std::span<float> gr = grads->GradFor(kRelationBlock, triple.relation);
  AccumulateTripleGradients(weights_, dim_, entities_.Of(triple.head),
                            entities_.Of(triple.tail),
                            relations_.Of(triple.relation), dscore, gh, gt,
                            gr);
}

void MultiEmbeddingModel::NormalizeEntities(
    std::span<const EntityId> entities) {
  for (EntityId e : entities) entities_.NormalizeVectorsOf(e);
}

std::unique_ptr<MultiEmbeddingModel> MakeDistMult(int32_t num_entities,
                                                  int32_t num_relations,
                                                  int32_t dim, uint64_t seed) {
  return std::make_unique<MultiEmbeddingModel>(
      "DistMult", num_entities, num_relations, dim, WeightTable::DistMult(),
      seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeComplEx(int32_t num_entities,
                                                 int32_t num_relations,
                                                 int32_t dim, uint64_t seed) {
  return std::make_unique<MultiEmbeddingModel>(
      "ComplEx", num_entities, num_relations, dim, WeightTable::ComplEx(),
      seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeCp(int32_t num_entities,
                                            int32_t num_relations,
                                            int32_t dim, uint64_t seed) {
  return std::make_unique<MultiEmbeddingModel>("CP", num_entities,
                                               num_relations, dim,
                                               WeightTable::Cp(), seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeCph(int32_t num_entities,
                                             int32_t num_relations,
                                             int32_t dim, uint64_t seed) {
  return std::make_unique<MultiEmbeddingModel>("CPh", num_entities,
                                               num_relations, dim,
                                               WeightTable::Cph(), seed);
}

std::unique_ptr<MultiEmbeddingModel> MakeMultiEmbedding(
    std::string name, int32_t num_entities, int32_t num_relations,
    int32_t dim, WeightTable weights, uint64_t seed) {
  return std::make_unique<MultiEmbeddingModel>(std::move(name), num_entities,
                                               num_relations, dim,
                                               std::move(weights), seed);
}

}  // namespace kge
