#include "models/model_factory.h"

#include <gtest/gtest.h>

#include "models/trilinear_models.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 20;
constexpr int32_t kRelations = 4;
constexpr int32_t kBudget = 48;
constexpr uint64_t kSeed = 9;

TEST(ModelFactoryTest, EveryKnownNameConstructs) {
  for (const std::string& name : KnownModelNames()) {
    Result<std::unique_ptr<KgeModel>> model =
        MakeModelByName(name, kEntities, kRelations, kBudget, kSeed);
    ASSERT_TRUE(model.ok()) << name << ": " << model.status().ToString();
    EXPECT_EQ((*model)->num_entities(), kEntities) << name;
    EXPECT_EQ((*model)->num_relations(), kRelations) << name;
    EXPECT_GT((*model)->NumParameters(), 0) << name;
    // Exercise the interface minimally.
    std::vector<float> scores(kEntities);
    (*model)->ScoreAll(QuerySide::kTail, 0, 0, scores);
    EXPECT_NEAR(scores[1], (*model)->Score({0, 1, 0}), 1e-3) << name;
  }
}

TEST(ModelFactoryTest, UnknownNameIsNotFound) {
  const auto result =
      MakeModelByName("conv-e", kEntities, kRelations, kBudget, kSeed);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // The error names the known models.
  EXPECT_NE(result.status().message().find("complex"), std::string::npos);
}

TEST(ModelFactoryTest, BadShapeIsInvalidArgument) {
  EXPECT_FALSE(MakeModelByName("complex", 0, kRelations, kBudget, kSeed).ok());
  EXPECT_FALSE(MakeModelByName("complex", kEntities, 0, kBudget, kSeed).ok());
  EXPECT_FALSE(
      MakeModelByName("complex", kEntities, kRelations, 0, kSeed).ok());
}

TEST(ModelFactoryTest, BudgetIsSplitAcrossVectors) {
  // 48 params per entity: DistMult 1x48, ComplEx 2x24, quaternion 4x12 —
  // equal entity-parameter totals.
  const auto distmult =
      MakeModelByName("distmult", kEntities, kRelations, kBudget, kSeed);
  const auto complex =
      MakeModelByName("complex", kEntities, kRelations, kBudget, kSeed);
  const auto quaternion =
      MakeModelByName("quaternion", kEntities, kRelations, kBudget, kSeed);
  auto entity_params = [](KgeModel* model) {
    return model->Blocks()[0]->size();
  };
  EXPECT_EQ(entity_params(distmult->get()), entity_params(complex->get()));
  EXPECT_EQ(entity_params(complex->get()), entity_params(quaternion->get()));
}

TEST(ModelFactoryTest, AutoweightVariantsGetDistinctConfigurations) {
  const auto plain = MakeModelByName("autoweight", kEntities, kRelations,
                                     kBudget, kSeed);
  const auto softmax = MakeModelByName("autoweight-softmax", kEntities,
                                       kRelations, kBudget, kSeed);
  const auto sparse = MakeModelByName("autoweight-sparse", kEntities,
                                      kRelations, kBudget, kSeed);
  ASSERT_TRUE(plain.ok() && softmax.ok() && sparse.ok());
  EXPECT_EQ((*plain)->name(), "AutoWeight[none]");
  EXPECT_EQ((*softmax)->name(), "AutoWeight[softmax]");
  EXPECT_EQ((*sparse)->name(), "AutoWeight[none,sparse]");
  EXPECT_FALSE(
      MakeModelByName("autoweight-relu", kEntities, kRelations, kBudget, kSeed)
          .ok());
}

TEST(ModelFactoryTest, SimplEIsHalfCph) {
  // SimplE's score must be exactly half of CPh's for identical embeddings
  // and seed (the tables differ only by the 1/2 factor).
  const auto simple =
      MakeModelByName("simple", kEntities, kRelations, kBudget, kSeed);
  const auto cph =
      MakeModelByName("cph", kEntities, kRelations, kBudget, kSeed);
  ASSERT_TRUE(simple.ok() && cph.ok());
  // Same seed and same shapes => identical embeddings.
  for (EntityId h = 0; h < 5; ++h) {
    const Triple triple{h, EntityId(h + 1), 0};
    EXPECT_NEAR((*simple)->Score(triple), 0.5 * (*cph)->Score(triple), 1e-5);
  }
}

TEST(ModelFactoryTest, KnownModelNamesIsNonEmptyAndUnique) {
  const auto names = KnownModelNames();
  EXPECT_GE(names.size(), 12u);
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

}  // namespace
}  // namespace kge
