// End-to-end integration tests: generate a knowledge graph, train models
// through the full Trainer/Evaluator stack, and assert the qualitative
// findings the paper's Table 2 rests on — at miniature scale so the suite
// stays fast.
#include <gtest/gtest.h>

#include <cstdio>

#include "kge.h"
#include "test_temp_dir.h"

namespace kge {
namespace {

struct Workload {
  Dataset dataset;
  FilterIndex filter;
};

// A pattern KG dominated by inverse-paired (asymmetric) relations, the
// regime where the paper's model ranking is sharpest.
Workload MakePatternWorkload(uint64_t seed) {
  PatternKgOptions options;
  options.num_entities = 120;
  options.seed = seed;
  options.relations = {{RelationPattern::kInversePair, 400, "inv"},
                       {RelationPattern::kSymmetric, 150, "sym"}};
  Workload workload;
  const auto triples = GeneratePatternKg(options, &workload.dataset);
  SplitOptions split_options;
  split_options.valid_fraction = 0.05;
  split_options.test_fraction = 0.1;
  split_options.seed = seed + 1;
  SplitResult split = SplitTriples(triples, split_options);
  workload.dataset.train = std::move(split.train);
  workload.dataset.valid = std::move(split.valid);
  workload.dataset.test = std::move(split.test);
  workload.filter.Build(workload.dataset.train, workload.dataset.valid,
                        workload.dataset.test);
  return workload;
}

RankingMetrics TrainAndEvaluate(KgeModel* model, const Workload& workload,
                                const std::vector<Triple>& eval_triples,
                                int epochs = 120) {
  TrainerOptions options;
  options.max_epochs = epochs;
  options.batch_size = 256;
  options.learning_rate = 0.02;
  options.eval_every_epochs = 1000;  // no early stopping in tests
  options.seed = 17;
  Trainer trainer(model, options);
  KGE_CHECK_OK(trainer.Train(workload.dataset.train, nullptr).status());

  Evaluator evaluator(&workload.filter, workload.dataset.num_relations());
  EvalOptions eval_options;
  eval_options.filtered = true;
  return evaluator.EvaluateOverall(*model, eval_triples, eval_options);
}

class EndToEndTest : public testing::Test {
 protected:
  static void SetUpTestSuite() { workload_ = new Workload(MakePatternWorkload(99)); }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }
  static Workload* workload_;
};

Workload* EndToEndTest::workload_ = nullptr;

TEST_F(EndToEndTest, ComplExLearnsInverseStructure) {
  auto model = MakeComplEx(workload_->dataset.num_entities(),
                           workload_->dataset.num_relations(), 16, 1);
  const RankingMetrics metrics =
      TrainAndEvaluate(model.get(), *workload_, workload_->dataset.test);
  EXPECT_GT(metrics.Mrr(), 0.5) << metrics.ToString();
}

TEST_F(EndToEndTest, CphLearnsInverseStructure) {
  auto model = MakeCph(workload_->dataset.num_entities(),
                       workload_->dataset.num_relations(), 16, 1);
  const RankingMetrics metrics =
      TrainAndEvaluate(model.get(), *workload_, workload_->dataset.test);
  EXPECT_GT(metrics.Mrr(), 0.5) << metrics.ToString();
}

TEST_F(EndToEndTest, QuaternionLearnsInverseStructure) {
  auto model = MakeQuaternionModel(workload_->dataset.num_entities(),
                                   workload_->dataset.num_relations(), 8, 1);
  const RankingMetrics metrics =
      TrainAndEvaluate(model.get(), *workload_, workload_->dataset.test);
  EXPECT_GT(metrics.Mrr(), 0.5) << metrics.ToString();
}

TEST_F(EndToEndTest, CpGeneralizesPoorlyButFitsTrain) {
  // The paper's central CP finding: near-perfect fit on train, collapse
  // on test (severe overfitting, §6.1.1).
  auto model = MakeCp(workload_->dataset.num_entities(),
                      workload_->dataset.num_relations(), 24, 1);
  const RankingMetrics test_metrics = TrainAndEvaluate(
      model.get(), *workload_, workload_->dataset.test, /*epochs=*/300);

  Evaluator evaluator(&workload_->filter,
                      workload_->dataset.num_relations());
  EvalOptions eval_options;
  eval_options.filtered = true;
  eval_options.max_triples = 200;
  const RankingMetrics train_metrics = evaluator.EvaluateOverall(
      *model, workload_->dataset.train, eval_options);

  EXPECT_GT(train_metrics.Mrr(), 0.8) << train_metrics.ToString();
  EXPECT_LT(test_metrics.Mrr(), 0.4) << test_metrics.ToString();
}

TEST_F(EndToEndTest, ComplExBeatsDistMultAndCpOnAsymmetricData) {
  auto complex = MakeComplEx(workload_->dataset.num_entities(),
                             workload_->dataset.num_relations(), 16, 2);
  auto distmult = MakeDistMult(workload_->dataset.num_entities(),
                               workload_->dataset.num_relations(), 32, 2);
  auto cp = MakeCp(workload_->dataset.num_entities(),
                   workload_->dataset.num_relations(), 16, 2);
  const double complex_mrr =
      TrainAndEvaluate(complex.get(), *workload_, workload_->dataset.test)
          .Mrr();
  const double distmult_mrr =
      TrainAndEvaluate(distmult.get(), *workload_, workload_->dataset.test)
          .Mrr();
  const double cp_mrr =
      TrainAndEvaluate(cp.get(), *workload_, workload_->dataset.test).Mrr();
  EXPECT_GT(complex_mrr, distmult_mrr);
  EXPECT_GT(complex_mrr, cp_mrr + 0.2);
}

TEST(EndToEndSymmetricTest, DistMultHandlesPurelySymmetricData) {
  // On symmetric-only data DistMult's inductive bias is correct.
  PatternKgOptions options;
  options.num_entities = 100;
  options.seed = 3;
  options.relations = {{RelationPattern::kSymmetric, 400, "sym"}};
  Workload workload;
  const auto triples = GeneratePatternKg(options, &workload.dataset);
  SplitOptions split_options;
  split_options.test_fraction = 0.1;
  SplitResult split = SplitTriples(triples, split_options);
  workload.dataset.train = std::move(split.train);
  workload.dataset.valid = std::move(split.valid);
  workload.dataset.test = std::move(split.test);
  workload.filter.Build(workload.dataset.train, workload.dataset.valid,
                        workload.dataset.test);

  auto model = MakeDistMult(workload.dataset.num_entities(),
                            workload.dataset.num_relations(), 32, 1);
  const RankingMetrics metrics =
      TrainAndEvaluate(model.get(), workload, workload.dataset.test);
  EXPECT_GT(metrics.Mrr(), 0.5) << metrics.ToString();
}

TEST(EndToEndWordNetTest, FullStackOnWordNetLikeData) {
  // Smoke-scale WordNet-like run through the complete pipeline.
  WordNetLikeOptions options;
  options.num_entities = 250;
  options.seed = 8;
  Workload workload;
  workload.dataset = GenerateWordNetLike(options);
  ASSERT_TRUE(workload.dataset.Validate().ok());
  workload.filter.Build(workload.dataset.train, workload.dataset.valid,
                        workload.dataset.test);

  auto model = MakeComplEx(workload.dataset.num_entities(),
                           workload.dataset.num_relations(), 16, 4);
  const RankingMetrics metrics =
      TrainAndEvaluate(model.get(), workload, workload.dataset.test, 150);
  // Miniature scale: just assert clearly-better-than-chance ranking.
  EXPECT_GT(metrics.Mrr(), 0.15) << metrics.ToString();
  EXPECT_GT(metrics.HitsAt(10), 0.3) << metrics.ToString();
}

TEST(EndToEndCheckpointTest, SaveLoadPreservesScores) {
  auto model = MakeComplEx(30, 4, 8, 11);
  const std::string path = TestTempPath("model.ckpt");
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(model->entity_store().Save(&writer).ok());
    ASSERT_TRUE(model->relation_store().Save(&writer).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  auto loaded = MakeComplEx(30, 4, 8, 999);  // different init
  EXPECT_NE(loaded->Score({0, 1, 0}), model->Score({0, 1, 0}));
  {
    BinaryReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    ASSERT_TRUE(loaded->entity_store().Load(&reader).ok());
    ASSERT_TRUE(loaded->relation_store().Load(&reader).ok());
  }
  EXPECT_EQ(loaded->Score({0, 1, 0}), model->Score({0, 1, 0}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kge
