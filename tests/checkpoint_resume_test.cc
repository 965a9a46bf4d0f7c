// The exact-resume contract: a training run that checkpoints, dies, and
// resumes must be bit-identical — epoch losses and final parameters —
// to the same run left uninterrupted, for both trainers and for every
// thread count. Plus the crash-site matrix: a process killed at ANY
// registered failpoint leaves a checkpoint directory whose LATEST
// pointer references a complete, CRC-valid file from which that exact
// resume still works.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "datagen/pattern_kg_generator.h"
#include "models/checkpoint.h"
#include "models/trilinear_models.h"
#include "optim/optimizer.h"
#include "train/one_vs_all.h"
#include "train/train_checkpoint.h"
#include "train/train_loop.h"
#include "train/trainer.h"
#include "util/failpoint.h"
#include "util/io.h"
#include "util/string_utils.h"
#include "test_temp_dir.h"

namespace kge {
namespace {

struct TinyWorkload {
  std::vector<Triple> train;
  int32_t num_entities = 60;
  int32_t num_relations = 3;
};

TinyWorkload MakeTinyWorkload(uint64_t seed = 7) {
  PatternKgOptions options;
  options.num_entities = 60;
  options.seed = seed;
  options.relations = {{RelationPattern::kSymmetric, 60, ""},
                       {RelationPattern::kInversePair, 60, ""}};
  TinyWorkload workload;
  workload.train = GeneratePatternKg(options, nullptr);
  return workload;
}

std::unique_ptr<MultiEmbeddingModel> MakeModel(const TinyWorkload& workload) {
  return MakeComplEx(workload.num_entities, workload.num_relations, 8, 42);
}

void ExpectBlocksBitIdentical(KgeModel* a, KgeModel* b) {
  std::vector<ParameterBlock*> blocks_a = a->Blocks();
  std::vector<ParameterBlock*> blocks_b = b->Blocks();
  ASSERT_EQ(blocks_a.size(), blocks_b.size());
  for (size_t i = 0; i < blocks_a.size(); ++i) {
    const auto flat_a = blocks_a[i]->Flat();
    const auto flat_b = blocks_b[i]->Flat();
    ASSERT_EQ(flat_a.size(), flat_b.size());
    for (size_t d = 0; d < flat_a.size(); ++d) {
      ASSERT_EQ(flat_a[d], flat_b[d])
          << blocks_a[i]->name() << " element " << d;
    }
  }
}

// A fresh per-test scratch directory (recursive remove, then recreate).
std::string FreshDir(const std::string& name) {
  const std::string dir = TestTempPath(name);
  const std::string cmd = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(cmd.c_str()), 0);
  EXPECT_TRUE(CreateDirectories(dir).ok());
  return dir;
}

// Deterministic synthetic validation metric: rises to a peak epoch,
// then declines — exercises best-epoch tracking and early stopping
// identically across runs.
ValidationFn PeakedMetric(int peak_epoch) {
  return [peak_epoch](int epoch) {
    return 1.0 - 0.01 * double(epoch > peak_epoch ? epoch - peak_epoch
                                                  : peak_epoch - epoch);
  };
}

TrainerOptions NegSamplingOptions(int max_epochs, int num_threads) {
  TrainerOptions options;
  options.max_epochs = max_epochs;
  options.batch_size = 32;
  options.num_negatives = 2;
  options.learning_rate = 0.05;
  options.eval_every_epochs = 3;
  options.patience_epochs = 1000;
  options.seed = 99;
  options.num_threads = num_threads;
  return options;
}

OneVsAllOptions OneVsAllTrainerOptions(int max_epochs, int num_threads) {
  OneVsAllOptions options;
  options.max_epochs = max_epochs;
  options.batch_queries = 16;
  options.learning_rate = 0.05;
  options.eval_every_epochs = 3;
  options.patience_epochs = 1000;
  options.seed = 99;
  options.num_threads = num_threads;
  return options;
}

class ResumeThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(ResumeThreadsTest, NegativeSamplingResumeIsBitIdentical) {
  const int num_threads = GetParam();
  const TinyWorkload workload = MakeTinyWorkload();
  constexpr int kTotalEpochs = 8;
  constexpr int kInterruptEpoch = 4;

  // Reference: one uninterrupted run.
  auto ref_model = MakeModel(workload);
  Trainer ref_trainer(ref_model.get(),
                      NegSamplingOptions(kTotalEpochs, num_threads));
  Result<TrainResult> ref =
      ref_trainer.Train(workload.train, PeakedMetric(6));
  ASSERT_TRUE(ref.ok());

  // Interrupted: train to kInterruptEpoch with checkpointing, then a
  // brand-new process-worth of state resumes to kTotalEpochs.
  const std::string dir =
      FreshDir("resume_ns_t" + std::to_string(num_threads));
  auto part_model = MakeModel(workload);
  {
    TrainerOptions options =
        NegSamplingOptions(kInterruptEpoch, num_threads);
    options.checkpointing.dir = dir;
    Trainer trainer(part_model.get(), options);
    Result<TrainResult> part = trainer.Train(workload.train, PeakedMetric(6));
    ASSERT_TRUE(part.ok());
    ASSERT_EQ(part->epochs_run, kInterruptEpoch);
  }
  auto resumed_model = MakeModel(workload);
  TrainerOptions options = NegSamplingOptions(kTotalEpochs, num_threads);
  options.checkpointing.dir = dir;
  options.checkpointing.resume = true;
  Trainer trainer(resumed_model.get(), options);
  Result<TrainResult> resumed =
      trainer.Train(workload.train, PeakedMetric(6));
  ASSERT_TRUE(resumed.ok());

  EXPECT_EQ(resumed->start_epoch, kInterruptEpoch);
  EXPECT_EQ(resumed->epochs_run, ref->epochs_run);
  ASSERT_EQ(resumed->loss_history.size(), ref->loss_history.size());
  for (size_t e = 0; e < ref->loss_history.size(); ++e) {
    EXPECT_EQ(resumed->loss_history[e], ref->loss_history[e])
        << "epoch " << e + 1;
  }
  EXPECT_EQ(resumed->validation_history, ref->validation_history);
  ExpectBlocksBitIdentical(resumed_model.get(), ref_model.get());
}

TEST_P(ResumeThreadsTest, OneVsAllResumeIsBitIdentical) {
  const int num_threads = GetParam();
  const TinyWorkload workload = MakeTinyWorkload();
  constexpr int kTotalEpochs = 8;
  constexpr int kInterruptEpoch = 4;

  auto ref_model = MakeModel(workload);
  OneVsAllTrainer ref_trainer(
      ref_model.get(), OneVsAllTrainerOptions(kTotalEpochs, num_threads));
  Result<TrainResult> ref =
      ref_trainer.Train(workload.train, PeakedMetric(6));
  ASSERT_TRUE(ref.ok());

  const std::string dir =
      FreshDir("resume_ova_t" + std::to_string(num_threads));
  auto part_model = MakeModel(workload);
  {
    OneVsAllOptions options =
        OneVsAllTrainerOptions(kInterruptEpoch, num_threads);
    options.checkpointing.dir = dir;
    OneVsAllTrainer trainer(part_model.get(), options);
    Result<TrainResult> part = trainer.Train(workload.train, PeakedMetric(6));
    ASSERT_TRUE(part.ok());
    ASSERT_EQ(part->epochs_run, kInterruptEpoch);
  }
  auto resumed_model = MakeModel(workload);
  OneVsAllOptions options = OneVsAllTrainerOptions(kTotalEpochs, num_threads);
  options.checkpointing.dir = dir;
  options.checkpointing.resume = true;
  OneVsAllTrainer trainer(resumed_model.get(), options);
  Result<TrainResult> resumed =
      trainer.Train(workload.train, PeakedMetric(6));
  ASSERT_TRUE(resumed.ok());

  EXPECT_EQ(resumed->start_epoch, kInterruptEpoch);
  ASSERT_EQ(resumed->loss_history.size(), ref->loss_history.size());
  for (size_t e = 0; e < ref->loss_history.size(); ++e) {
    EXPECT_EQ(resumed->loss_history[e], ref->loss_history[e])
        << "epoch " << e + 1;
  }
  ExpectBlocksBitIdentical(resumed_model.get(), ref_model.get());
}

INSTANTIATE_TEST_SUITE_P(Threads, ResumeThreadsTest, ::testing::Values(1, 4));

TEST(ResumeTest, EarlyStoppingPhaseSurvivesResume) {
  // The metric peaks at epoch 3 and declines; with eval every 3 epochs
  // and patience 4, the reference run stops early. A run interrupted
  // BETWEEN the best epoch and the stop must restore patience,
  // best-epoch, and the eval cadence phase — stopping at the same epoch
  // with the same restored-best parameters.
  const TinyWorkload workload = MakeTinyWorkload();
  auto make_options = [&](int max_epochs) {
    TrainerOptions options = NegSamplingOptions(max_epochs, 1);
    options.eval_every_epochs = 3;
    options.patience_epochs = 4;
    return options;
  };

  auto ref_model = MakeModel(workload);
  Trainer ref_trainer(ref_model.get(), make_options(40));
  Result<TrainResult> ref = ref_trainer.Train(workload.train, PeakedMetric(3));
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(ref->stopped_early);
  ASSERT_EQ(ref->best_epoch, 3);

  const std::string dir = FreshDir("resume_earlystop");
  auto part_model = MakeModel(workload);
  {
    // Interrupt after epoch 5: best (epoch 3) is already behind us and
    // patience is half-spent.
    TrainerOptions options = make_options(5);
    options.checkpointing.dir = dir;
    Trainer trainer(part_model.get(), options);
    ASSERT_TRUE(trainer.Train(workload.train, PeakedMetric(3)).ok());
  }
  auto resumed_model = MakeModel(workload);
  TrainerOptions options = make_options(40);
  options.checkpointing.dir = dir;
  options.checkpointing.resume = true;
  Trainer trainer(resumed_model.get(), options);
  Result<TrainResult> resumed = trainer.Train(workload.train, PeakedMetric(3));
  ASSERT_TRUE(resumed.ok());

  EXPECT_TRUE(resumed->stopped_early);
  EXPECT_EQ(resumed->epochs_run, ref->epochs_run);
  EXPECT_EQ(resumed->best_epoch, ref->best_epoch);
  EXPECT_EQ(resumed->best_validation_metric, ref->best_validation_metric);
  EXPECT_EQ(resumed->validation_history, ref->validation_history);
  ExpectBlocksBitIdentical(resumed_model.get(), ref_model.get());
}

TEST(ResumeTest, ResumeRejectsMismatchedSeed) {
  const TinyWorkload workload = MakeTinyWorkload();
  const std::string dir = FreshDir("resume_seed_mismatch");
  auto model = MakeModel(workload);
  {
    TrainerOptions options = NegSamplingOptions(2, 1);
    options.checkpointing.dir = dir;
    Trainer trainer(model.get(), options);
    ASSERT_TRUE(trainer.Train(workload.train, nullptr).ok());
  }
  auto resumed_model = MakeModel(workload);
  TrainerOptions options = NegSamplingOptions(4, 1);
  options.seed = 100;  // different stream — resume would diverge silently
  options.checkpointing.dir = dir;
  options.checkpointing.resume = true;
  Trainer trainer(resumed_model.get(), options);
  Result<TrainResult> resumed = trainer.Train(workload.train, nullptr);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ResumeTest, ResumeRejectsWrongTrainerKind) {
  const TinyWorkload workload = MakeTinyWorkload();
  const std::string dir = FreshDir("resume_kind_mismatch");
  auto model = MakeModel(workload);
  {
    TrainerOptions options = NegSamplingOptions(2, 1);
    options.checkpointing.dir = dir;
    Trainer trainer(model.get(), options);
    ASSERT_TRUE(trainer.Train(workload.train, nullptr).ok());
  }
  auto resumed_model = MakeModel(workload);
  OneVsAllOptions options = OneVsAllTrainerOptions(4, 1);
  options.checkpointing.dir = dir;
  options.checkpointing.resume = true;
  OneVsAllTrainer trainer(resumed_model.get(), options);
  Result<TrainResult> resumed = trainer.Train(workload.train, nullptr);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResumeTest, RetentionKeepsLatestAndBest) {
  const TinyWorkload workload = MakeTinyWorkload();
  const std::string dir = FreshDir("resume_retention");
  auto model = MakeModel(workload);
  TrainerOptions options = NegSamplingOptions(10, 1);
  options.eval_every_epochs = 3;
  options.checkpointing.dir = dir;
  options.checkpointing.keep_last = 2;
  Trainer trainer(model.get(), options);
  // Metric peaks at epoch 3: the best checkpoint is old by epoch 10.
  Result<TrainResult> result = trainer.Train(workload.train, PeakedMetric(3));
  ASSERT_TRUE(result.ok());

  // Best epoch's file survives retention; so do the keep_last newest.
  EXPECT_TRUE(FileExists(dir + "/ckpt_3.kge2"));
  EXPECT_TRUE(FileExists(dir + "/ckpt_10.kge2"));
  EXPECT_TRUE(FileExists(dir + "/ckpt_9.kge2"));
  EXPECT_FALSE(FileExists(dir + "/ckpt_5.kge2"));
  EXPECT_FALSE(FileExists(dir + "/ckpt_6.kge2"));
  Result<std::string> latest = ReadFileToString(dir + "/LATEST");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(TrimString(*latest), "ckpt_10.kge2");
}

// ---------------------------------------------------------------------
// Divergence guard (driven through TrainLoop directly so the test can
// poison a specific epoch).

TEST(DivergenceGuardTest, RollsBackAndReducesLearningRate) {
  const TinyWorkload workload = MakeTinyWorkload();
  auto model = MakeModel(workload);
  auto optimizer = MakeOptimizer("sgd", model->Blocks(), 0.1).value();
  Optimizer* opt = optimizer.get();

  TrainLoopConfig config;
  config.trainer_kind = "poison_probe";
  config.max_epochs = 8;
  config.seed = 5;
  config.log_name = "poison";
  config.checkpointing.dir = FreshDir("diverge_rollback");
  config.divergence.max_retries = 2;
  config.divergence.lr_backoff = 0.5;

  int calls = 0;
  bool poisoned = false;
  auto run_epoch = [&](Rng* rng) {
    ++calls;
    // Nudge one parameter deterministically so epochs are observable.
    model->Blocks()[0]->Row(0)[0] += rng->NextUniform(0.0f, 0.01f);
    if (calls == 5 && !poisoned) {
      poisoned = true;
      return std::numeric_limits<double>::quiet_NaN();
    }
    return 0.5;
  };
  TrainLoop loop(model.get(), opt, config);
  Result<TrainResult> result = loop.Run(run_epoch, nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->divergence_rollbacks, 1);
  EXPECT_EQ(result->epochs_run, 8);
  EXPECT_EQ(result->loss_history.size(), 8u);
  EXPECT_EQ(opt->learning_rate(), 0.05);
  // Epoch 5 was replayed after rolling back to epoch 4's checkpoint.
  EXPECT_EQ(calls, 9);
}

TEST(DivergenceGuardTest, GivesUpAfterMaxRetries) {
  const TinyWorkload workload = MakeTinyWorkload();
  auto model = MakeModel(workload);
  auto optimizer = MakeOptimizer("sgd", model->Blocks(), 0.1).value();

  TrainLoopConfig config;
  config.trainer_kind = "poison_probe";
  config.max_epochs = 8;
  config.seed = 5;
  config.log_name = "poison";
  config.checkpointing.dir = FreshDir("diverge_giveup");
  config.divergence.max_retries = 2;

  int calls = 0;
  auto run_epoch = [&](Rng*) {
    ++calls;
    // Epoch 3 diverges every time it is attempted.
    return calls >= 3 ? std::numeric_limits<double>::quiet_NaN() : 0.5;
  };
  TrainLoop loop(model.get(), optimizer.get(), config);
  Result<TrainResult> result = loop.Run(run_epoch, nullptr, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DivergenceGuardTest, ErrorsWithoutCheckpointDirectory) {
  const TinyWorkload workload = MakeTinyWorkload();
  auto model = MakeModel(workload);
  auto optimizer = MakeOptimizer("sgd", model->Blocks(), 0.1).value();

  TrainLoopConfig config;
  config.trainer_kind = "poison_probe";
  config.max_epochs = 4;
  config.seed = 5;
  config.log_name = "poison";

  auto run_epoch = [&](Rng*) {
    return std::numeric_limits<double>::infinity();
  };
  TrainLoop loop(model.get(), optimizer.get(), config);
  Result<TrainResult> result = loop.Run(run_epoch, nullptr, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DivergenceGuardTest, NonFiniteParametersTriggerRollback) {
  const TinyWorkload workload = MakeTinyWorkload();
  auto model = MakeModel(workload);
  auto optimizer = MakeOptimizer("sgd", model->Blocks(), 0.1).value();

  TrainLoopConfig config;
  config.trainer_kind = "poison_probe";
  config.max_epochs = 6;
  config.seed = 5;
  config.log_name = "poison";
  config.checkpointing.dir = FreshDir("diverge_params");

  int calls = 0;
  bool poisoned = false;
  auto run_epoch = [&](Rng*) {
    ++calls;
    if (calls == 4 && !poisoned) {
      poisoned = true;
      // Loss looks fine but a parameter went NaN — must still roll back.
      model->Blocks()[0]->Row(0)[0] = std::numeric_limits<float>::quiet_NaN();
    }
    return 0.5;
  };
  TrainLoop loop(model.get(), optimizer.get(), config);
  Result<TrainResult> result = loop.Run(run_epoch, nullptr, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->divergence_rollbacks, 1);
  for (ParameterBlock* block : model->Blocks()) {
    for (float value : block->Flat()) {
      ASSERT_TRUE(std::isfinite(value));
    }
  }
}

// ---------------------------------------------------------------------
// Crash-site matrix: kill the process at every registered failpoint and
// prove (a) LATEST never references a torn or CRC-invalid checkpoint
// and (b) resuming still reproduces the uninterrupted run exactly.

TEST(CrashMatrixTest, EveryCrashSiteLeavesRecoverableState) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "build does not define KGE_FAILPOINTS";
  }
  const TinyWorkload workload = MakeTinyWorkload();
  constexpr int kTotalEpochs = 6;

  // Uninterrupted reference for the recovery comparison.
  auto ref_model = MakeModel(workload);
  Trainer ref_trainer(ref_model.get(), NegSamplingOptions(kTotalEpochs, 1));
  ASSERT_TRUE(ref_trainer.Train(workload.train, nullptr).ok());

  for (const std::string& site : failpoint::KnownSites()) {
    // Serving-layer sites never fire during training; the serve-side
    // crash/corruption matrix lives in serve_server_test.cc.
    if (site.rfind("serve.", 0) == 0) continue;
    SCOPED_TRACE("site " + site);
    const std::string dir = FreshDir("crash_" + site);
    const bool is_load_site = site == "ckpt.load.begin";

    // The child trains with per-epoch checkpointing and dies at the
    // armed site. Load sites only fire on resume, so that child first
    // checkpoints cleanly, then crashes resuming.
    auto run_child = [&]() {
      {
        TrainerOptions options = NegSamplingOptions(3, 1);
        options.checkpointing.dir = dir;
        if (!is_load_site) {
          ASSERT_TRUE(failpoint::Set(site, "crash@2").ok());
        }
        auto child_model = MakeModel(workload);
        Trainer trainer(child_model.get(), options);
        (void)trainer.Train(workload.train, nullptr);
      }
      if (is_load_site) {
        ASSERT_TRUE(failpoint::Set(site, "crash").ok());
        TrainerOptions options = NegSamplingOptions(kTotalEpochs, 1);
        options.checkpointing.dir = dir;
        options.checkpointing.resume = true;
        auto child_model = MakeModel(workload);
        Trainer trainer(child_model.get(), options);
        (void)trainer.Train(workload.train, nullptr);
      }
    };
    EXPECT_EXIT(run_child(),
                testing::ExitedWithCode(failpoint::kFailpointExitCode),
                "failpoint");

    // (a) Whatever LATEST references must be complete and CRC-valid.
    // (Init also sweeps any *.tmp the killed process stranded.)
    CheckpointManager manager(dir, 3);
    ASSERT_TRUE(manager.Init().ok());
    Result<std::string> latest = manager.LatestPath();
    if (latest.ok()) {
      EXPECT_TRUE(VerifyCheckpoint(*latest).ok()) << *latest;
    } else {
      // Died before the first commit — that is fine, but it must be a
      // clean NotFound, not a torn pointer.
      EXPECT_EQ(latest.status().code(), StatusCode::kNotFound);
    }
    // Stale temp files from the crash are gone after recovery init.
    EXPECT_FALSE(FileExists(dir + "/LATEST.tmp"));

    // (b) Resume (from whatever survived, possibly nothing) and finish:
    // the result must match the uninterrupted reference bit-for-bit.
    auto resumed_model = MakeModel(workload);
    TrainerOptions options = NegSamplingOptions(kTotalEpochs, 1);
    options.checkpointing.dir = dir;
    options.checkpointing.resume = true;
    Trainer trainer(resumed_model.get(), options);
    Result<TrainResult> resumed = trainer.Train(workload.train, nullptr);
    ASSERT_TRUE(resumed.ok()) << resumed.status().message();
    ExpectBlocksBitIdentical(resumed_model.get(), ref_model.get());
  }
}

}  // namespace
}  // namespace kge
