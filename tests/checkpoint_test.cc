#include "models/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "models/er_mlp.h"
#include "models/learned_weight_model.h"
#include "models/model_factory.h"
#include "util/failpoint.h"
#include "util/io.h"
#include "test_temp_dir.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 12;
constexpr int32_t kRelations = 3;
constexpr int32_t kBudget = 24;

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

TEST(CheckpointTest, RoundTripEveryRegisteredModel) {
  for (const std::string& name : KnownModelNames()) {
    const std::string path = TempPath("ckpt_" + name + ".bin");
    Result<std::unique_ptr<KgeModel>> trained =
        MakeModelByName(name, kEntities, kRelations, kBudget, /*seed=*/1);
    ASSERT_TRUE(trained.ok()) << name;
    ASSERT_TRUE(SaveModelCheckpoint(**trained, path).ok()) << name;

    Result<std::unique_ptr<KgeModel>> fresh =
        MakeModelByName(name, kEntities, kRelations, kBudget, /*seed=*/999);
    ASSERT_TRUE(fresh.ok()) << name;
    ASSERT_TRUE(LoadModelCheckpoint(fresh->get(), path).ok()) << name;

    for (EntityId h = 0; h < 4; ++h) {
      const Triple triple{h, EntityId(h + 2), RelationId(h % kRelations)};
      EXPECT_EQ((*fresh)->Score(triple), (*trained)->Score(triple)) << name;
    }
    std::remove(path.c_str());
  }
}

TEST(CheckpointTest, PreservesLearnedOmega) {
  const std::string path = TempPath("ckpt_omega.bin");
  LearnedWeightOptions options;
  LearnedWeightModel trained("m", kEntities, kRelations, 8, options, 1);
  // Perturb omega away from the uniform start.
  trained.Blocks()[LearnedWeightModel::kOmegaBlock]->Row(0)[3] = -2.5f;
  trained.RefreshWeights();
  ASSERT_TRUE(SaveModelCheckpoint(trained, path).ok());

  LearnedWeightModel loaded("m", kEntities, kRelations, 8, options, 7);
  ASSERT_TRUE(LoadModelCheckpoint(&loaded, path).ok());
  loaded.RefreshWeights();
  EXPECT_EQ(loaded.CurrentOmega()[3], -2.5f);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsWrongModelName) {
  const std::string path = TempPath("ckpt_name.bin");
  auto complex = MakeModelByName("complex", kEntities, kRelations, kBudget, 1);
  ASSERT_TRUE(SaveModelCheckpoint(**complex, path).ok());
  auto distmult =
      MakeModelByName("distmult", kEntities, kRelations, kBudget, 1);
  EXPECT_FALSE(LoadModelCheckpoint(distmult->get(), path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsShapeMismatch) {
  const std::string path = TempPath("ckpt_shape.bin");
  auto small = MakeModelByName("complex", kEntities, kRelations, kBudget, 1);
  ASSERT_TRUE(SaveModelCheckpoint(**small, path).ok());
  auto large =
      MakeModelByName("complex", kEntities, kRelations, 2 * kBudget, 1);
  const Status status = LoadModelCheckpoint(large->get(), path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsGarbageFile) {
  const std::string path = TempPath("ckpt_garbage.bin");
  ASSERT_TRUE(WriteStringToFile(path, "this is not a checkpoint").ok());
  auto model = MakeModelByName("complex", kEntities, kRelations, kBudget, 1);
  EXPECT_FALSE(LoadModelCheckpoint(model->get(), path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileFails) {
  auto model = MakeModelByName("complex", kEntities, kRelations, kBudget, 1);
  EXPECT_FALSE(
      LoadModelCheckpoint(model->get(), "/nonexistent/ckpt.bin").ok());
}

TEST(CheckpointTest, LoadsLegacyV1Format) {
  const std::string path = TempPath("ckpt_v1.bin");
  auto trained = MakeModelByName("complex", kEntities, kRelations, kBudget, 1);
  {
    // Hand-write the pre-CRC v1 layout: magic, name, blocks. This is
    // byte-for-byte what SaveModelCheckpoint produced before format v2.
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.WriteUint32(kCheckpointMagicV1).ok());
    ASSERT_TRUE(writer.WriteString((*trained)->name()).ok());
    const auto blocks = (*trained)->Blocks();
    ASSERT_TRUE(writer.WriteUint32(uint32_t(blocks.size())).ok());
    for (ParameterBlock* block : blocks) {
      ASSERT_TRUE(writer.WriteString(block->name()).ok());
      ASSERT_TRUE(writer.WriteUint64(uint64_t(block->num_rows())).ok());
      ASSERT_TRUE(writer.WriteUint64(uint64_t(block->row_dim())).ok());
      ASSERT_TRUE(
          writer.WriteFloatArray(block->Flat().data(), block->Flat().size())
              .ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  auto fresh = MakeModelByName("complex", kEntities, kRelations, kBudget, 9);
  ASSERT_TRUE(LoadModelCheckpoint(fresh->get(), path).ok());
  const Triple triple{0, 2, 1};
  EXPECT_EQ((*fresh)->Score(triple), (*trained)->Score(triple));
  std::remove(path.c_str());
}

TEST(CheckpointTest, VerifyCheckpointAcceptsFreshSave) {
  const std::string path = TempPath("ckpt_verify.bin");
  auto model = MakeModelByName("distmult", kEntities, kRelations, kBudget, 1);
  ASSERT_TRUE(SaveModelCheckpoint(**model, path).ok());
  EXPECT_TRUE(VerifyCheckpoint(path).ok());
  // No leftover temp file from the atomic write.
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(CheckpointTest, DetectsSingleBitCorruption) {
  const std::string path = TempPath("ckpt_bitflip.bin");
  auto model = MakeModelByName("distmult", kEntities, kRelations, kBudget, 1);
  ASSERT_TRUE(SaveModelCheckpoint(**model, path).ok());
  Result<std::string> bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[corrupted.size() / 2] =
      static_cast<char>(corrupted[corrupted.size() / 2] ^ 0x10);
  ASSERT_TRUE(WriteStringToFile(path, corrupted).ok());
  EXPECT_FALSE(VerifyCheckpoint(path).ok());
  auto fresh = MakeModelByName("distmult", kEntities, kRelations, kBudget, 9);
  EXPECT_FALSE(LoadModelCheckpoint(fresh->get(), path).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveFailureLeavesExistingCheckpointIntact) {
  const std::string path = TempPath("ckpt_keep_old.bin");
  auto old_model =
      MakeModelByName("distmult", kEntities, kRelations, kBudget, 1);
  ASSERT_TRUE(SaveModelCheckpoint(**old_model, path).ok());
  Result<std::string> before = ReadFileToString(path);
  ASSERT_TRUE(before.ok());

  // Injected error in BinaryWriter::Close must abort the save without
  // touching the committed file.
  ASSERT_TRUE(failpoint::Set("io.writer.close", "error").ok());
  auto new_model =
      MakeModelByName("distmult", kEntities, kRelations, kBudget, 2);
  const Status save_status = SaveModelCheckpoint(**new_model, path);
  failpoint::ClearAll();
  if (failpoint::Enabled()) {
    EXPECT_FALSE(save_status.ok());
    EXPECT_FALSE(FileExists(path + ".tmp"));
  } else {
    EXPECT_TRUE(save_status.ok());
  }
  Result<std::string> after = ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  if (failpoint::Enabled()) {
    EXPECT_EQ(*before, *after);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kge
