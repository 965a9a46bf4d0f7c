#include "core/embedding_store.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "math/vec_ops.h"
#include "util/io.h"
#include "test_temp_dir.h"

namespace kge {
namespace {

TEST(EmbeddingStoreTest, ShapeAccessors) {
  EmbeddingStore store("e", 10, 2, 8);
  EXPECT_EQ(store.num_ids(), 10);
  EXPECT_EQ(store.num_vectors(), 2);
  EXPECT_EQ(store.dim(), 8);
  EXPECT_EQ(store.Of(0).size(), 16u);
  EXPECT_EQ(store.Vec(0, 1).size(), 8u);
}

TEST(EmbeddingStoreTest, VecIsSubspanOfOf) {
  EmbeddingStore store("e", 3, 2, 4);
  store.Vec(1, 1)[2] = 5.0f;
  EXPECT_EQ(store.Of(1)[4 + 2], 5.0f);
  EXPECT_EQ(store.Of(0)[6], 0.0f);
}

TEST(EmbeddingStoreTest, InitXavierPopulatesAllEntries) {
  EmbeddingStore store("e", 20, 2, 16);
  Rng rng(1);
  store.InitXavier(&rng);
  int nonzero = 0;
  for (int32_t id = 0; id < 20; ++id) {
    for (float x : store.Of(id)) nonzero += x != 0.0f;
  }
  EXPECT_EQ(nonzero, 20 * 32);
}

TEST(EmbeddingStoreTest, NormalizeVectorsOfNormalizesEachVectorSeparately) {
  EmbeddingStore store("e", 2, 3, 4);
  Rng rng(2);
  store.InitXavier(&rng);
  store.NormalizeVectorsOf(1);
  for (int32_t v = 0; v < 3; ++v) {
    EXPECT_NEAR(Norm(store.Vec(1, v)), 1.0, 1e-6);
  }
  // Other ids untouched.
  EXPECT_NE(Norm(store.Vec(0, 0)), 1.0);
}

TEST(EmbeddingStoreTest, SaveLoadRoundTrip) {
  const std::string path = TestTempPath("embeddings.bin");
  EmbeddingStore store("e", 5, 2, 6);
  Rng rng(3);
  store.InitXavier(&rng);
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(store.Save(&writer).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  EmbeddingStore loaded("e", 5, 2, 6);
  {
    BinaryReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    ASSERT_TRUE(loaded.Load(&reader).ok());
  }
  for (int32_t id = 0; id < 5; ++id) {
    EXPECT_EQ(MaxAbsDiff(store.Of(id), loaded.Of(id)), 0.0);
  }
  std::remove(path.c_str());
}

TEST(EmbeddingStoreTest, LoadRejectsShapeMismatch) {
  const std::string path = TestTempPath("embeddings_bad.bin");
  EmbeddingStore store("e", 5, 2, 6);
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(store.Save(&writer).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  EmbeddingStore wrong_shape("e", 5, 2, 7);
  BinaryReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_FALSE(wrong_shape.Load(&reader).ok());
  std::remove(path.c_str());
}

TEST(EmbeddingStoreTest, BlockExposesUnderlyingParameters) {
  EmbeddingStore store("mine", 4, 2, 3);
  EXPECT_EQ(store.block()->name(), "mine");
  EXPECT_EQ(store.block()->num_rows(), 4);
  EXPECT_EQ(store.block()->row_dim(), 6);
}

}  // namespace
}  // namespace kge
