#include "kg/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/io.h"
#include "test_temp_dir.h"

namespace kge {
namespace {

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

TEST(DatasetTest, ReadTripleFileHeadRelationTail) {
  const std::string path = TempPath("hrt.txt");
  ASSERT_TRUE(
      WriteStringToFile(path, "cat\tis_a\tanimal\ndog\tis_a\tanimal\n").ok());
  Dataset dataset;
  std::vector<Triple> triples;
  ASSERT_TRUE(ReadTripleFile(path, TripleFileFormat::kHeadRelationTail,
                             &dataset, &triples)
                  .ok());
  ASSERT_EQ(triples.size(), 2u);
  EXPECT_EQ(dataset.entities.NameOf(triples[0].head), "cat");
  EXPECT_EQ(dataset.entities.NameOf(triples[0].tail), "animal");
  EXPECT_EQ(dataset.relations.NameOf(triples[0].relation), "is_a");
  EXPECT_EQ(triples[1].tail, triples[0].tail);  // shared "animal"
  std::remove(path.c_str());
}

TEST(DatasetTest, ReadTripleFileHeadTailRelation) {
  const std::string path = TempPath("htr.txt");
  ASSERT_TRUE(WriteStringToFile(path, "cat\tanimal\tis_a\n").ok());
  Dataset dataset;
  std::vector<Triple> triples;
  ASSERT_TRUE(ReadTripleFile(path, TripleFileFormat::kHeadTailRelation,
                             &dataset, &triples)
                  .ok());
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(dataset.entities.NameOf(triples[0].tail), "animal");
  EXPECT_EQ(dataset.relations.NameOf(triples[0].relation), "is_a");
  std::remove(path.c_str());
}

TEST(DatasetTest, ReadSkipsBlankAndCommentLines) {
  const std::string path = TempPath("comments.txt");
  ASSERT_TRUE(
      WriteStringToFile(path, "# header\n\na\tr\tb\n   \nc\tr\td\n").ok());
  Dataset dataset;
  std::vector<Triple> triples;
  ASSERT_TRUE(ReadTripleFile(path, TripleFileFormat::kHeadRelationTail,
                             &dataset, &triples)
                  .ok());
  EXPECT_EQ(triples.size(), 2u);
  std::remove(path.c_str());
}

TEST(DatasetTest, ReadFallsBackToWhitespaceSplit) {
  const std::string path = TempPath("spaces.txt");
  ASSERT_TRUE(WriteStringToFile(path, "a r b\n").ok());
  Dataset dataset;
  std::vector<Triple> triples;
  ASSERT_TRUE(ReadTripleFile(path, TripleFileFormat::kHeadRelationTail,
                             &dataset, &triples)
                  .ok());
  EXPECT_EQ(triples.size(), 1u);
  std::remove(path.c_str());
}

TEST(DatasetTest, ReadRejectsMalformedLines) {
  const std::string path = TempPath("bad.txt");
  ASSERT_TRUE(WriteStringToFile(path, "only_two\tfields\n").ok());
  Dataset dataset;
  std::vector<Triple> triples;
  const Status status = ReadTripleFile(
      path, TripleFileFormat::kHeadRelationTail, &dataset, &triples);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(DatasetTest, ReadMissingFileFails) {
  Dataset dataset;
  std::vector<Triple> triples;
  EXPECT_FALSE(ReadTripleFile("/nonexistent/x.txt",
                              TripleFileFormat::kHeadRelationTail, &dataset,
                              &triples)
                   .ok());
}

TEST(DatasetTest, SaveLoadDirectoryRoundTrip) {
  Dataset dataset;
  const EntityId a = dataset.entities.GetOrAdd("a");
  const EntityId b = dataset.entities.GetOrAdd("b");
  const EntityId c = dataset.entities.GetOrAdd("c");
  const RelationId r = dataset.relations.GetOrAdd("r");
  dataset.train = {{a, b, r}, {b, c, r}, {c, a, r}};
  dataset.valid = {{a, c, r}};
  dataset.test = {{b, a, r}};

  const std::string dir = TestTempDir();
  ASSERT_TRUE(SaveDatasetToDirectory(
                  dir, TripleFileFormat::kHeadRelationTail, dataset)
                  .ok());
  Result<Dataset> loaded =
      LoadDatasetFromDirectory(dir, TripleFileFormat::kHeadRelationTail);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->train.size(), 3u);
  EXPECT_EQ(loaded->valid.size(), 1u);
  EXPECT_EQ(loaded->test.size(), 1u);
  EXPECT_EQ(loaded->num_entities(), 3);
  EXPECT_EQ(loaded->num_relations(), 1);
  // Names survive.
  EXPECT_NE(loaded->entities.Find("a"), -1);
  for (const char* split : {"train.txt", "valid.txt", "test.txt"}) {
    std::remove((dir + "/" + split).c_str());
  }
}

TEST(DatasetTest, ValidatePassesOnConsistentDataset) {
  Dataset dataset;
  const EntityId a = dataset.entities.GetOrAdd("a");
  const EntityId b = dataset.entities.GetOrAdd("b");
  const RelationId r = dataset.relations.GetOrAdd("r");
  dataset.train = {{a, b, r}, {b, a, r}};
  dataset.valid = {{a, b, r}};
  dataset.test = {{b, a, r}};
  EXPECT_TRUE(dataset.Validate().ok());
}

TEST(DatasetTest, ValidateCatchesOutOfRangeIds) {
  Dataset dataset;
  dataset.entities.GetOrAdd("a");
  dataset.relations.GetOrAdd("r");
  dataset.train = {{0, 7, 0}};  // tail id 7 does not exist
  EXPECT_EQ(dataset.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(DatasetTest, ValidateCatchesUnseenTestEntity) {
  Dataset dataset;
  const EntityId a = dataset.entities.GetOrAdd("a");
  const EntityId b = dataset.entities.GetOrAdd("b");
  const EntityId c = dataset.entities.GetOrAdd("c");
  const RelationId r = dataset.relations.GetOrAdd("r");
  dataset.train = {{a, b, r}};
  dataset.test = {{a, c, r}};  // c never appears in train
  EXPECT_EQ(dataset.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetTest, ValidateCatchesUnseenTestRelation) {
  Dataset dataset;
  const EntityId a = dataset.entities.GetOrAdd("a");
  const EntityId b = dataset.entities.GetOrAdd("b");
  const RelationId r0 = dataset.relations.GetOrAdd("r0");
  const RelationId r1 = dataset.relations.GetOrAdd("r1");
  dataset.train = {{a, b, r0}};
  dataset.valid = {{a, b, r1}};
  EXPECT_EQ(dataset.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetTest, StatsStringMentionsCounts) {
  Dataset dataset;
  dataset.entities.GetOrAdd("a");
  const std::string stats = dataset.StatsString();
  EXPECT_NE(stats.find("entities=1"), std::string::npos);
  EXPECT_NE(stats.find("train=0"), std::string::npos);
}

}  // namespace
}  // namespace kge
