#include "eval/export.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/io.h"
#include "util/string_utils.h"
#include "test_temp_dir.h"

namespace kge {
namespace {

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

TEST(ExportTest, WritesOneRowPerIdWithAllComponents) {
  EmbeddingStore store("e", 3, 2, 2);
  for (int32_t id = 0; id < 3; ++id) {
    auto row = store.Of(id);
    for (size_t d = 0; d < row.size(); ++d) {
      row[d] = float(id) + float(d) * 0.25f;
    }
  }
  const std::string vectors_path = TempPath("vectors.tsv");
  ASSERT_TRUE(
      ExportEmbeddingsTsv(store, nullptr, vectors_path, "").ok());
  const Result<std::string> content = ReadFileToString(vectors_path);
  ASSERT_TRUE(content.ok());
  const auto lines = SplitString(TrimString(*content), '\n');
  ASSERT_EQ(lines.size(), 3u);
  // Each row has 4 tab-separated values (2 vectors x 2 dims).
  EXPECT_EQ(SplitString(lines[0], '\t').size(), 4u);
  EXPECT_EQ(*ParseDouble(SplitString(lines[1], '\t')[0]), 1.0);
  EXPECT_EQ(*ParseDouble(SplitString(lines[2], '\t')[3]), 2.75);
  std::remove(vectors_path.c_str());
}

TEST(ExportTest, WritesMetadataWhenVocabularyGiven) {
  EmbeddingStore store("e", 2, 1, 2);
  Vocabulary names;
  names.GetOrAdd("alpha");
  names.GetOrAdd("beta");
  const std::string vectors_path = TempPath("vectors2.tsv");
  const std::string metadata_path = TempPath("metadata.tsv");
  ASSERT_TRUE(
      ExportEmbeddingsTsv(store, &names, vectors_path, metadata_path).ok());
  const Result<std::string> metadata = ReadFileToString(metadata_path);
  ASSERT_TRUE(metadata.ok());
  EXPECT_EQ(*metadata, "alpha\nbeta\n");
  std::remove(vectors_path.c_str());
  std::remove(metadata_path.c_str());
}

TEST(ExportTest, RejectsVocabularySizeMismatch) {
  EmbeddingStore store("e", 3, 1, 2);
  Vocabulary names;
  names.GetOrAdd("only_one");
  EXPECT_FALSE(ExportEmbeddingsTsv(store, &names, TempPath("x.tsv"),
                                   TempPath("y.tsv"))
                   .ok());
}

TEST(ExportTest, FailsOnUnwritablePath) {
  EmbeddingStore store("e", 1, 1, 2);
  EXPECT_FALSE(
      ExportEmbeddingsTsv(store, nullptr, "/nonexistent/dir/v.tsv", "")
          .ok());
}

}  // namespace
}  // namespace kge
