#include "util/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "test_temp_dir.h"

namespace kge {
namespace {

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

TEST(FileIoTest, WriteAndReadRoundTrip) {
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteStringToFile(path, "hello\nworld\n").ok());
  Result<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello\nworld\n");
  std::remove(path.c_str());
}

TEST(FileIoTest, ReadMissingFileFails) {
  Result<std::string> content = ReadFileToString("/nonexistent/nope.txt");
  EXPECT_FALSE(content.ok());
  EXPECT_EQ(content.status().code(), StatusCode::kIoError);
}

TEST(FileIoTest, FileExists) {
  const std::string path = TempPath("exists.txt");
  EXPECT_FALSE(FileExists(path));
  ASSERT_TRUE(WriteStringToFile(path, "x").ok());
  EXPECT_TRUE(FileExists(path));
  std::remove(path.c_str());
}

TEST(FileIoTest, EmptyFileRoundTrip) {
  const std::string path = TempPath("empty.txt");
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  Result<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_TRUE(content->empty());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ScalarRoundTrip) {
  const std::string path = TempPath("scalars.bin");
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.WriteUint32(0xDEADBEEF).ok());
    ASSERT_TRUE(writer.WriteUint64(0x0123456789ABCDEFULL).ok());
    ASSERT_TRUE(writer.WriteFloat(3.5f).ok());
    ASSERT_TRUE(writer.WriteDouble(-2.25).ok());
    ASSERT_TRUE(writer.WriteString("knowledge graph").ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  {
    BinaryReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    EXPECT_EQ(*reader.ReadUint32(), 0xDEADBEEF);
    EXPECT_EQ(*reader.ReadUint64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(*reader.ReadFloat(), 3.5f);
    EXPECT_EQ(*reader.ReadDouble(), -2.25);
    EXPECT_EQ(*reader.ReadString(), "knowledge graph");
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, FloatArrayRoundTrip) {
  const std::string path = TempPath("floats.bin");
  std::vector<float> values;
  for (int i = 0; i < 1000; ++i) values.push_back(float(i) * 0.125f);
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.WriteFloatArray(values.data(), values.size()).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::vector<float> loaded(values.size());
  {
    BinaryReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    ASSERT_TRUE(reader.ReadFloatArray(loaded.data(), loaded.size()).ok());
  }
  EXPECT_EQ(loaded, values);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, FloatArraySizeMismatchFails) {
  const std::string path = TempPath("mismatch.bin");
  const float values[3] = {1, 2, 3};
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.WriteFloatArray(values, 3).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  float loaded[5];
  BinaryReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_FALSE(reader.ReadFloatArray(loaded, 5).ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ShortReadFails) {
  const std::string path = TempPath("short.bin");
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.WriteUint32(1).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_FALSE(reader.ReadUint64().ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, OpenMissingFileFails) {
  BinaryReader reader;
  EXPECT_FALSE(reader.Open("/nonexistent/missing.bin").ok());
}

TEST(BinaryIoTest, AtomicClosePublishesAndRemovesTemp) {
  const std::string path = TempPath("atomic.bin");
  std::remove(path.c_str());
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.OpenAtomic(path).ok());
    ASSERT_TRUE(writer.WriteUint32(7).ok());
    // Until Close(), the target must not exist (only `<path>.tmp`).
    EXPECT_FALSE(FileExists(path));
    EXPECT_TRUE(FileExists(path + ".tmp"));
    ASSERT_TRUE(writer.Close().ok());
  }
  EXPECT_TRUE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
  BinaryReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(*reader.ReadUint32(), 7u);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, AbandonLeavesTargetUntouched) {
  const std::string path = TempPath("abandon.bin");
  ASSERT_TRUE(WriteStringToFile(path, "old contents").ok());
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.OpenAtomic(path).ok());
    ASSERT_TRUE(writer.WriteUint32(0xFFFFFFFF).ok());
    writer.Abandon();
  }
  EXPECT_FALSE(FileExists(path + ".tmp"));
  Result<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "old contents");
  std::remove(path.c_str());
}

TEST(BinaryIoTest, DestructorWithoutCloseAbandons) {
  const std::string path = TempPath("dtor.bin");
  std::remove(path.c_str());
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.OpenAtomic(path).ok());
    ASSERT_TRUE(writer.WriteUint32(1).ok());
  }
  // Going out of scope without Close() must not publish a torn file.
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(BinaryIoTest, WriterAndReaderCrcAgree) {
  const std::string path = TempPath("crc.bin");
  uint32_t written_crc = 0;
  uint64_t written_bytes = 0;
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.WriteUint32(42).ok());
    ASSERT_TRUE(writer.WriteString("checkpoint").ok());
    ASSERT_TRUE(writer.WriteDouble(2.5).ok());
    written_crc = writer.crc();
    written_bytes = writer.bytes_written();
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.file_size(), written_bytes);
  ASSERT_TRUE(reader.ReadUint32().ok());
  ASSERT_TRUE(reader.ReadString().ok());
  ASSERT_TRUE(reader.ReadDouble().ok());
  EXPECT_EQ(reader.crc(), written_crc);
  EXPECT_EQ(reader.remaining(), 0u);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, SkipFeedsCrc) {
  const std::string path = TempPath("skip.bin");
  uint32_t written_crc = 0;
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    std::vector<float> values(200000, 1.5f);
    ASSERT_TRUE(writer.WriteFloatArray(values.data(), values.size()).ok());
    written_crc = writer.crc();
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  ASSERT_TRUE(reader.Skip(reader.remaining()).ok());
  EXPECT_EQ(reader.crc(), written_crc);
  EXPECT_FALSE(reader.Skip(1).ok());  // Past EOF.
  std::remove(path.c_str());
}

TEST(BinaryIoTest, HostileStringLengthIsRejectedWithoutAllocating) {
  const std::string path = TempPath("hostile_string.bin");
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    // A string length prefix claiming ~16 EiB with 4 bytes of payload.
    ASSERT_TRUE(writer.WriteUint64(0xFFFFFFFFFFFFFFF0ULL).ok());
    ASSERT_TRUE(writer.WriteUint32(0).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  Result<std::string> value = reader.ReadString();
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, HostileFloatArrayCountIsRejected) {
  const std::string path = TempPath("hostile_floats.bin");
  {
    BinaryWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.WriteUint64(1ULL << 60).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  std::vector<float> loaded(size_t(1) << 10);
  BinaryReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_FALSE(reader.ReadFloatArray(loaded.data(), loaded.size()).ok());
  std::remove(path.c_str());
}

TEST(FileIoTest, AtomicWriteStringToFileReplacesAtomically) {
  const std::string path = TempPath("atomic_string.txt");
  ASSERT_TRUE(AtomicWriteStringToFile(path, "first").ok());
  ASSERT_TRUE(AtomicWriteStringToFile(path, "second").ok());
  Result<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "second");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(FileIoTest, CreateDirectoriesIsRecursiveAndIdempotent) {
  const std::string base = TempPath("mkdirs");
  const std::string nested = base + "/a/b/c";
  ASSERT_TRUE(CreateDirectories(nested).ok());
  ASSERT_TRUE(CreateDirectories(nested).ok());
  ASSERT_TRUE(WriteStringToFile(nested + "/probe.txt", "x").ok());
  EXPECT_TRUE(FileExists(nested + "/probe.txt"));
  // A file in the way is an error, not a crash.
  EXPECT_FALSE(CreateDirectories(nested + "/probe.txt").ok());
  std::remove((nested + "/probe.txt").c_str());
}

}  // namespace
}  // namespace kge
