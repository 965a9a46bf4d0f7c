// Socket-level end-to-end tests for kge_serve's server: protocol
// round trips against a live listener, hostile-frame survival, real
// checkpoint hot-swap + quarantine while serving, and the serve-side
// failpoint crash/corruption matrix (KGE_FAILPOINTS builds): the server
// keeps answering from the last good snapshot on injected errors and
// dies without leaving torn state on injected crashes.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "eval/topk.h"
#include "models/checkpoint.h"
#include "models/model_factory.h"
#include "serve/micro_batcher.h"
#include "serve/serve_protocol.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "util/failpoint.h"
#include "util/io.h"
#include "test_temp_dir.h"

namespace kge {
namespace {

constexpr int32_t kEntities = 24;
constexpr int32_t kRelations = 2;
constexpr int32_t kBudget = 8;

Result<std::unique_ptr<KgeModel>> MakeFreshModel(uint64_t seed) {
  return MakeModelByName("distmult", kEntities, kRelations, kBudget, seed);
}

ModelFactory ServingFactory() {
  return [] { return MakeFreshModel(0); };
}

std::string TempDirFor(const std::string& name) {
  const std::string dir = TestTempPath(name);
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/LATEST").c_str());
  for (int i = 0; i <= 5; ++i) {
    const std::string base = dir + "/ckpt_" + std::to_string(i) + ".kge2";
    std::remove(base.c_str());
    std::remove((base + ".quarantine").c_str());
  }
  return dir;
}

void SaveCheckpointWithSeed(const std::string& path, uint64_t seed) {
  auto model = MakeFreshModel(seed);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(SaveModelCheckpoint(**model, path).ok());
}

// Everything a serving test needs, wired the way tools/kge_serve.cc
// wires it: registry <- watcher, registry -> batcher -> server.
struct ServeStack {
  SnapshotRegistry registry;
  std::unique_ptr<CheckpointWatcher> watcher;
  std::unique_ptr<MicroBatcher> batcher;
  std::unique_ptr<KgeServer> server;

  Status StartFromDir(const std::string& dir) {
    watcher = std::make_unique<CheckpointWatcher>(
        &registry, ServingFactory(),
        CheckpointWatcher::Options{dir, 10, {ScorePrecision::kDouble}});
    const Status loaded = watcher->LoadInitial();
    if (!loaded.ok()) return loaded;
    BatcherOptions options;
    options.default_deadline_ms = kServeMaxDeadlineMs;
    batcher = std::make_unique<MicroBatcher>(&registry, options);
    batcher->Start();
    server = std::make_unique<KgeServer>(batcher.get(), ServerOptions{});
    return server->Start();
  }

  ~ServeStack() {
    if (server != nullptr) server->Stop();
    if (batcher != nullptr) batcher->Stop();
  }
};

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(uint16_t(port));
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

bool SendRequest(int fd, const ServeRequest& request) {
  std::vector<uint8_t> frame(kRequestFrameBytes);
  if (EncodeServeRequest(request, frame) == 0) return false;
  return WriteAll(fd, frame.data(), frame.size());
}

// Reads one response frame; false on EOF/garbage.
bool ReadResponse(int fd, ServeResponseHeader* header,
                  std::vector<ScoredEntity>* results) {
  std::vector<uint8_t> buffer(MaxResponseFrameBytes(kServeMaxTopK));
  if (!ReadExact(fd, buffer.data(), kFrameHeaderBytes)) return false;
  uint32_t magic = 0;
  uint32_t body_len = 0;
  DecodeFrameHeader(
      std::span<const uint8_t>(buffer.data(), kFrameHeaderBytes), &magic,
      &body_len);
  if (magic != kServeResponseMagic ||
      body_len > buffer.size() - kFrameHeaderBytes) {
    return false;
  }
  if (!ReadExact(fd, buffer.data() + kFrameHeaderBytes, body_len)) {
    return false;
  }
  return DecodeServeResponseFrame(
             std::span<const uint8_t>(buffer.data(),
                                      kFrameHeaderBytes + body_len),
             header, results)
      .ok();
}

ServeRequest TailQuery(EntityId entity, RelationId relation, uint32_t k,
                       uint64_t request_id) {
  ServeRequest request;
  request.side = QuerySide::kTail;
  request.entity = entity;
  request.relation = relation;
  request.k = k;
  request.request_id = request_id;
  return request;
}

TEST(KgeServerTest, EndToEndMatchesOfflinePredictor) {
  const std::string dir = TempDirFor("server_e2e");
  SaveCheckpointWithSeed(dir + "/ckpt_1.kge2", 31);
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_1.kge2\n").ok());

  ServeStack stack;
  ASSERT_TRUE(stack.StartFromDir(dir).ok());
  const int fd = ConnectTo(stack.server->port());

  const auto snapshot = stack.registry.Acquire();
  TopKOptions options;
  options.k = 4;
  for (EntityId entity = 0; entity < 3; ++entity) {
    ASSERT_TRUE(SendRequest(fd, TailQuery(entity, 1, 4, uint64_t(entity))));
    ServeResponseHeader header;
    std::vector<ScoredEntity> results;
    ASSERT_TRUE(ReadResponse(fd, &header, &results));
    EXPECT_EQ(header.status, ServeStatusCode::kOk);
    EXPECT_EQ(header.request_id, uint64_t(entity));
    EXPECT_EQ(header.snapshot_version, 1u);
    const std::vector<ScoredEntity> expected =
        PredictTails(*snapshot->model, entity, 1, options);
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(results[i].entity, expected[i].entity);
      EXPECT_FLOAT_EQ(results[i].score, expected[i].score);
    }
  }
  ::close(fd);
}

TEST(KgeServerTest, HostileHeaderGetsInvalidAndServerSurvives) {
  const std::string dir = TempDirFor("server_hostile");
  SaveCheckpointWithSeed(dir + "/ckpt_1.kge2", 5);
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_1.kge2\n").ok());
  ServeStack stack;
  ASSERT_TRUE(stack.StartFromDir(dir).ok());

  // Bad magic and a hostile body length: the server must answer INVALID
  // from its fixed buffer (never allocating the claimed length) and
  // close the connection.
  {
    const int fd = ConnectTo(stack.server->port());
    uint8_t hostile[kFrameHeaderBytes];
    const uint32_t bad_magic = 0x41414141;
    const uint32_t huge_len = 0x7FFFFFFF;
    std::memcpy(hostile, &bad_magic, 4);
    std::memcpy(hostile + 4, &huge_len, 4);
    ASSERT_TRUE(WriteAll(fd, hostile, sizeof(hostile)));
    ServeResponseHeader header;
    std::vector<ScoredEntity> results;
    if (ReadResponse(fd, &header, &results)) {
      EXPECT_EQ(header.status, ServeStatusCode::kInvalid);
    }
    // Connection is closed afterwards.
    uint8_t byte = 0;
    EXPECT_FALSE(ReadExact(fd, &byte, 1));
    ::close(fd);
  }

  // Correct header, malformed body (reserved bits): INVALID, but the
  // frame boundary is intact so the connection keeps serving.
  {
    const int fd = ConnectTo(stack.server->port());
    std::vector<uint8_t> frame(kRequestFrameBytes);
    ASSERT_NE(EncodeServeRequest(TailQuery(1, 1, 3, 77), frame), 0u);
    frame[10] = 0xFF;  // reserved bytes must be zero
    ASSERT_TRUE(WriteAll(fd, frame.data(), frame.size()));
    ServeResponseHeader header;
    std::vector<ScoredEntity> results;
    ASSERT_TRUE(ReadResponse(fd, &header, &results));
    EXPECT_EQ(header.status, ServeStatusCode::kInvalid);
    EXPECT_EQ(header.request_id, 77u);

    ASSERT_TRUE(SendRequest(fd, TailQuery(1, 1, 3, 78)));
    results.clear();
    ASSERT_TRUE(ReadResponse(fd, &header, &results));
    EXPECT_EQ(header.status, ServeStatusCode::kOk);
    EXPECT_EQ(header.request_id, 78u);
    ::close(fd);
  }
  EXPECT_GE(stack.server->stats().protocol_errors, 2u);

  // Truncated frame then EOF: the connection thread just closes.
  {
    const int fd = ConnectTo(stack.server->port());
    const uint8_t partial[3] = {1, 2, 3};
    ASSERT_TRUE(WriteAll(fd, partial, sizeof(partial)));
    ::close(fd);
  }

  // The server still accepts and answers.
  const int fd = ConnectTo(stack.server->port());
  ASSERT_TRUE(SendRequest(fd, TailQuery(0, 0, 2, 9)));
  ServeResponseHeader header;
  std::vector<ScoredEntity> results;
  ASSERT_TRUE(ReadResponse(fd, &header, &results));
  EXPECT_EQ(header.status, ServeStatusCode::kOk);
  ::close(fd);
}

TEST(KgeServerTest, HotSwapAndQuarantineWhileServing) {
  const std::string dir = TempDirFor("server_swap");
  SaveCheckpointWithSeed(dir + "/ckpt_1.kge2", 1);
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_1.kge2\n").ok());
  ServeStack stack;
  ASSERT_TRUE(stack.StartFromDir(dir).ok());
  const int fd = ConnectTo(stack.server->port());

  ServeResponseHeader header;
  std::vector<ScoredEntity> results;
  ASSERT_TRUE(SendRequest(fd, TailQuery(2, 0, 3, 1)));
  ASSERT_TRUE(ReadResponse(fd, &header, &results));
  EXPECT_EQ(header.snapshot_version, 1u);

  // Publish a new checkpoint; one poll step swaps the live server.
  SaveCheckpointWithSeed(dir + "/ckpt_2.kge2", 2);
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_2.kge2\n").ok());
  stack.watcher->PollOnce();

  auto reference = MakeFreshModel(0);
  ASSERT_TRUE(
      LoadModelCheckpoint(reference->get(), dir + "/ckpt_2.kge2").ok());
  TopKOptions options;
  options.k = 3;
  const std::vector<ScoredEntity> expected =
      PredictTails(**reference, 2, 0, options);

  results.clear();
  ASSERT_TRUE(SendRequest(fd, TailQuery(2, 0, 3, 2)));
  ASSERT_TRUE(ReadResponse(fd, &header, &results));
  EXPECT_EQ(header.status, ServeStatusCode::kOk);
  EXPECT_EQ(header.snapshot_version, 2u);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(results[i].entity, expected[i].entity);
    EXPECT_FLOAT_EQ(results[i].score, expected[i].score);
  }

  // A corrupt "newer" checkpoint is quarantined and never served.
  SaveCheckpointWithSeed(dir + "/ckpt_3.kge2", 3);
  {
    Result<std::string> bytes = ReadFileToString(dir + "/ckpt_3.kge2");
    ASSERT_TRUE(bytes.ok());
    std::string mutated = *bytes;
    mutated[mutated.size() / 3] = char(mutated[mutated.size() / 3] ^ 0x10);
    ASSERT_TRUE(WriteStringToFile(dir + "/ckpt_3.kge2", mutated).ok());
  }
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_3.kge2\n").ok());
  stack.watcher->PollOnce();
  EXPECT_TRUE(FileExists(dir + "/ckpt_3.kge2.quarantine"));

  results.clear();
  ASSERT_TRUE(SendRequest(fd, TailQuery(2, 0, 3, 3)));
  ASSERT_TRUE(ReadResponse(fd, &header, &results));
  EXPECT_EQ(header.status, ServeStatusCode::kOk);
  EXPECT_EQ(header.snapshot_version, 2u);  // still the last good one
  ::close(fd);
}

TEST(KgeServerTest, StopWithIdleConnectionDoesNotWedge) {
  const std::string dir = TempDirFor("server_stop");
  SaveCheckpointWithSeed(dir + "/ckpt_1.kge2", 5);
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_1.kge2\n").ok());
  auto stack = std::make_unique<ServeStack>();
  ASSERT_TRUE(stack->StartFromDir(dir).ok());
  // Open a connection and leave it idle; destruction must join every
  // thread without hanging (the test would time out otherwise).
  const int fd = ConnectTo(stack->server->port());
  stack.reset();
  ::close(fd);
}

// ---------------------------------------------------------------------
// Serve-side failpoint matrix (KGE_FAILPOINTS builds only).

class ServeFailpointTest : public testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::Enabled()) {
      GTEST_SKIP() << "build does not define KGE_FAILPOINTS";
    }
    failpoint::ClearAll();
  }
  void TearDown() override { failpoint::ClearAll(); }
};

// Injected errors at every load/swap site leave the last good snapshot
// serving; the poll path additionally quarantines the rejected target.
TEST_F(ServeFailpointTest, LoadAndSwapErrorsKeepLastGoodSnapshot) {
  const std::string dir = TempDirFor("fp_errors");
  SaveCheckpointWithSeed(dir + "/ckpt_1.kge2", 1);
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_1.kge2\n").ok());

  SnapshotRegistry registry;
  CheckpointWatcher watcher(
      &registry, ServingFactory(),
      CheckpointWatcher::Options{dir, 10, {ScorePrecision::kDouble}});
  ASSERT_TRUE(watcher.LoadInitial().ok());
  ASSERT_EQ(registry.current_version(), 1u);

  for (const char* site :
       {"serve.load.map", "serve.load.verify", "serve.swap.publish"}) {
    SCOPED_TRACE(site);
    SaveCheckpointWithSeed(dir + "/ckpt_2.kge2", 2);
    ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_2.kge2\n").ok());
    ASSERT_TRUE(failpoint::Set(site, "error@1").ok());
    watcher.PollOnce();
    // Swap failed: still on the original snapshot, and the target was
    // taken out of rotation.
    EXPECT_EQ(registry.current_version(), 1u);
    EXPECT_TRUE(FileExists(dir + "/ckpt_2.kge2.quarantine"));
    std::remove((dir + "/ckpt_2.kge2.quarantine").c_str());
    failpoint::ClearAll();
  }

  // With no failpoint armed the same flow swaps fine.
  SaveCheckpointWithSeed(dir + "/ckpt_2.kge2", 2);
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_2.kge2\n").ok());
  watcher.PollOnce();
  EXPECT_EQ(registry.current_version(), 2u);
}

// A response-write error drops that connection but the server keeps
// accepting and answering.
TEST_F(ServeFailpointTest, RespondWriteErrorDropsOnlyThatConnection) {
  const std::string dir = TempDirFor("fp_respond");
  SaveCheckpointWithSeed(dir + "/ckpt_1.kge2", 1);
  ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_1.kge2\n").ok());
  ServeStack stack;
  ASSERT_TRUE(stack.StartFromDir(dir).ok());

  ASSERT_TRUE(failpoint::Set("serve.respond.write", "error@1").ok());
  {
    const int fd = ConnectTo(stack.server->port());
    ASSERT_TRUE(SendRequest(fd, TailQuery(0, 0, 2, 1)));
    ServeResponseHeader header;
    std::vector<ScoredEntity> results;
    EXPECT_FALSE(ReadResponse(fd, &header, &results));  // dropped
    ::close(fd);
  }
  failpoint::ClearAll();
  const int fd = ConnectTo(stack.server->port());
  ASSERT_TRUE(SendRequest(fd, TailQuery(0, 0, 2, 2)));
  ServeResponseHeader header;
  std::vector<ScoredEntity> results;
  ASSERT_TRUE(ReadResponse(fd, &header, &results));
  EXPECT_EQ(header.status, ServeStatusCode::kOk);
  ::close(fd);
}

// Crash matrix: dying at any serve site must not corrupt the
// checkpoint directory — a restarted server resumes from the last
// CRC-valid checkpoint and answers queries.
TEST_F(ServeFailpointTest, CrashAtEverySiteLeavesRestartableState) {
  for (const std::string& site : failpoint::KnownSites()) {
    if (site.rfind("serve.", 0) != 0) continue;
    SCOPED_TRACE("site " + site);
    const std::string dir = TempDirFor("fp_crash_" + site);
    SaveCheckpointWithSeed(dir + "/ckpt_1.kge2", 1);
    ASSERT_TRUE(WriteStringToFile(dir + "/LATEST", "ckpt_1.kge2\n").ok());

    auto run_child = [&]() {
      ASSERT_TRUE(failpoint::Set(site, "crash@1").ok());
      ServeStack stack;
      const Status started = stack.StartFromDir(dir);
      // Load/swap crash sites die inside StartFromDir; the respond
      // site needs a query through the socket.
      if (started.ok()) {
        const int fd = ConnectTo(stack.server->port());
        SendRequest(fd, TailQuery(0, 0, 2, 1));
        ServeResponseHeader header;
        std::vector<ScoredEntity> results;
        ReadResponse(fd, &header, &results);
        ::close(fd);
      }
    };
    EXPECT_EXIT(run_child(),
                testing::ExitedWithCode(failpoint::kFailpointExitCode),
                "failpoint");

    // Restart after the crash: the directory still serves.
    ServeStack restarted;
    ASSERT_TRUE(restarted.StartFromDir(dir).ok());
    const int fd = ConnectTo(restarted.server->port());
    ASSERT_TRUE(SendRequest(fd, TailQuery(0, 0, 2, 1)));
    ServeResponseHeader header;
    std::vector<ScoredEntity> results;
    ASSERT_TRUE(ReadResponse(fd, &header, &results));
    EXPECT_EQ(header.status, ServeStatusCode::kOk);
    ::close(fd);
  }
}

}  // namespace
}  // namespace kge
