// Per-test scratch directories for tests that touch the file system.
//
// gtest_discover_tests registers every TEST as its own ctest entry, so
// `ctest -j` runs the TESTs of one binary as concurrent processes. Fixed
// file names directly under the shared testing::TempDir() then race
// between those processes (one test truncates the file another is
// reading). TestTempDir() gives the running test a directory of its own,
// named from the test name plus the process id, and a listener removes
// it, with everything in it, when the test ends.
//
// The pid is read once at program start-up, so a forked death-test
// child resolves the same directory as its parent.
#ifndef KGE_TESTS_TEST_TEMP_DIR_H_
#define KGE_TESTS_TEST_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace kge {
namespace test_temp_dir_internal {

inline const pid_t kProcessId = ::getpid();

// <TempDir>/<Suite>.<Test>.<pid>; '/' in parameterized names becomes '_'.
inline std::string DirFor(const ::testing::TestInfo* info) {
  std::string name = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : std::string("no_test");
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  return ::testing::TempDir() + "/" + name + "." + std::to_string(kProcessId);
}

class Cleaner : public ::testing::EmptyTestEventListener {
  void OnTestEnd(const ::testing::TestInfo& info) override {
    std::error_code ignored;
    std::filesystem::remove_all(DirFor(&info), ignored);
  }
};

inline const bool kCleanerRegistered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new Cleaner);
  return true;
}();

}  // namespace test_temp_dir_internal

// The running test's private scratch directory, created on first use.
inline std::string TestTempDir() {
  const std::string dir = test_temp_dir_internal::DirFor(
      ::testing::UnitTest::GetInstance()->current_test_info());
  std::error_code ignored;
  std::filesystem::create_directories(dir, ignored);
  return dir;
}

// `name` inside TestTempDir().
inline std::string TestTempPath(const std::string& name) {
  return TestTempDir() + "/" + name;
}

}  // namespace kge

#endif  // KGE_TESTS_TEST_TEMP_DIR_H_
