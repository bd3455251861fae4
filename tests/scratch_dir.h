// ScratchDir: a fresh directory under /tmp for a test's files, removed with
// everything in it when the object is destroyed: at the end of its scope,
// or at process exit for a static one. A test run leaves nothing behind.

#ifndef UNICLEAN_TESTS_SCRATCH_DIR_H_
#define UNICLEAN_TESTS_SCRATCH_DIR_H_

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace uniclean {
namespace testing {

class ScratchDir {
 public:
  /// Creates `/tmp/<prefix>.XXXXXX`.
  explicit ScratchDir(const std::string& prefix)
      : path_("/tmp/" + prefix + ".XXXXXX") {
    if (::mkdtemp(path_.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << path_;
    }
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace testing
}  // namespace uniclean

#endif  // UNICLEAN_TESTS_SCRATCH_DIR_H_
