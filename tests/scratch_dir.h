#ifndef DLINF_TESTS_SCRATCH_DIR_H_
#define DLINF_TESTS_SCRATCH_DIR_H_

#include <unistd.h>

#include <filesystem>
#include <string>

#include "gtest/gtest.h"

namespace dlinf {

/// A fresh directory `<gtest TempDir>/<name>.<pid>` that is removed, with
/// everything in it, when the object goes out of scope. ctest runs every
/// case as its own process, so the pid keeps concurrent cases apart; a
/// function-local static one lives until the process exits normally. A
/// forked child (a death test) leaves its parent's directory alone.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& name)
      : path_(::testing::TempDir() + "/" + name + "." +
              std::to_string(::getpid())),
        owner_(::getpid()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    if (::getpid() != owner_) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }
  /// `path()/child` (not created).
  std::string Child(const std::string& child) const {
    return path_ + "/" + child;
  }

 private:
  std::string path_;
  pid_t owner_;
};

}  // namespace dlinf

#endif  // DLINF_TESTS_SCRATCH_DIR_H_
