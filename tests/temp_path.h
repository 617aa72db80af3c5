// Per-process scratch paths for tests.
//
// ::testing::TempDir() is one directory shared by every test process on the
// host, so fixed file names under it collide when two build trees run the
// same tests at once. temp_path() places files in a mkdtemp directory that
// belongs to this process and is removed when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "util/check.h"

namespace vela::testutil {

inline const std::string& temp_dir() {
  struct Dir {
    std::string path;
    pid_t owner = ::getpid();
    Dir() {
      std::string base = ::testing::TempDir();
      if (base.empty() || base.back() != '/') base += '/';
      std::string pattern = base + "vela_test_XXXXXX";
      VELA_CHECK_MSG(::mkdtemp(pattern.data()) != nullptr,
                     "mkdtemp failed under " << base);
      path = pattern;
    }
    Dir(const Dir&) = delete;
    Dir& operator=(const Dir&) = delete;
    ~Dir() {
      if (::getpid() != owner) return;  // a forked child must not clean up
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

inline std::string temp_path(const std::string& name) {
  return temp_dir() + "/" + name;
}

}  // namespace vela::testutil
