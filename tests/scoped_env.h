// Scoped environment override for tests: sets (or, for a null value,
// unsets) one variable and restores its previous state on scope exit, so a
// test behaves the same whether or not the caller's environment set it.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace vela::testutil {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

}  // namespace vela::testutil
