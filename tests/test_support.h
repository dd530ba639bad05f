// Helpers shared by the test suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "common/error.h"

namespace anton::test_support {

// FNV-1a over 64-bit words, for tests that pin outputs bit for bit;
// doubles enter as their raw IEEE bits.
class Digest {
 public:
  void add(uint64_t u) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (u >> (8 * b)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void add_bits(double v) {
    uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    add(u);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

// `fn` must raise anton::Error whose message contains `needle`.
template <class Fn>
void expect_error(Fn&& fn, const std::string& needle, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << what << ": no anton::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << what << ": " << e.what();
  }
}

}  // namespace anton::test_support
