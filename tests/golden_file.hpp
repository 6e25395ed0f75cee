// Byte-exact comparison against checked-in files under tests/golden/.
//
// check_golden() compares `actual` with the golden file byte for byte, or
// rewrites the file when HEMO_UPDATE_GOLDEN is set (returning true then,
// so the caller can skip). Any drift means either an intentional change
// (rerun with HEMO_UPDATE_GOLDEN=1 and review the diff) or a broken
// determinism guarantee.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef HEMO_GOLDEN_DIR
#error "HEMO_GOLDEN_DIR must point at tests/golden"
#endif

namespace hemo::golden {

inline std::string golden_path(const std::string& name) {
  return std::string(HEMO_GOLDEN_DIR) + "/" + name;
}

inline bool check_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("HEMO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return true;
  }
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path
                         << " (regenerate with HEMO_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << name << " drifted from the golden file; if the change is "
      << "intentional rerun with HEMO_UPDATE_GOLDEN=1 and review the diff";
  return false;
}

}  // namespace hemo::golden
