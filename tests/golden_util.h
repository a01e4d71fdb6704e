// Shared golden-file check for the trace regression tests: a fresh run
// must reproduce the bytes stored under tests/golden/ exactly.
//
// When a change *intentionally* alters a golden, regenerate with
//   FLARE_REGEN_GOLDEN=1 ./build/tests/<suite>
// and commit the updated files after reviewing the diff.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef FLARE_GOLDEN_DIR
#error "FLARE_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace flare {

inline bool RegenRequested() {
  const char* env = std::getenv("FLARE_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && std::string(env) != "0";
}

inline std::string GoldenPath(const std::string& name) {
  return std::string(FLARE_GOLDEN_DIR) + "/" + name;
}

inline void CheckAgainstGolden(const std::string& name,
                               const std::string& fresh) {
  const std::string path = GoldenPath(name);
  if (RegenRequested()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << fresh;
    ASSERT_TRUE(out.good()) << "short write to " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << path << " missing — run with FLARE_REGEN_GOLDEN=1 to create it";
  std::ostringstream stored;
  stored << in.rdbuf();
  // One EXPECT_EQ over the whole file: gtest prints the first differing
  // line, which names the BAI where behaviour drifted.
  EXPECT_EQ(stored.str(), fresh)
      << "drift vs " << path
      << " (regenerate with FLARE_REGEN_GOLDEN=1 if intentional)";
}

}  // namespace flare
