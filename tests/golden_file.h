// Golden-file comparison shared by the suites that pin outputs in
// tests/data/. Regenerate after an intentional behaviour change with
//   RL4OASD_UPDATE_GOLDEN=1 ./build/tests/<suite>
// and commit the tests/data/ diff (see tests/README.md).
#pragma once

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace rl4oasd::testing {

/// Compares `rendered` with the golden file at `path` line by line, so a
/// failure names the first diverging line instead of dumping both files.
/// With RL4OASD_UPDATE_GOLDEN set it rewrites the file instead and skips.
inline void ExpectMatchesGoldenFile(const char* path,
                                    const std::string& rendered) {
  if (std::getenv("RL4OASD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "golden file regenerated at " << path
                 << " — review and commit the diff";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — rerun the suite with RL4OASD_UPDATE_GOLDEN=1";
  std::stringstream golden;
  golden << in.rdbuf();

  std::istringstream got(rendered);
  std::istringstream want(golden.str());
  std::string got_line;
  std::string want_line;
  size_t line_no = 0;
  while (std::getline(want, want_line)) {
    ++line_no;
    ASSERT_TRUE(std::getline(got, got_line))
        << "output ends early at golden line " << line_no << ": "
        << want_line;
    EXPECT_EQ(got_line, want_line) << "first divergence at line " << line_no;
    if (got_line != want_line) break;  // one precise diff beats hundreds
  }
  if (got_line == want_line) {
    EXPECT_FALSE(std::getline(got, got_line))
        << "output has extra lines past the golden file: " << got_line;
  }
}

}  // namespace rl4oasd::testing
