// Committed-golden helpers for the byte-contract tests (DESIGN.md §9).
//
// Goldens live in tests/golden/; the directory reaches the tests as the
// PDPA_GOLDEN_DIR compile definition. Small sinks are committed byte for
// byte. Recordings too large to commit are pinned by one DigestLine each
// (byte length plus 64-bit FNV-1a), collected into a small golden manifest.
//
// On a mismatch, MatchesGolden writes the actual bytes to `<name>.actual`
// in the test's working directory and names that path in the failure, so a
// deliberate format change is a reviewed
// `cp <name>.actual tests/golden/<name>`.
#ifndef TESTS_GOLDEN_H_
#define TESTS_GOLDEN_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "src/common/strings.h"
#include "src/workload/sweep.h"

namespace pdpa {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

// 64-bit FNV-1a over `bytes`, chainable through `hash`.
inline std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t hash = kFnvOffset) {
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  return hash;
}

// One manifest line pinning a recording: "<label> <byte length> <fnv1a>\n".
inline std::string DigestLine(std::string_view label, std::string_view bytes) {
  return StrFormat("%.*s %zu %016llx\n", static_cast<int>(label.size()), label.data(),
                   bytes.size(), static_cast<unsigned long long>(Fnv1a(bytes)));
}

// The sweep whose CSV is committed as kSweepCsvGolden: W1 x {0.6, 1.0} x
// {Equip, PDPA} x seeds {42, 43, 44}, replica rows plus aggregate rows.
inline SweepGrid SweepGoldenGrid() {
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1};
  grid.loads = {0.6, 1.0};
  grid.policies = {PolicyKind::kEquipartition, PolicyKind::kPdpa};
  grid.seeds = {42, 43, 44};
  return grid;
}
inline constexpr const char* kSweepCsvGolden = "sweep_w1.csv";

// Compares `actual` with the committed golden tests/golden/<name>. Use as
// EXPECT_TRUE(MatchesGolden(bytes, "name")).
inline ::testing::AssertionResult MatchesGolden(const std::string& actual,
                                                const std::string& name) {
  const std::string golden_path = std::string(PDPA_GOLDEN_DIR) + "/" + name;
  std::ifstream in(golden_path, std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  if (in && golden.str() == actual) {
    return ::testing::AssertionSuccess();
  }
  const std::string actual_path = std::filesystem::absolute(name + ".actual").string();
  std::ofstream(actual_path, std::ios::binary) << actual;
  return ::testing::AssertionFailure()
         << (in ? "differs from golden " : "cannot read golden ") << golden_path
         << "\nactual bytes written to " << actual_path << "\ninspect: diff " << golden_path
         << " " << actual_path << "\nif the change is deliberate: cp " << actual_path << " "
         << golden_path;
}

}  // namespace pdpa

#endif  // TESTS_GOLDEN_H_
