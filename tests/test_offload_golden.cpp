// Golden-file regression test for the thrash-vs-replicate offload CSV
// (`ctest -L offload`, DESIGN.md §15).
//
// bench_micro and this test share the emitter in bench/offload_csv.h, so a
// schema, row-order or formatting drift in the sweep CSV fails here on a
// seconds-long replay. The golden file is checked in; regenerate
// deliberately with VELA_REGEN_GOLDEN=1 after an intentional change and
// review the diff. The schema test also pins the paper-facing claim the
// sweep exists to record: locality-priority admission beats LRU's hit rate
// on the Zipf corpus.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "offload_csv.h"
#include "temp_path.h"

namespace vela {
namespace {

// Compile-time path to tests/golden/ (set in tests/CMakeLists.txt).
#ifndef VELA_GOLDEN_DIR
#error "VELA_GOLDEN_DIR must be defined by the build"
#endif

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream ss(line);
  while (std::getline(ss, cell, sep)) cells.push_back(cell);
  return cells;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream ss(text);
  while (std::getline(ss, line)) lines.push_back(line);
  return lines;
}

std::string join(const std::vector<std::string>& cells, char sep) {
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out.push_back(sep);
    out += cells[i];
  }
  return out;
}

std::string emit_offload_csv(const std::string& path) {
  {
    CsvWriter csv(path, bench::offload_columns());
    bench::emit_offload_sweep("tiny-offload", csv, testutil::temp_dir());
  }  // writer flushes on destruction
  return slurp(path);
}

void maybe_regenerate(const std::string& golden_path,
                      const std::string& produced) {
  if (std::getenv("VELA_REGEN_GOLDEN") == nullptr) return;
  std::ofstream out(golden_path, std::ios::binary);
  out << produced;
}

TEST(OffloadGolden, CsvMatchesGoldenByteForByte) {
  const std::string produced = emit_offload_csv("golden_offload_out.csv");
  const std::string golden_path =
      std::string(VELA_GOLDEN_DIR) + "/offload_tiny.csv";
  maybe_regenerate(golden_path, produced);
  EXPECT_EQ(produced, slurp(golden_path))
      << "offload CSV drifted from tests/golden/offload_tiny.csv; if "
         "intentional, regenerate with VELA_REGEN_GOLDEN=1 and review the "
         "diff";
}

TEST(OffloadGolden, SchemaAndInvariants) {
  const auto rows = lines_of(emit_offload_csv("golden_offload_schema.csv"));
  const std::size_t cells_per_row = bench::offload_columns().size();
  // policy-major, budget-minor: 3 policies x 5 budgets.
  ASSERT_EQ(rows.size(), 1u + 3u * 5u);
  EXPECT_EQ(rows[0], join(bench::offload_columns(), ','));

  // (policy, budget) -> (hit_rate, thrash_mb, replicate_once_mb)
  std::map<std::string, std::map<long long, std::vector<double>>> table;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto cells = split(rows[i], ',');
    ASSERT_EQ(cells.size(), cells_per_row) << rows[i];
    EXPECT_EQ(cells[0], "tiny-offload");
    const double hit_rate = std::stod(cells[3]);
    const double page_out_mb = std::stod(cells[4]);
    const double page_in_mb = std::stod(cells[5]);
    const double thrash_mb = std::stod(cells[6]);
    const double replicate_mb = std::stod(cells[7]);
    EXPECT_GE(hit_rate, 0.0) << rows[i];
    EXPECT_LE(hit_rate, 1.0) << rows[i];
    // Nothing can be paged in that was never paged out.
    EXPECT_LE(page_in_mb, page_out_mb) << rows[i];
    EXPECT_NEAR(thrash_mb, page_out_mb + page_in_mb, 1e-5) << rows[i];
    table[cells[1]][std::stoll(cells[2])] = {hit_rate, thrash_mb,
                                             replicate_mb};
  }
  for (const auto& [policy, by_budget] : table) {
    ASSERT_EQ(by_budget.size(), 5u) << policy;
    // More resident slots can only help: hit rate weakly rises with budget,
    // the one-time replication alternative weakly shrinks.
    double prev_hit = -1.0, prev_replicate = 1e18;
    for (const auto& [budget, vals] : by_budget) {
      EXPECT_GE(vals[0], prev_hit) << policy << " budget " << budget;
      EXPECT_LE(vals[2], prev_replicate) << policy << " budget " << budget;
      prev_hit = vals[0];
      prev_replicate = vals[2];
    }
  }
  // The acceptance claim: locality-priority admission (fed the trace's true
  // frequencies) beats plain LRU's hit rate on the Zipf corpus wherever the
  // pool is actually contended.
  double locality_sum = 0.0, lru_sum = 0.0;
  for (const auto& [budget, vals] : table["locality"]) {
    locality_sum += vals[0];
    lru_sum += table["lru"][budget][0];
    EXPECT_GE(vals[0], table["lru"][budget][0]) << "budget " << budget;
  }
  EXPECT_GT(locality_sum, lru_sum);
}

TEST(OffloadGolden, EmitterIsDeterministicAcrossRuns) {
  const std::string a = emit_offload_csv("golden_offload_det_a.csv");
  const std::string b = emit_offload_csv("golden_offload_det_b.csv");
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace vela
