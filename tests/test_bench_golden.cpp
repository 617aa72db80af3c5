// Golden-file regression test for the Fig. 5 / Fig. 6 bench CSV schemas
// (`ctest -L overlap`).
//
// The bench binaries and this test share the emitters in bench/fig_csv.h, so
// a schema, series-order or formatting drift in the figure CSVs fails here
// on a seconds-long configuration instead of being discovered after a
// 500-step paper-scale run. The golden files are checked in; regenerate
// deliberately with VELA_REGEN_GOLDEN=1 after an intentional change and
// review the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fig_csv.h"
#include "util/thread_pool.h"

namespace vela {
namespace {

// Compile-time path to tests/golden/ (set in tests/CMakeLists.txt).
#ifndef VELA_GOLDEN_DIR
#error "VELA_GOLDEN_DIR must be defined by the build"
#endif

constexpr std::size_t kGoldenSteps = 5;
constexpr std::size_t kGoldenTokens = 64;

// A seconds-scale setting: the tiny model preset with a matching tiny corpus.
bench::Setting golden_setting() {
  bench::Setting s;
  s.name = "tiny-golden";
  s.model = model::ModelConfig::tiny_test();
  s.codec = comm::WireCodec{comm::WireDtype::kFp32};
  s.corpus = data::CorpusConfig::wikitext_like(s.model.vocab, 6);
  s.num_domains = 6;
  s.seed = 7;
  return s;
}

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

// Emits the golden setting through the shared emitters into `dir`/<name>.
std::string emit_fig5_csv(const std::string& path) {
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  {
    CsvWriter csv(path, bench::fig5_columns());
    bench::emit_fig5_setting(golden_setting(), topology, csv, kGoldenSteps,
                             kGoldenTokens);
  }  // writer flushes on destruction
  return slurp(path);
}

std::string emit_fig6_csv(const std::string& path) {
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  {
    CsvWriter csv(path, bench::fig6_columns());
    bench::emit_fig6_setting(golden_setting(), topology, csv, kGoldenSteps,
                             kGoldenTokens, /*compute_seconds=*/0.5,
                             /*overlap_chunks=*/8);
  }
  return slurp(path);
}

void maybe_regenerate(const std::string& golden_path,
                      const std::string& produced) {
  if (std::getenv("VELA_REGEN_GOLDEN") == nullptr) return;
  std::ofstream out(golden_path, std::ios::binary);
  out << produced;
}

TEST(BenchGolden, Fig5CsvMatchesGoldenByteForByte) {
  const std::string produced = emit_fig5_csv("golden_fig5_out.csv");
  const std::string golden_path = std::string(VELA_GOLDEN_DIR) + "/fig5_tiny.csv";
  maybe_regenerate(golden_path, produced);
  EXPECT_EQ(produced, slurp(golden_path))
      << "fig5 CSV drifted from tests/golden/fig5_tiny.csv; if intentional, "
         "regenerate with VELA_REGEN_GOLDEN=1 and review the diff";
}

TEST(BenchGolden, Fig6CsvMatchesGoldenByteForByte) {
  const std::string produced = emit_fig6_csv("golden_fig6_out.csv");
  const std::string golden_path = std::string(VELA_GOLDEN_DIR) + "/fig6_tiny.csv";
  maybe_regenerate(golden_path, produced);
  EXPECT_EQ(produced, slurp(golden_path))
      << "fig6 CSV drifted from tests/golden/fig6_tiny.csv; if intentional, "
         "regenerate with VELA_REGEN_GOLDEN=1 and review the diff";
}

TEST(BenchGolden, Fig5SchemaAndInvariants) {
  const auto rows = lines_of(emit_fig5_csv("golden_fig5_schema.csv"));
  ASSERT_EQ(rows.size(), 1 + kGoldenSteps);  // header + one row per step
  EXPECT_EQ(rows[0], join(bench::fig5_columns(), ','));
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto cells = split(rows[i], ',');
    ASSERT_EQ(cells.size(), bench::fig5_columns().size()) << rows[i];
    EXPECT_EQ(cells[0], "tiny-golden");
    // Monotonic step index, starting at 0.
    EXPECT_EQ(cells[1], std::to_string(i - 1));
    const double seq_mb = std::stod(cells[2]);
    const double rnd_mb = std::stod(cells[3]);
    const double vela_mb = std::stod(cells[4]);
    const double ep_mb = std::stod(cells[5]);
    const double f16_mb = std::stod(cells[6]);
    const double q8_mb = std::stod(cells[7]);
    for (const double v : {seq_mb, rnd_mb, vela_mb, ep_mb, f16_mb, q8_mb}) {
      EXPECT_GE(v, 0.0) << rows[i];
    }
    // The paper's core claim, enforced per step: the locality-aware
    // placement never moves more bytes than the sequential layout.
    EXPECT_LE(vela_mb, seq_mb) << rows[i];
    // Wire-tier claims (DESIGN.md §13). The golden setting's codec is
    // fp32, so vela_mb is fp32-accounted: the int8 tier must cut
    // the vela placement's external bytes at least 2x per step, and the
    // fp16 tier sits strictly between.
    EXPECT_LE(2.0 * q8_mb, vela_mb) << rows[i];
    EXPECT_LT(q8_mb, f16_mb) << rows[i];
    EXPECT_LT(f16_mb, vela_mb) << rows[i];
  }
}

TEST(BenchGolden, Fig5F16TierMatchesNativeF16Accounting) {
  // Sanity pin for the tier math: on a setting whose codec already charges
  // a 16-bit wire (row_bytes(H) == H * 2), the vela_f16_mb column must be
  // byte-identical to vela_mb — same placement, same plans, same bytes.
  bench::Setting s = golden_setting();
  s.codec = comm::WireCodec{comm::WireDtype::kFp16Accounted};
  cluster::ClusterTopology topology(cluster::ClusterConfig::paper_testbed());
  {
    CsvWriter csv("golden_fig5_f16.csv", bench::fig5_columns());
    bench::emit_fig5_setting(s, topology, csv, kGoldenSteps, kGoldenTokens);
  }
  const auto rows = lines_of(slurp("golden_fig5_f16.csv"));
  ASSERT_EQ(rows.size(), 1 + kGoldenSteps);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto cells = split(rows[i], ',');
    ASSERT_EQ(cells.size(), bench::fig5_columns().size()) << rows[i];
    EXPECT_EQ(cells[6], cells[4]) << rows[i];  // vela_f16_mb == vela_mb
  }
}

TEST(BenchGolden, Fig6SchemaAndInvariants) {
  const auto rows = lines_of(emit_fig6_csv("golden_fig6_schema.csv"));
  ASSERT_EQ(rows.size(), 2u);  // header + one summary row per setting
  EXPECT_EQ(rows[0], join(bench::fig6_columns(), ','));
  const auto cells = split(rows[1], ',');
  ASSERT_EQ(cells.size(), bench::fig6_columns().size());
  EXPECT_EQ(cells[0], "tiny-golden");
  const double ep_s = std::stod(cells[1]);
  const double seq_s = std::stod(cells[2]);
  const double vela_s = std::stod(cells[4]);
  const double overlap_s = std::stod(cells[5]);
  const double f16_s = std::stod(cells[6]);
  const double q8_s = std::stod(cells[7]);
  // Every step time includes the compute floor.
  for (std::size_t i = 1; i < cells.size(); ++i) {
    EXPECT_GE(std::stod(cells[i]), 0.5) << rows[1];
  }
  EXPECT_LE(vela_s, seq_s);
  EXPECT_LE(vela_s, ep_s);
  // The overlap series models the SAME bytes, so it can only be faster.
  EXPECT_LE(overlap_s, vela_s);
  // Fewer wire bytes can only shrink the modeled step: int8 < fp16 < fp32.
  EXPECT_LE(q8_s, f16_s);
  EXPECT_LE(f16_s, vela_s);
}

TEST(BenchGolden, EmittersAreDeterministicAcrossRunsAndThreadCounts) {
  // The golden contract presupposes determinism: identical bytes run-to-run
  // and independent of the compute pool size.
  const std::string a = emit_fig5_csv("golden_fig5_det_a.csv");
  const std::string b = emit_fig5_csv("golden_fig5_det_b.csv");
  EXPECT_EQ(a, b);
  util::ThreadPool::set_global_threads(8);
  const std::string threaded = emit_fig5_csv("golden_fig5_det_c.csv");
  util::ThreadPool::set_global_threads(0);
  EXPECT_EQ(a, threaded);
}

}  // namespace
}  // namespace vela
