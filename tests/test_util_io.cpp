// Coverage for the small I/O utilities: CSV writer and the logger.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "util/check.h"
#include "util/csv.h"
#include "util/logging.h"
#include "temp_path.h"

namespace vela {
namespace {

using testutil::temp_path;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = temp_path("out.csv");
  {
    CsvWriter csv(path, {"step", "value"});
    csv.row({std::string("0"), std::string("1.5")});
    csv.row({1.0, 2.25});
  }
  const std::string content = slurp(path);
  EXPECT_NE(content.find("step,value\n"), std::string::npos);
  EXPECT_NE(content.find("0,1.5\n"), std::string::npos);
  EXPECT_NE(content.find("1,2.25\n"), std::string::npos);
}

TEST(Csv, RejectsWrongWidth) {
  CsvWriter csv(temp_path("w.csv"), {"a", "b"});
  EXPECT_THROW(csv.row({std::string("only-one")}), CheckError);
  EXPECT_THROW(csv.row({1.0, 2.0, 3.0}), CheckError);
}

TEST(Csv, RejectsEmptyHeaderAndBadPath) {
  EXPECT_THROW(CsvWriter(temp_path("e.csv"), {}), CheckError);
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/f.csv", {"a"}), CheckError);
}

TEST(Csv, DoublePrecisionPreserved) {
  const std::string path = temp_path("p.csv");
  {
    CsvWriter csv(path, {"x"});
    csv.row(std::vector<double>{0.123456789012});
  }
  EXPECT_NE(slurp(path).find("0.123456789012"), std::string::npos);
}

TEST(Logging, LevelGating) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages are dropped (no crash, no output assertions —
  // the sink writes to stderr; this exercises the gate path).
  VELA_LOG_DEBUG("test") << "dropped";
  VELA_LOG_INFO("test") << "dropped";
  set_log_level(original);
  EXPECT_EQ(log_level(), original);
}

TEST(Logging, StreamingOperators) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kError);  // silence during the test run
  VELA_LOG_INFO("tag") << "value=" << 42 << " pi=" << 3.14;
  set_log_level(original);
  SUCCEED();
}

TEST(Check, MacrosThrowWithContext) {
  try {
    VELA_CHECK_MSG(1 == 2, "context " << 99);
    FAIL() << "should have thrown";
  } catch (const CheckError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 99"), std::string::npos);
  }
  EXPECT_NO_THROW(VELA_CHECK(2 == 2));
}

}  // namespace
}  // namespace vela
