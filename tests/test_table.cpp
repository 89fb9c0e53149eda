#include "util/table.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "util/cli.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace fne {
namespace {

TEST(Table, BuildsAndPrints) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5);
  t.row().cell("beta").cell(std::size_t{42});
  EXPECT_EQ(t.num_rows(), 2U);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("| name"), std::string::npos);
}

TEST(Table, DoubleCellsAtOrAbovePowerOfTenPrecisionPrintWithoutExponent) {
  Table t({"v"});
  // >= 10^precision: whole numbers, never an exponent.
  t.row().cell(130.4, 1);
  t.row().cell(10.0, 1);
  t.row().cell(-61.7, 1);
  t.row().cell(1000.4, 3);
  t.row().cell(12345.6, 4);
  // Below 10^precision: significant digits, exactly as before.
  t.row().cell(9.4, 1);
  t.row().cell(9.96, 1);
  t.row().cell(999.4, 3);
  t.row().cell(0.0625, 4);
  t.row().cell(1.5);
  const std::vector<std::string> expected{"130", "10",  "-62",    "1000", "12346",
                                          "9",   "1e+01", "999", "0.0625", "1.5"};
  ASSERT_EQ(t.num_rows(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(t.rows()[i][0], expected[i]) << "row " << i;
  }
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a", "b"});
  t.row().cell("x,y").cell("quote\"inside");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, RejectsTooManyCells) {
  Table t({"only"});
  t.row().cell("one");
  EXPECT_THROW(t.cell("two"), PreconditionError);
}

TEST(Table, RejectsCellBeforeRow) {
  Table t({"h"});
  EXPECT_THROW(t.cell("x"), PreconditionError);
}

TEST(FormatPm, ContainsBothParts) {
  const std::string s = format_pm(1.2345, 0.01);
  EXPECT_NE(s.find("1.234"), std::string::npos);
  EXPECT_NE(s.find("±"), std::string::npos);
}

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=128", "--p=0.25", "--verbose", "positional"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0.0), 0.25);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("positional"));
  EXPECT_EQ(cli.get("missing", "fallback"), "fallback");
}

TEST(Cli, SeedHelper) {
  const char* argv[] = {"prog", "--seed=99"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_seed(42), 99U);
  Cli empty(1, const_cast<char**>(argv));
  EXPECT_EQ(empty.get_seed(42), 42U);
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.millis(), 0.0);
}

}  // namespace
}  // namespace fne
