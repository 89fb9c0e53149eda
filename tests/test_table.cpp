#include "util/table.hpp"

#include <sstream>
#include <string>

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

TEST(Cli, RequireKnownRejectsUnreadFlags) {
  const char* argv[] = {"prog", "--thread=4", "--seed=3", "positional"};
  Cli cli(4, const_cast<char**>(argv));
  try {
    cli.require_known({"threads", "seed"});
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--thread"), std::string::npos) << e.what();
  }
  EXPECT_NO_THROW(cli.require_known({"thread", "seed"}));
  Cli bare(1, const_cast<char**>(argv));
  EXPECT_NO_THROW(bare.require_known({}));
}

TEST(Cli, RejectsMalformedNumbersNamingTheFlag) {
  const char* argv[] = {"prog",     "--reps=2x", "--alpha=0.2.5", "--side=abc",
                        "--empty=", "--big=99999999999999999999",    "--tiny=1e-400",
                        "--huge=1e400"};
  Cli cli(8, const_cast<char**>(argv));
  const auto expect_rejected = [](const auto& read, const std::string& flag) {
    try {
      read();
      FAIL() << "expected PreconditionError for --" << flag;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos) << e.what();
    }
  };
  expect_rejected([&] { return cli.get_int("reps", 1); }, "reps");
  expect_rejected([&] { return cli.get_double("alpha", 0.0); }, "alpha");
  expect_rejected([&] { return cli.get_int("side", 24); }, "side");
  expect_rejected([&] { return cli.get_double("side", 24.0); }, "side");
  expect_rejected([&] { return cli.get_int("empty", 0); }, "empty");
  expect_rejected([&] { return cli.get_int("big", 0); }, "big");
  expect_rejected([&] { return cli.get_double("tiny", 0.0); }, "tiny");
  expect_rejected([&] { return cli.get_double("huge", 0.0); }, "huge");
}

TEST(Cli, BareFlagsAndSignedValuesStillParse) {
  const char* argv[] = {"prog", "--threads", "--offset=-3", "--eps=-0.5", "--rate=1e-3"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("threads", 0), 1);
  EXPECT_DOUBLE_EQ(cli.get_double("threads", 0.0), 1.0);
  EXPECT_EQ(cli.get_int("offset", 0), -3);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), -0.5);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 1e-3);
  EXPECT_EQ(cli.get_int("absent", 7), 7);
}

TEST(Timer, MeasuresNonNegativeTime) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.millis(), 0.0);
}

}  // namespace
}  // namespace fne
