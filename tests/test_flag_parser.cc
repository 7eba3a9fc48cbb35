/**
 * @file
 * Unit tests for the sn40l_run flag parser (tools/flag_parser.h):
 * unknown flags name their subcommand, missing values and duplicate
 * flags fail (an alias pair counts as one flag), --flag=value and
 * --flag value parse identically, --help short-circuits and is
 * rendered (word-wrapped) from the registration table, malformed or
 * out-of-range numbers name their flag, the whole-string number
 * parsers reject trailing garbage, and parseList rejects malformed
 * lists.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tools/flag_parser.h"

using namespace sn40l;
using tools::FlagParser;
using tools::FlagUsageError;
using tools::parseDouble;
using tools::parseInt;
using tools::parseInt64;
using tools::parseList;
using tools::parseUint64;
using tools::splitEqualsArgs;

namespace {

const char *const kAbout = "A fake subcommand for the parser tests.";

/** Expect a FlagUsageError whose message contains @p needle. */
template <typename Fn>
void
expectUsageError(Fn &&fn, const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected FlagUsageError containing '" << needle << "'";
    } catch (const FlagUsageError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message was: " << e.what();
        EXPECT_STREQ(e.subcommand().c_str(), "fake");
    }
}

} // namespace

TEST(FlagParser, ParsesValuesAndBareFlags)
{
    FlagParser p("fake", kAbout);
    int experts = 0;
    bool prefetch = false;
    p.value("--experts", "X", "help",
            [&](const std::string &v) { experts = std::stoi(v); });
    p.flag("--prefetch", "help", [&]() { prefetch = true; });

    std::ostringstream help;
    EXPECT_FALSE(p.parse({"--experts", "150", "--prefetch"}, help));
    EXPECT_EQ(experts, 150);
    EXPECT_TRUE(prefetch);
    EXPECT_TRUE(help.str().empty());
}

TEST(FlagParser, EqualsSpellingMatchesSpaceSpelling)
{
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"--experts=42"},
          std::vector<std::string>{"--experts", "42"}}) {
        FlagParser p("fake", kAbout);
        int experts = 0;
        p.value("--experts", "X", "help",
                [&](const std::string &v) { experts = std::stoi(v); });
        std::ostringstream help;
        EXPECT_FALSE(p.parse(args, help));
        EXPECT_EQ(experts, 42);
    }
}

TEST(FlagParser, SplitEqualsArgsOnlyTouchesDoubleDashFlags)
{
    const char *argv[] = {"sn40l_run", "fake", "--a=1", "plain=2", "-j",
                          "4"};
    std::vector<std::string> out =
        splitEqualsArgs(6, const_cast<char **>(argv), 2);
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[0], "--a");
    EXPECT_EQ(out[1], "1");
    EXPECT_EQ(out[2], "plain=2"); // no leading --, left alone
    EXPECT_EQ(out[3], "-j");
    EXPECT_EQ(out[4], "4");
}

TEST(FlagParser, UnknownFlagNamesTheSubcommand)
{
    FlagParser p("fake", kAbout);
    p.flag("--known", "help", []() {});
    std::ostringstream help;
    expectUsageError([&]() { p.parse({"--bogus"}, help); },
                     "unknown fake flag '--bogus'");
}

TEST(FlagParser, MissingValueFails)
{
    FlagParser p("fake", kAbout);
    p.value("--experts", "X", "help", [](const std::string &) {});
    std::ostringstream help;
    expectUsageError([&]() { p.parse({"--experts"}, help); },
                     "expects a value");
}

TEST(FlagParser, DuplicateFlagFails)
{
    FlagParser p("fake", kAbout);
    int experts = 0;
    p.value("--experts", "X", "help",
            [&](const std::string &v) { experts = std::stoi(v); });
    std::ostringstream help;
    expectUsageError(
        [&]() { p.parse({"--experts", "1", "--experts", "2"}, help); },
        "given more than once");

    // Bare flags are rejected on repeat too.
    FlagParser q("fake", kAbout);
    q.flag("--prefetch", "help", []() {});
    expectUsageError(
        [&]() { q.parse({"--prefetch", "--prefetch"}, help); },
        "given more than once");
}

TEST(FlagParser, ParseStateResetsBetweenRuns)
{
    // The seen-set must reset, or a reused parser would report a
    // duplicate across independent parses.
    FlagParser p("fake", kAbout);
    int experts = 0;
    p.value("--experts", "X", "help",
            [&](const std::string &v) { experts = std::stoi(v); });
    std::ostringstream help;
    EXPECT_FALSE(p.parse({"--experts", "1"}, help));
    EXPECT_FALSE(p.parse({"--experts", "2"}, help));
    EXPECT_EQ(experts, 2);
}

TEST(FlagParser, HelpShortCircuitsAndPrints)
{
    FlagParser p("fake", kAbout);
    bool touched = false;
    p.flag("--touch", "help", [&]() { touched = true; });
    std::ostringstream help;
    EXPECT_TRUE(p.parse({"--help", "--touch"}, help));
    EXPECT_FALSE(touched); // nothing after --help is applied
    EXPECT_NE(help.str().find("usage: sn40l_run fake"),
              std::string::npos);

    std::ostringstream help2;
    EXPECT_TRUE(p.parse({"-h"}, help2));
    EXPECT_FALSE(help2.str().empty());
}

TEST(FlagParser, RegisteringTheSameFlagTwiceIsAProgrammerError)
{
    FlagParser p("fake", kAbout);
    p.flag("--x", "help", []() {});
    EXPECT_THROW(p.flag("--x", "help", []() {}), std::logic_error);
    EXPECT_THROW(p.value("--x", "X", "help", [](const std::string &) {}),
                 std::logic_error);
    // Either half of an alias pair collides, and --help is reserved.
    EXPECT_THROW(p.flag("-x, --x", "help", []() {}), std::logic_error);
    EXPECT_THROW(p.flag("--help", "help", []() {}), std::logic_error);
}

TEST(FlagParser, AliasPairIsOneSpec)
{
    FlagParser p("fake", kAbout);
    int threads = 0;
    p.value("-j, --threads", "N", "worker threads",
            [&](const std::string &v) { threads = parseInt(v); });
    std::ostringstream help;
    EXPECT_FALSE(p.parse({"-j", "3"}, help));
    EXPECT_EQ(threads, 3);
    EXPECT_FALSE(p.parse({"--threads=5"}, help));
    EXPECT_EQ(threads, 5);
    // Giving both names no longer silently keeps the last value.
    expectUsageError([&]() { p.parse({"-j", "2", "--threads", "1"}, help); },
                     "flag -j, --threads given more than once");
    expectUsageError([&]() { p.parse({"--threads", "2", "-j", "1"}, help); },
                     "given more than once");
    expectUsageError([&]() { p.parse({"--j", "2"}, help); },
                     "unknown fake flag '--j'");
}

TEST(FlagParser, HelpIsRenderedFromTheTable)
{
    FlagParser p("fake", kAbout);
    p.group("First");
    p.value("--alpha", "N", "the alpha knob", [](const std::string &) {});
    p.group("Second");
    p.flag("--beta", "the beta switch", []() {});
    p.group("First"); // a reopened group keeps its first position
    p.value("-g, --gamma", "G", "the gamma knob",
            [](const std::string &) {});
    std::ostringstream help;
    ASSERT_TRUE(p.parse({"--help"}, help));
    EXPECT_EQ(help.str(),
              "usage: sn40l_run fake [flags]\n"
              "\n"
              "A fake subcommand for the parser tests.\n"
              "\n"
              "First:\n"
              "  --alpha N               the alpha knob\n"
              "  -g, --gamma G           the gamma knob\n"
              "\n"
              "Second:\n"
              "  --beta                  the beta switch\n"
              "\n"
              "  -h, --help              print this help and exit\n");

    // Flags before any group() land under "Flags"; a long help line
    // wraps at 80 columns, continuing under the help column.
    FlagParser wide("fake", kAbout);
    wide.value("--long", "N",
               "one two three four five six seven eight nine ten eleven "
               "twelve thirteen",
               [](const std::string &) {});
    std::ostringstream wide_help;
    ASSERT_TRUE(wide.parse({"--help"}, wide_help));
    EXPECT_NE(wide_help.str().find(
                  "Flags:\n"
                  "  --long N                one two three four five six "
                  "seven eight nine ten\n"
                  "                          eleven twelve thirteen\n"),
              std::string::npos)
        << wide_help.str();

    // The bare program path has no subcommand in its usage or errors.
    FlagParser top("", "About the program.");
    top.flag("--x", "x", []() {});
    std::ostringstream top_help;
    ASSERT_TRUE(top.parse({"-h"}, top_help));
    EXPECT_EQ(top_help.str().rfind("usage: sn40l_run [flags]\n", 0), 0u);
    try {
        top.parse({"--y"}, top_help);
        FAIL() << "expected FlagUsageError";
    } catch (const FlagUsageError &e) {
        EXPECT_STREQ(e.what(), "unknown flag '--y'");
        EXPECT_TRUE(e.subcommand().empty());
    }
}

TEST(FlagParser, FailThrowsWithSubcommand)
{
    FlagParser p("fake", kAbout);
    expectUsageError([&]() { p.fail("custom validation message"); },
                     "custom validation message");
}

TEST(ParseListFn, ParsesCommaSeparatedValues)
{
    FlagParser p("fake", kAbout);
    std::vector<int> v = parseList<int>(
        p, "1,2,3", +[](const std::string &s) { return std::stoi(s); });
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], 1);
    EXPECT_EQ(v[2], 3);
}

TEST(ParseListFn, EmptyElementsAndEmptyListsFail)
{
    FlagParser p("fake", kAbout);
    auto parse = +[](const std::string &s) { return std::stoi(s); };
    expectUsageError([&]() { parseList<int>(p, "1,,3", parse); },
                     "empty element");
    expectUsageError([&]() { parseList<int>(p, "", parse); },
                     "empty list");
}

TEST(FlagParser, BadNumbersNameTheFlagAndValue)
{
    FlagParser p("fake", kAbout);
    int nodes = 0;
    double rate = 0.0;
    p.value("--nodes", "N", "help",
            [&](const std::string &v) { nodes = std::stoi(v); });
    p.value("--rate", "R", "help",
            [&](const std::string &v) { rate = std::stod(v); });
    std::ostringstream help;
    expectUsageError([&]() { p.parse({"--nodes", "abc"}, help); },
                     "flag --nodes: malformed number 'abc'");
    expectUsageError([&]() { p.parse({"--nodes=99999999999"}, help); },
                     "flag --nodes: value '99999999999' is out of range");
    expectUsageError([&]() { p.parse({"--rate", "1e999"}, help); },
                     "flag --rate: value '1e999' is out of range");
    EXPECT_FALSE(p.parse({"--nodes", "7", "--rate", "2.5"}, help));
    EXPECT_EQ(nodes, 7);
    EXPECT_DOUBLE_EQ(rate, 2.5);
}

TEST(WholeNumberParsers, AcceptCompleteNumbers)
{
    EXPECT_EQ(parseInt("42"), 42);
    EXPECT_EQ(parseInt("-7"), -7);
    EXPECT_EQ(parseInt64("-1"), -1);
    EXPECT_EQ(parseInt64("9000000000"), std::int64_t{9000000000});
    EXPECT_EQ(parseUint64("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_DOUBLE_EQ(parseDouble("1.5"), 1.5);
    EXPECT_DOUBLE_EQ(parseDouble("2e-3"), 2e-3);
    // Non-finite spellings still parse; the config validators reject
    // them with the field and flag named.
    EXPECT_TRUE(std::isnan(parseDouble("nan")));
    EXPECT_TRUE(std::isinf(parseDouble("inf")));
}

TEST(WholeNumberParsers, RejectTrailingGarbage)
{
    for (const char *bad : {"3x", "3 ", "1.5", "1e3", "0x", ""})
        EXPECT_THROW(parseInt(bad), std::invalid_argument) << bad;
    for (const char *bad : {"1.5abc", "2.5 ", "1e", "abc", ""})
        EXPECT_THROW(parseDouble(bad), std::invalid_argument) << bad;
    for (const char *bad : {"7seven", "-1", " -1", "1.0"})
        EXPECT_THROW(parseUint64(bad), std::invalid_argument) << bad;
    EXPECT_THROW(parseInt64("12ms"), std::invalid_argument);
    EXPECT_THROW(parseInt("99999999999"), std::out_of_range);
    EXPECT_THROW(parseUint64("18446744073709551616"), std::out_of_range);
}

TEST(FlagParser, TrailingGarbageNamesTheFlagAndValue)
{
    FlagParser p("fake", kAbout);
    int requests = 0;
    double rate = 0.0;
    std::uint64_t seed = 0;
    p.value("--requests", "X", "help",
            [&](const std::string &v) { requests = parseInt(v); });
    p.value("--arrival-rate", "X", "help",
            [&](const std::string &v) { rate = parseDouble(v); });
    p.value("--seed", "N", "help",
            [&](const std::string &v) { seed = parseUint64(v); });
    std::ostringstream help;
    expectUsageError([&]() { p.parse({"--requests", "3x"}, help); },
                     "flag --requests: malformed number '3x'");
    expectUsageError([&]() { p.parse({"--arrival-rate=1.5abc"}, help); },
                     "flag --arrival-rate: malformed number '1.5abc'");
    expectUsageError([&]() { p.parse({"--seed", "-1"}, help); },
                     "flag --seed: malformed number '-1'");
    EXPECT_EQ(requests, 0);
    EXPECT_EQ(rate, 0.0);
    EXPECT_EQ(seed, 0u);
    EXPECT_FALSE(p.parse({"--requests", "3", "--arrival-rate", "1.5",
                          "--seed", "9"},
                         help));
    EXPECT_EQ(requests, 3);
    EXPECT_DOUBLE_EQ(rate, 1.5);
    EXPECT_EQ(seed, 9u);
}

TEST(ParseListFn, WholeNumberElementsRejectTrailingGarbage)
{
    FlagParser p("fake", kAbout);
    EXPECT_EQ(parseList<int>(p, "100,150", &parseInt),
              (std::vector<int>{100, 150}));
    EXPECT_THROW(parseList<int>(p, "100,150x", &parseInt),
                 std::invalid_argument);
    EXPECT_THROW(parseList<double>(p, "8,16.5/s", &parseDouble),
                 std::invalid_argument);
}
