/**
 * @file
 * Unit tests for the sn40l_run flag parser (tools/flag_parser.h):
 * unknown flags name their subcommand, missing values and duplicate
 * flags fail (an alias pair counts as one flag), --flag=value and
 * --flag value parse identically, --help short-circuits and is
 * rendered (word-wrapped) from the registration table, malformed or
 * out-of-range numbers name their flag, the whole-string number
 * parsers reject trailing garbage, parseList rejects malformed
 * lists, given() reports the last parse's flags (either alias),
 * check() callbacks run in registration order after the last flag,
 * never after --help, the program name leads the usage line and the
 * error hint, runMain() turns every exception into exit status 1, and
 * --workload closed-loop counts as closed-loop for the arrival checks.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/log.h"
#include "tools/cli_config.h"
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
        EXPECT_EQ(e.command(), "sn40l_run fake");
    }
}

} // namespace

TEST(FlagParser, ParsesValuesAndBareFlags)
{
    FlagParser p("sn40l_run", "fake", kAbout);
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
        FlagParser p("sn40l_run", "fake", kAbout);
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
    std::vector<std::string> out =
        splitEqualsArgs({"--a=1", "plain=2", "-j", "4"});
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[0], "--a");
    EXPECT_EQ(out[1], "1");
    EXPECT_EQ(out[2], "plain=2"); // no leading --, left alone
    EXPECT_EQ(out[3], "-j");
    EXPECT_EQ(out[4], "4");
}

TEST(FlagParser, UnknownFlagNamesTheSubcommand)
{
    FlagParser p("sn40l_run", "fake", kAbout);
    p.flag("--known", "help", []() {});
    std::ostringstream help;
    expectUsageError([&]() { p.parse({"--bogus"}, help); },
                     "unknown fake flag '--bogus'");
}

TEST(FlagParser, MissingValueFails)
{
    FlagParser p("sn40l_run", "fake", kAbout);
    p.value("--experts", "X", "help", [](const std::string &) {});
    std::ostringstream help;
    expectUsageError([&]() { p.parse({"--experts"}, help); },
                     "expects a value");
}

TEST(FlagParser, DuplicateFlagFails)
{
    FlagParser p("sn40l_run", "fake", kAbout);
    int experts = 0;
    p.value("--experts", "X", "help",
            [&](const std::string &v) { experts = std::stoi(v); });
    std::ostringstream help;
    expectUsageError(
        [&]() { p.parse({"--experts", "1", "--experts", "2"}, help); },
        "given more than once");

    // Bare flags are rejected on repeat too.
    FlagParser q("sn40l_run", "fake", kAbout);
    q.flag("--prefetch", "help", []() {});
    expectUsageError(
        [&]() { q.parse({"--prefetch", "--prefetch"}, help); },
        "given more than once");
}

TEST(FlagParser, ParseStateResetsBetweenRuns)
{
    // The seen-set must reset, or a reused parser would report a
    // duplicate across independent parses.
    FlagParser p("sn40l_run", "fake", kAbout);
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
    FlagParser p("sn40l_run", "fake", kAbout);
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

TEST(FlagParser, GivenReportsTheLastParse)
{
    FlagParser p("sn40l_run", "fake", kAbout);
    p.value("-j, --jobs", "N", "help", [](const std::string &) {});
    p.flag("--prefetch", "help", []() {});
    std::ostringstream help;
    EXPECT_FALSE(p.given("--jobs"));
    EXPECT_FALSE(p.parse({"-j", "2", "--prefetch"}, help));
    // Either name of an alias pair answers for the pair.
    EXPECT_TRUE(p.given("-j"));
    EXPECT_TRUE(p.given("--jobs"));
    EXPECT_TRUE(p.given("--prefetch"));
    EXPECT_FALSE(p.parse({"--jobs=3"}, help));
    EXPECT_TRUE(p.given("-j"));
    EXPECT_FALSE(p.given("--prefetch")); // reset between parses
    EXPECT_FALSE(p.parse({}, help));
    EXPECT_FALSE(p.given("--jobs"));
    // A flag this parser never registered was never given.
    EXPECT_FALSE(p.given("--closed-loop"));
}

TEST(FlagParser, ChecksRunInRegistrationOrderAfterEveryFlag)
{
    FlagParser p("sn40l_run", "fake", kAbout);
    int experts = 0;
    std::vector<std::string> ran;
    p.check([&]() { ran.push_back("first:" + std::to_string(experts)); });
    p.value("--experts", "X", "help",
            [&](const std::string &v) { experts = parseInt(v); });
    p.check([&]() {
        ran.push_back("second");
        if (p.given("--zoo") && p.given("--experts"))
            p.fail("--zoo replaces --experts");
    });
    p.flag("--zoo", "help", []() {});
    std::ostringstream help;
    // The first check was registered before --experts, yet it sees the
    // parsed value: checks run after the last flag is applied.
    EXPECT_FALSE(p.parse({"--experts", "4"}, help));
    EXPECT_EQ(ran, (std::vector<std::string>{"first:4", "second"}));

    ran.clear();
    expectUsageError([&]() { p.parse({"--zoo", "--experts", "2"}, help); },
                     "--zoo replaces --experts");
    EXPECT_EQ(ran, (std::vector<std::string>{"first:2", "second"}));

    // --help prints and returns before any check runs.
    ran.clear();
    EXPECT_TRUE(p.parse({"--zoo", "--experts", "2", "--help"}, help));
    EXPECT_TRUE(ran.empty());
}

TEST(FlagParser, RegisteringTheSameFlagTwiceIsAProgrammerError)
{
    FlagParser p("sn40l_run", "fake", kAbout);
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
    FlagParser p("sn40l_run", "fake", kAbout);
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
    FlagParser p("sn40l_run", "fake", kAbout);
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
    FlagParser wide("sn40l_run", "fake", kAbout);
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
    FlagParser top("sn40l_run", "", "About the program.");
    top.flag("--x", "x", []() {});
    std::ostringstream top_help;
    ASSERT_TRUE(top.parse({"-h"}, top_help));
    EXPECT_EQ(top_help.str().rfind("usage: sn40l_run [flags]\n", 0), 0u);
    try {
        top.parse({"--y"}, top_help);
        FAIL() << "expected FlagUsageError";
    } catch (const FlagUsageError &e) {
        EXPECT_STREQ(e.what(), "unknown flag '--y'");
        EXPECT_EQ(e.command(), "sn40l_run");
    }
}

TEST(FlagParser, FailThrowsWithSubcommand)
{
    FlagParser p("sn40l_run", "fake", kAbout);
    expectUsageError([&]() { p.fail("custom validation message"); },
                     "custom validation message");
}

TEST(ParseListFn, ParsesCommaSeparatedValues)
{
    FlagParser p("sn40l_run", "fake", kAbout);
    std::vector<int> v = parseList<int>(
        p, "1,2,3", +[](const std::string &s) { return std::stoi(s); });
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], 1);
    EXPECT_EQ(v[2], 3);
}

TEST(ParseListFn, EmptyElementsAndEmptyListsFail)
{
    FlagParser p("sn40l_run", "fake", kAbout);
    auto parse = +[](const std::string &s) { return std::stoi(s); };
    expectUsageError([&]() { parseList<int>(p, "1,,3", parse); },
                     "empty element");
    expectUsageError([&]() { parseList<int>(p, "", parse); },
                     "empty list");
}

TEST(FlagParser, BadNumbersNameTheFlagAndValue)
{
    FlagParser p("sn40l_run", "fake", kAbout);
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
    FlagParser p("sn40l_run", "fake", kAbout);
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
    FlagParser p("sn40l_run", "fake", kAbout);
    EXPECT_EQ(parseList<int>(p, "100,150", &parseInt),
              (std::vector<int>{100, 150}));
    EXPECT_THROW(parseList<int>(p, "100,150x", &parseInt),
                 std::invalid_argument);
    EXPECT_THROW(parseList<double>(p, "8,16.5/s", &parseDouble),
                 std::invalid_argument);
}

TEST(FlagParser, ProgramNameLeadsUsageAndErrors)
{
    FlagParser p("abl_chaos", "", "A bench.");
    p.flag("--smoke", "smaller run", []() {});
    std::ostringstream help;
    ASSERT_TRUE(p.parse({"--help"}, help));
    EXPECT_EQ(help.str().rfind("usage: abl_chaos [flags]\n", 0), 0u);
    try {
        p.parse({"--bogus"}, help);
        FAIL() << "expected FlagUsageError";
    } catch (const FlagUsageError &e) {
        EXPECT_STREQ(e.what(), "unknown flag '--bogus'");
        EXPECT_EQ(e.command(), "abl_chaos");
    }
}

namespace {

int
throwUsage(int, char **)
{
    FlagParser p("abl_chaos", "", kAbout);
    p.fail("flag --requests: malformed number 'abc'");
}

int
throwFatal(int, char **)
{
    sim::fatal("unknown platform 'bogus'");
}

int
throwOther(int, char **)
{
    throw std::runtime_error("cannot read floor.json");
}

int
returnSeven(int, char **)
{
    return 7;
}

/** runMain(@p body)'s exit status; its stderr goes to @p err. */
int
runCaptured(int (*body)(int, char **), std::string &err)
{
    testing::internal::CaptureStderr();
    int rc = tools::runMain(body, 0, nullptr);
    err = testing::internal::GetCapturedStderr();
    return rc;
}

} // namespace

TEST(RunMain, EveryExceptionExitsOneWithAnErrorLine)
{
    std::string err;
    EXPECT_EQ(runCaptured(&throwUsage, err), 1);
    EXPECT_EQ(err, "error: flag --requests: malformed number 'abc'\n"
                   "run `abl_chaos --help` for the flag reference\n");
    EXPECT_EQ(runCaptured(&throwFatal, err), 1);
    EXPECT_EQ(err, "error: fatal: unknown platform 'bogus'\n");
    EXPECT_EQ(runCaptured(&throwOther, err), 1);
    EXPECT_EQ(err, "error: cannot read floor.json\n");
    EXPECT_EQ(runCaptured(&returnSeven, err), 7);
    EXPECT_TRUE(err.empty());
}

namespace {

/** Parse @p args through the arrival and scenario flag groups. */
void
parseArrivals(const std::vector<std::string> &args, coe::ServingConfig &cfg)
{
    FlagParser p("sn40l_run", "fake", kAbout);
    tools::addArrivalFlags(p, cfg);
    tools::addScenarioFlags(p, cfg);
    std::ostringstream help;
    p.parse(args, help);
}

} // namespace

TEST(ArrivalFlags, WorkloadClosedLoopIsAClosedLoopRun)
{
    // Accepted: the pool flags apply to --workload closed-loop, in
    // either order.
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"--workload", "closed-loop", "--clients",
                                   "4"},
          std::vector<std::string>{"--think", "0.1", "--workload",
                                   "closed-loop"}}) {
        coe::ServingConfig cfg;
        EXPECT_NO_THROW(parseArrivals(args, cfg));
        EXPECT_EQ(cfg.arrival, coe::ArrivalProcess::ClosedLoop);
    }
    // Rejected: an open-loop rate has no meaning there.
    coe::ServingConfig cfg;
    expectUsageError(
        [&]() {
            parseArrivals({"--workload", "closed-loop", "--arrival-rate", "4"},
                          cfg);
        },
        "cannot be combined with --workload closed-loop");
    // Rejected: sessions are open-loop, whichever flag made the pool.
    expectUsageError(
        [&]() {
            parseArrivals({"--workload", "closed-loop", "--session-prob",
                           "0.5"},
                          cfg);
        },
        "open-loop workloads; drop --workload closed-loop");
    expectUsageError(
        [&]() {
            parseArrivals({"--session-prob", "0.5", "--closed-loop"}, cfg);
        },
        "open-loop workloads; drop --closed-loop");
}
