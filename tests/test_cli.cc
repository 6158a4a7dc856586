/**
 * @file
 * Unit tests for the caba_bench CLI grammar (harness/bench_cli.h), the
 * strict numeric parsers behind it (common/parse.h) and the numeric env
 * knobs that share them (common/env.h). The first two test groups are
 * regression tests for shipped bugs:
 *
 *  - bare `--json` used to greedily consume the next non-dash token as
 *    an output path, eating the experiment name;
 *  - `--scale nan` passed the old `<= 0` rejection (NaN compares false
 *    against everything), and huge `--jobs` values saturated to
 *    LONG_MAX in strtol and then truncated through an int cast.
 */
#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/parse.h"
#include "harness/bench_cli.h"

namespace caba {
namespace {

BenchCli
mustParse(const std::vector<std::string> &args)
{
    BenchCli cli;
    std::string error;
    EXPECT_TRUE(parseBenchCli(args, &cli, &error)) << error;
    return cli;
}

std::string
mustFail(const std::vector<std::string> &args)
{
    BenchCli cli;
    std::string error;
    EXPECT_FALSE(parseBenchCli(args, &cli, &error));
    EXPECT_FALSE(error.empty());
    return error;
}

// --- The --json greedy-consumption bug -------------------------------------

TEST(BenchCliJsonTest, BareJsonNeverConsumesTheNextToken)
{
    // The shipped bug: `caba_bench --json fig07` treated "fig07" as an
    // output path, leaving no experiment selected.
    const BenchCli cli = mustParse({"--json", "fig07_performance"});
    EXPECT_TRUE(cli.json_enabled);
    EXPECT_TRUE(cli.json_path.empty());
    EXPECT_EQ(cli.names,
              (std::vector<std::string>{"fig07_performance"}));
}

TEST(BenchCliJsonTest, BareJsonBeforeTwoNamesSelectsBoth)
{
    // Second shape of the same bug: `--json fig07 fig08` silently wrote
    // fig08's document to a file literally named "fig07".
    const BenchCli cli =
        mustParse({"--json", "fig07_performance", "fig08_bw_utilization"});
    EXPECT_TRUE(cli.json_enabled);
    EXPECT_TRUE(cli.json_path.empty());
    EXPECT_EQ(cli.names.size(), 2u);
}

TEST(BenchCliJsonTest, ExplicitPathOnlyViaEquals)
{
    const BenchCli cli = mustParse({"--json=/tmp/out.json", "fig07_performance"});
    EXPECT_TRUE(cli.json_enabled);
    EXPECT_EQ(cli.json_path, "/tmp/out.json");
}

TEST(BenchCliJsonTest, EmptyExplicitPathIsAnError)
{
    EXPECT_NE(mustFail({"--json="}).find("non-empty path"),
              std::string::npos);
}

TEST(BenchCliJsonTest, BareJsonAsLastArgumentIsFine)
{
    const BenchCli cli = mustParse({"fig07_performance", "--json"});
    EXPECT_TRUE(cli.json_enabled);
    EXPECT_TRUE(cli.json_path.empty());
}

// --- The --scale nan / --jobs overflow bugs --------------------------------

TEST(BenchCliScaleTest, RejectsNanAndInf)
{
    // strtod parses all of these; NaN defeated the old `<= 0` check.
    for (const char *bad : {"nan", "NaN", "inf", "infinity", "-inf"}) {
        const std::string error = mustFail({"--scale", bad});
        EXPECT_NE(error.find("finite positive"), std::string::npos)
            << bad << ": " << error;
    }
}

TEST(BenchCliScaleTest, RejectsZeroNegativeAndGarbage)
{
    mustFail({"--scale", "0"});
    mustFail({"--scale", "-1.5"});
    mustFail({"--scale", "1.5x"});
    mustFail({"--scale", ""});
    mustFail({"--scale"});
}

TEST(BenchCliScaleTest, AcceptsBothValueSpellings)
{
    EXPECT_DOUBLE_EQ(mustParse({"--scale", "0.25"}).opts.scale, 0.25);
    EXPECT_DOUBLE_EQ(mustParse({"--scale=2.5"}).opts.scale, 2.5);
}

TEST(BenchCliJobsTest, RejectsValuesBeyondIntRange)
{
    // strtol saturates to LONG_MAX; the old int cast truncated it.
    mustFail({"--jobs", "99999999999999999999"});
    mustFail({"--jobs", std::to_string(static_cast<long long>(INT_MAX) + 1)});
    mustFail({"--jobs", "-1"});
    mustFail({"--jobs", "4x"});
}

TEST(BenchCliJobsTest, AcceptsBoundaryValues)
{
    EXPECT_EQ(mustParse({"--jobs", "0"}).jobs, 0);
    EXPECT_EQ(mustParse({"--jobs", std::to_string(INT_MAX)}).jobs, INT_MAX);
}

// --- General grammar -------------------------------------------------------

TEST(BenchCliTest, FlagValueAndFlagEqualsValueAreEquivalent)
{
    const BenchCli a = mustParse({"--filter", "fig0?_*"});
    const BenchCli b = mustParse({"--filter=fig0?_*"});
    EXPECT_EQ(a.filters, b.filters);
}

TEST(BenchCliTest, HelpAndHelpEnvShortCircuit)
{
    EXPECT_EQ(mustParse({"--help"}).action, BenchCli::Action::Help);
    EXPECT_EQ(mustParse({"-h"}).action, BenchCli::Action::Help);
    EXPECT_EQ(mustParse({"--help-env"}).action, BenchCli::Action::HelpEnv);
}

TEST(BenchCliTest, UnknownFlagsAreHardErrors)
{
    mustFail({"--frobnicate"});
    mustFail({"-x"});
    mustFail({"--list=yes"});
    // No flag caps resident warps per SM.
    EXPECT_EQ(mustFail({"--warps", "24"}), "unknown flag '--warps'");
    EXPECT_EQ(mustFail({"--warps=24"}), "unknown flag '--warps=24'");
}

// --- globMatch edge cases --------------------------------------------------

TEST(GlobMatchTest, Basics)
{
    EXPECT_TRUE(globMatch("fig0?_*", "fig07_performance"));
    EXPECT_TRUE(globMatch("*", "anything"));
    EXPECT_TRUE(globMatch("*", ""));
    EXPECT_TRUE(globMatch("", ""));
    EXPECT_FALSE(globMatch("", "x"));
    EXPECT_FALSE(globMatch("?", ""));
    EXPECT_TRUE(globMatch("a*b*c", "a_long_b_middle_c"));
    EXPECT_FALSE(globMatch("a*b*c", "a_long_b_middle"));
    EXPECT_TRUE(globMatch("**", "x"));
    EXPECT_FALSE(globMatch("fig0?", "fig07_performance"));
}

// --- Selection resolution --------------------------------------------------

TEST(ResolveSelectionTest, GlobMatchingNothingIsAnError)
{
    BenchCli cli;
    cli.filters = {"zzz*"};
    std::vector<std::string> selected;
    std::string error;
    EXPECT_FALSE(resolveSelection(cli, {"fig07_performance"}, &selected,
                                  &error));
    EXPECT_NE(error.find("matches no experiment"), std::string::npos);
}

TEST(ResolveSelectionTest, ExplicitJsonPathNeedsExactlyOneExperiment)
{
    BenchCli cli;
    cli.run_all = true;
    cli.json_enabled = true;
    cli.json_path = "out.json";
    std::vector<std::string> selected;
    std::string error;
    EXPECT_FALSE(resolveSelection(cli, {"a", "b"}, &selected, &error));
    EXPECT_NE(error.find("exactly one"), std::string::npos);
}

TEST(ResolveSelectionTest, DedupesAndSorts)
{
    BenchCli cli;
    cli.names = {"b", "a", "b"};
    cli.filters = {"a*"};
    std::vector<std::string> selected;
    std::string error;
    ASSERT_TRUE(resolveSelection(cli, {"a", "b", "c"}, &selected, &error))
        << error;
    EXPECT_EQ(selected, (std::vector<std::string>{"a", "b"}));
}

TEST(ResolveSelectionTest, EmptySelectionAndUnknownNameAreErrors)
{
    BenchCli cli;
    std::vector<std::string> selected;
    std::string error;
    EXPECT_FALSE(resolveSelection(cli, {"a"}, &selected, &error));
    cli.names = {"nope"};
    EXPECT_FALSE(resolveSelection(cli, {"a"}, &selected, &error));
    EXPECT_NE(error.find("unknown experiment"), std::string::npos);
}

// --- The parse:: helpers directly ------------------------------------------

TEST(ParseTest, FinitePositiveReal)
{
    double d = -1.0;
    EXPECT_TRUE(parse::finitePositiveReal("0.5", &d));
    EXPECT_DOUBLE_EQ(d, 0.5);
    EXPECT_TRUE(parse::finitePositiveReal("1e-3", &d));
    EXPECT_FALSE(parse::finitePositiveReal("nan", &d));
    EXPECT_FALSE(parse::finitePositiveReal("inf", &d));
    EXPECT_FALSE(parse::finitePositiveReal("1e999", &d)); // ERANGE -> inf
    EXPECT_FALSE(parse::finitePositiveReal("0", &d));
    EXPECT_FALSE(parse::finitePositiveReal("-2", &d));
    EXPECT_FALSE(parse::finitePositiveReal("2.5 ", &d));
    EXPECT_FALSE(parse::finitePositiveReal("", &d));
}

TEST(ParseTest, BoundedInt)
{
    long n = -1;
    EXPECT_TRUE(parse::boundedInt("42", 0, 100, &n));
    EXPECT_EQ(n, 42);
    EXPECT_TRUE(parse::boundedInt("-5", -10, 10, &n));
    EXPECT_EQ(n, -5);
    EXPECT_FALSE(parse::boundedInt("101", 0, 100, &n));
    EXPECT_FALSE(parse::boundedInt("99999999999999999999", 0, LONG_MAX, &n));
    EXPECT_FALSE(parse::boundedInt("7up", 0, 100, &n));
    EXPECT_FALSE(parse::boundedInt("", 0, 100, &n));
}

TEST(ParseTest, IntInRange)
{
    int n = -1;
    EXPECT_TRUE(parse::intInRange("0", 0, &n));
    EXPECT_EQ(n, 0);
    EXPECT_TRUE(parse::intInRange(std::to_string(INT_MAX), 0, &n));
    EXPECT_EQ(n, INT_MAX);
    EXPECT_FALSE(
        parse::intInRange(std::to_string(static_cast<long long>(INT_MAX) + 1),
                          0, &n));
    EXPECT_FALSE(parse::intInRange("-1", 0, &n));
}

// --- Numeric env knobs through the same parsers ----------------------------
//
// The accessors are called directly: CABA_SCALE is cached in a static at
// its call site, so reading it through runner.cc would not see a value
// set here. Each read uses the range its call site uses.

double
readScale()
{
    return env::positiveRealOr("CABA_SCALE", 1.0);
}

int
readJobs()
{
    return env::intOr("CABA_JOBS", 1, INT_MAX, 3);
}

int
readEventDriven()
{
    return env::intOr("CABA_EVENT_DRIVEN", 0, 1, 1);
}

class EnvKnobTest : public ::testing::Test
{
  protected:
    void SetUp() override { TearDown(); }
    void
    TearDown() override
    {
        ::unsetenv("CABA_SCALE");
        ::unsetenv("CABA_JOBS");
        ::unsetenv("CABA_EVENT_DRIVEN");
    }
};

TEST_F(EnvKnobTest, UnsetOrEmptyMeansTheDefault)
{
    EXPECT_DOUBLE_EQ(readScale(), 1.0);
    EXPECT_EQ(readJobs(), 3);
    EXPECT_EQ(readEventDriven(), 1);
    ::setenv("CABA_SCALE", "", 1);
    ::setenv("CABA_JOBS", "", 1);
    ::setenv("CABA_EVENT_DRIVEN", "", 1);
    EXPECT_DOUBLE_EQ(readScale(), 1.0);
    EXPECT_EQ(readJobs(), 3);
    EXPECT_EQ(readEventDriven(), 1);
}

TEST_F(EnvKnobTest, WellFormedValuesParse)
{
    ::setenv("CABA_SCALE", "0.25", 1);
    ::setenv("CABA_JOBS", "8", 1);
    ::setenv("CABA_EVENT_DRIVEN", "0", 1);
    EXPECT_DOUBLE_EQ(readScale(), 0.25);
    EXPECT_EQ(readJobs(), 8);
    EXPECT_EQ(readEventDriven(), 0);
}

TEST_F(EnvKnobTest, MalformedValuesAreFatalAndNameTheVariable)
{
    const struct
    {
        const char *name;
        const char *value;
        void (*read)();
    } cases[] = {
        {"CABA_SCALE", "0.02x", [] { readScale(); }},
        {"CABA_SCALE", "0", [] { readScale(); }},
        {"CABA_SCALE", "nan", [] { readScale(); }},
        {"CABA_JOBS", "abc", [] { readJobs(); }},
        {"CABA_JOBS", "0", [] { readJobs(); }},
        {"CABA_EVENT_DRIVEN", "yes", [] { readEventDriven(); }},
        {"CABA_EVENT_DRIVEN", "2", [] { readEventDriven(); }},
    };
    for (const auto &c : cases) {
        const std::string expected =
            std::string(c.name) + "='" + c.value + "'";
        EXPECT_DEATH(
            {
                ::setenv(c.name, c.value, 1);
                c.read();
            },
            expected.c_str())
            << c.name << "=" << c.value;
    }
}

} // namespace
} // namespace caba
