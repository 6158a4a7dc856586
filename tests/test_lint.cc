/**
 * @file
 * Tests for caba-lint (tools/lint): every rule must fire on its
 * fixture with the expected count, annotations and whitelists must
 * suppress, the JSON report must be well-formed, and the real source
 * tree must lint clean.
 *
 * Fixture files live in tools/lint/fixtures/ and are linted under
 * fake src/ paths so the src-only rules (iteration-order,
 * check-discipline, stat-hygiene) apply to them.
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json_parse.h"
#include "lint.h"

#ifndef CABA_LINT_SOURCE_ROOT
#error "CABA_LINT_SOURCE_ROOT must be defined by the build"
#endif
#ifndef CABA_LINT_FIXTURE_DIR
#error "CABA_LINT_FIXTURE_DIR must be defined by the build"
#endif

namespace {

using caba::lint::Finding;
using caba::lint::SourceFile;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Loads a fixture and poses it as a file under src/common/ (a mapped
 *  layer, so the layering rule stays quiet about the pose itself). */
SourceFile
fixture(const std::string &name)
{
    SourceFile f;
    f.path = "src/common/" + name;
    f.text = slurp(std::string(CABA_LINT_FIXTURE_DIR) + "/" + name);
    return f;
}

std::map<std::string, int>
countByRule(const std::vector<Finding> &findings)
{
    std::map<std::string, int> counts;
    for (const Finding &f : findings)
        ++counts[f.rule];
    return counts;
}

TEST(Lint, DeterminismClockAndRandSources)
{
    auto findings = caba::lint::run({fixture("det_clocks.cc")});
    EXPECT_EQ(findings.size(), 7u);
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "determinism");
        EXPECT_EQ(f.file, "src/common/det_clocks.cc");
        EXPECT_GT(f.line, 0);
    }
}

TEST(Lint, DeterminismPointerSortPredicates)
{
    auto findings = caba::lint::run({fixture("det_ptr_sort.cc")});
    ASSERT_EQ(findings.size(), 2u);
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "determinism");
        EXPECT_NE(f.message.find("pointer"), std::string::npos)
            << f.message;
    }
}

TEST(Lint, DeterminismWhitelistSuppresses)
{
    // The same content under a whitelisted path produces no findings.
    SourceFile f = fixture("det_clocks.cc");
    f.path = "src/common/prof.cc";
    EXPECT_TRUE(caba::lint::run({f}).empty());
}

TEST(Lint, IterationOrderUnorderedRangeFor)
{
    auto findings = caba::lint::run({fixture("iter_unordered.cc")});
    ASSERT_EQ(findings.size(), 3u);
    for (const Finding &f : findings)
        EXPECT_EQ(f.rule, "iteration-order");
    // Annotated loops (lines 39 and 43) must not appear.
    for (const Finding &f : findings) {
        EXPECT_NE(f.line, 39);
        EXPECT_NE(f.line, 43);
    }
}

TEST(Lint, IterationOrderClassicForOverIterators)
{
    // An iterator loop walks the hash order just as a range-for does.
    SourceFile f;
    f.path = "src/common/iter_classic.cc";
    f.text = "#include <unordered_map>\n"                          // 1
             "std::unordered_map<int, int> table;\n"                // 2
             "std::unordered_map<int, int> *ptr = &table;\n"        // 3
             "int sum() {\n"                                       // 4
             "    int s = 0;\n"                                    // 5
             "    for (auto it = table.begin(); it != table.end();"
             " ++it)\n"                                            // 6
             "        s += it->second;\n"                          // 7
             "    for (auto it = ptr->cbegin(); it != ptr->cend();"
             " ++it)\n"                                            // 8
             "        s += it->second;\n"                          // 9
             "    // lint: order-insensitive — the sum is commutative\n"
             "    for (auto it = table.begin(); it != table.end();"
             " ++it)\n"                                            // 11
             "        s += it->second;\n"                          // 12
             "    for (auto it = table.find(1); it != table.end();"
             " ++it)\n"                                            // 13
             "        break;\n"                                    // 14
             "    for (int i = 0; i < 3; ++i)\n"                   // 15
             "        s += i;\n"                                   // 16
             "    return s;\n"                                     // 17
             "}\n";
    const auto findings = caba::lint::run({f});
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].rule, "iteration-order");
    EXPECT_EQ(findings[0].line, 6);
    EXPECT_NE(findings[0].message.find("'table'"), std::string::npos)
        << findings[0].message;
    EXPECT_EQ(findings[1].rule, "iteration-order");
    EXPECT_EQ(findings[1].line, 8);
    EXPECT_NE(findings[1].message.find("'ptr'"), std::string::npos)
        << findings[1].message;
}

TEST(Lint, IterationOrderOnlyEnforcedInSrc)
{
    // tests/ may iterate unordered containers freely.
    SourceFile f = fixture("iter_unordered.cc");
    f.path = "tests/iter_unordered.cc";
    EXPECT_TRUE(caba::lint::run({f}).empty());
}

TEST(Lint, EnvAccessOutsideRegistry)
{
    auto findings = caba::lint::run({fixture("env_direct.cc")});
    ASSERT_EQ(findings.size(), 2u);
    for (const Finding &f : findings)
        EXPECT_EQ(f.rule, "env-access");
}

TEST(Lint, EnvAccessAllowedInRegistry)
{
    SourceFile f = fixture("env_direct.cc");
    f.path = "src/common/env.cc";
    EXPECT_TRUE(caba::lint::run({f}).empty());
}

TEST(Lint, CheckDisciplineBareAssert)
{
    auto findings = caba::lint::run({fixture("assert_bare.cc")});
    ASSERT_EQ(findings.size(), 2u);
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "check-discipline");
        // lint: not-env CABA_CHECK is the assertion macro, not a knob
        EXPECT_NE(f.message.find("CABA_CHECK"), std::string::npos);
    }
}

TEST(Lint, StatHygiene)
{
    auto findings = caba::lint::run({fixture("stats_bad.cc")});
    ASSERT_EQ(findings.size(), 4u);
    for (const Finding &f : findings)
        EXPECT_EQ(f.rule, "stat-hygiene");
}

TEST(Lint, ExperimentRegistryCaseAndDuplicates)
{
    auto findings = caba::lint::run({fixture("exp_registry.cc")});
    ASSERT_EQ(findings.size(), 2u);
    for (const Finding &f : findings)
        EXPECT_EQ(f.rule, "experiment-registry");
    EXPECT_NE(findings[0].message.find("snake_case"), std::string::npos)
        << findings[0].message;
    EXPECT_NE(findings[1].message.find("duplicate"), std::string::npos)
        << findings[1].message;
}

TEST(Lint, ExperimentRegistryCrossFileDuplicate)
{
    // The uniqueness check spans files, and the finding lands on the
    // lexicographically later file regardless of input order.
    SourceFile a{"bench/a.cc",
                 "CABA_REGISTER_EXPERIMENT(shared_name)\n{\n}\n"};
    SourceFile b{"bench/b.cc",
                 "CABA_REGISTER_EXPERIMENT(shared_name)\n{\n}\n"};
    for (const auto &files :
         {std::vector<SourceFile>{a, b}, std::vector<SourceFile>{b, a}}) {
        auto findings = caba::lint::run(files);
        ASSERT_EQ(findings.size(), 1u);
        EXPECT_EQ(findings[0].rule, "experiment-registry");
        EXPECT_EQ(findings[0].file, "bench/b.cc");
        EXPECT_NE(findings[0].message.find("bench/a.cc"),
                  std::string::npos)
            << findings[0].message;
    }
}

TEST(Lint, CleanFixtureHasNoFindings)
{
    EXPECT_TRUE(caba::lint::run({fixture("clean.cc")}).empty());
}

TEST(Lint, FindingsAreSortedAndStable)
{
    std::vector<SourceFile> files = {fixture("stats_bad.cc"),
                                     fixture("det_clocks.cc")};
    auto a = caba::lint::run(files);
    std::swap(files[0], files[1]);
    auto b = caba::lint::run(files);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].rule, b[i].rule);
        EXPECT_EQ(a[i].file, b[i].file);
        EXPECT_EQ(a[i].line, b[i].line);
        EXPECT_EQ(a[i].message, b[i].message);
    }
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_LE(a[i - 1].file, a[i].file);
}

TEST(Lint, JsonReportShape)
{
    std::vector<SourceFile> files;
    for (const char *name :
         {"det_clocks.cc", "det_ptr_sort.cc", "iter_unordered.cc",
          "env_direct.cc", "assert_bare.cc", "stats_bad.cc",
          "exp_registry.cc", "clean.cc"})
        files.push_back(fixture(name));
    auto findings = caba::lint::run(files);
    auto by_rule = countByRule(findings);
    EXPECT_EQ(by_rule["determinism"], 9);
    EXPECT_EQ(by_rule["iteration-order"], 3);
    EXPECT_EQ(by_rule["env-access"], 2);
    EXPECT_EQ(by_rule["check-discipline"], 2);
    EXPECT_EQ(by_rule["stat-hygiene"], 4);
    EXPECT_EQ(by_rule["experiment-registry"], 2);

    const std::string json = caba::lint::toJson(findings);
    caba::json::Value doc;
    ASSERT_TRUE(caba::json::parse(json, &doc)) << json;
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->string, "caba-lint-v1");
    const caba::json::Value *counts = doc.find("counts");
    ASSERT_NE(counts, nullptr);
    auto count_of = [&](const char *key) {
        const caba::json::Value *v = counts->find(key);
        return v && v->isNumber() ? static_cast<int>(v->number) : -1;
    };
    EXPECT_EQ(count_of("determinism"), 9);
    EXPECT_EQ(count_of("iteration-order"), 3);
    EXPECT_EQ(count_of("env-access"), 2);
    EXPECT_EQ(count_of("check-discipline"), 2);
    EXPECT_EQ(count_of("stat-hygiene"), 4);
    EXPECT_EQ(count_of("experiment-registry"), 2);
    EXPECT_EQ(count_of("total"), 22);
    const caba::json::Value *arr = doc.find("findings");
    ASSERT_NE(arr, nullptr);
    ASSERT_TRUE(arr->isArray());
    ASSERT_EQ(arr->array.size(), findings.size());
    for (std::size_t i = 0; i < arr->array.size(); ++i) {
        const caba::json::Value &e = arr->array[i];
        ASSERT_TRUE(e.isObject());
        EXPECT_EQ(e.find("rule")->string, findings[i].rule);
        EXPECT_EQ(e.find("file")->string, findings[i].file);
        EXPECT_EQ(static_cast<int>(e.find("line")->number),
                  findings[i].line);
        EXPECT_EQ(e.find("message")->string, findings[i].message);
    }
}

TEST(Lint, RuleNamesCoverAllRules)
{
    const auto &names = caba::lint::ruleNames();
    EXPECT_EQ(names.size(), 11u);
    for (const char *expect :
         {"include-cycle", "layering", "env-drift", "stat-drift",
          "lock-discipline"})
        EXPECT_NE(std::find(names.begin(), names.end(), expect),
                  names.end())
            << expect;
}

TEST(Lint, IncludeCycleDetected)
{
    SourceFile a{"src/common/a.h", "#include \"common/b.h\"\n"};
    SourceFile b{"src/common/b.h", "#include \"common/c.h\"\n"};
    SourceFile c{"src/common/c.h", "#include \"common/a.h\"\n"};
    caba::lint::Options opts;
    opts.rules = {"include-cycle"};
    auto findings = caba::lint::run({a, b, c}, opts);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "include-cycle");
    // Anchored at the lexicographically smallest member's include.
    EXPECT_EQ(findings[0].file, "src/common/a.h");
    EXPECT_EQ(findings[0].line, 1);
    for (const char *member :
         {"src/common/a.h", "src/common/b.h", "src/common/c.h"})
        EXPECT_NE(findings[0].message.find(member), std::string::npos)
            << findings[0].message;

    // Acyclic control: breaking the back edge clears the finding.
    c.text = "";
    EXPECT_TRUE(caba::lint::run({a, b, c}, opts).empty());
}

TEST(Lint, IncludeSelfCycle)
{
    SourceFile s{"src/common/s.h", "#include \"common/s.h\"\n"};
    caba::lint::Options opts;
    opts.rules = {"include-cycle"};
    auto findings = caba::lint::run({s}, opts);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("1 file(s)"), std::string::npos);
}

TEST(Lint, LayeringViolationDirections)
{
    // common(0) -> mem(2) and mem(2) -> gpu(3) point up: two findings.
    // gpu(3) -> common(0) points down and is fine.
    SourceFile common_up{"src/common/up.h", "#include \"mem/req.h\"\n"};
    SourceFile mem_up{"src/mem/req.h", "#include \"gpu/sys.h\"\n"};
    SourceFile gpu_down{"src/gpu/sys.h", "#include \"common/up.h\"\n"};
    caba::lint::Options opts;
    opts.rules = {"layering"};
    auto findings =
        caba::lint::run({common_up, mem_up, gpu_down}, opts);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].file, "src/common/up.h");
    EXPECT_EQ(findings[1].file, "src/mem/req.h");
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "layering");
        EXPECT_NE(f.message.find("never up"), std::string::npos)
            << f.message;
    }

    // Sideways (sim(3) -> gpu(3)) is legal.
    SourceFile side{"src/sim/core.h", "#include \"gpu/sys.h\"\n"};
    SourceFile gpu_plain{"src/gpu/sys.h", ""};
    EXPECT_TRUE(caba::lint::run({side, gpu_plain}, opts).empty());
}

TEST(Lint, LayeringUnmappedSubdirIsAnError)
{
    SourceFile f{"src/newdir/x.h", ""};
    caba::lint::Options opts;
    opts.rules = {"layering"};
    auto findings = caba::lint::run({f}, opts);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("not in the layer map"),
              std::string::npos)
        << findings[0].message;
}

TEST(Lint, EnvDriftUnregisteredLiteral)
{
    SourceFile reg{"src/common/env.cc",
                   "const char *a = \"CABA_GOOD\";\n"};
    SourceFile use{"src/gpu/use.cc",
                   "const char *u = \"CABA_GOOD\";\n"
                   "const char *v = \"CABA_BOGUS\";\n"
                   "// lint: not-env a macro name, not a knob\n"
                   "const char *w = \"CABA_NOTVAR\";\n"};
    caba::lint::Options opts;
    opts.rules = {"env-drift"};
    auto findings = caba::lint::run({reg, use}, opts);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "env-drift");
    EXPECT_EQ(findings[0].file, "src/gpu/use.cc");
    EXPECT_EQ(findings[0].line, 2);
    // lint: not-env the seeded fixture name, not a real knob
    EXPECT_NE(findings[0].message.find("CABA_BOGUS"), std::string::npos);
}

TEST(Lint, EnvDriftReadmeDirection)
{
    SourceFile reg{"src/common/env.cc",
                   "const char *a = \"CABA_GOOD\";\n"
                   "const char *b = \"CABA_UNDOC\";\n"};
    caba::lint::Options opts;
    opts.rules = {"env-drift"};
    opts.readme_text = "docs mention CABA_GOOD only";
    auto findings = caba::lint::run({reg}, opts);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/common/env.cc");
    EXPECT_EQ(findings[0].line, 2);
    // lint: not-env the seeded fixture name, not a real knob
    EXPECT_NE(findings[0].message.find("CABA_UNDOC"), std::string::npos);
    EXPECT_NE(findings[0].message.find("README"), std::string::npos);

    opts.readme_text = "CABA_GOOD and CABA_UNDOC";
    EXPECT_TRUE(caba::lint::run({reg}, opts).empty());
}

TEST(Lint, EnvDriftSkippedWithoutRegistry)
{
    // Fixture-style runs without src/common/env.cc can't know the
    // registry; the rule must stay quiet rather than flag everything.
    SourceFile f{"src/gpu/use.cc", "const char *v = \"CABA_ANYTHING\";\n"};
    caba::lint::Options opts;
    opts.rules = {"env-drift"};
    EXPECT_TRUE(caba::lint::run({f}, opts).empty());
}

TEST(Lint, StatDriftOrphanRead)
{
    SourceFile prod{"src/gpu/prod.cc",
                    "void f(S &s, S &o) {\n"
                    "    s.add(\"hits\", 1);\n"
                    "    s.mergePrefixed(o, \"l1_\");\n"
                    "}\n"};
    SourceFile cons{"src/caba/cons.cc",
                    "void g(S &s) {\n"
                    "    (void)s.get(\"hits\");\n"
                    "    (void)s.get(\"l1_hits\");\n"
                    "    (void)s.get(\"misses\");\n"
                    "    // lint: stat-external deliberately absent\n"
                    "    (void)s.get(\"gone\");\n"
                    "}\n"};
    caba::lint::Options opts;
    opts.rules = {"stat-drift"};
    auto findings = caba::lint::run({prod, cons}, opts);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "stat-drift");
    EXPECT_EQ(findings[0].file, "src/caba/cons.cc");
    EXPECT_EQ(findings[0].line, 4);
    EXPECT_NE(findings[0].message.find("misses"), std::string::npos);
}

TEST(Lint, StatDriftRatioArgumentsAreReads)
{
    SourceFile prod{"src/gpu/prod.cc", "void f(S &s) { s.add(\"num\", 1); }\n"};
    SourceFile cons{"src/caba/cons.cc",
                    "double g(S &s) { return s.ratio(\"num\", \"den\"); }\n"};
    caba::lint::Options opts;
    opts.rules = {"stat-drift"};
    auto findings = caba::lint::run({prod, cons}, opts);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("den"), std::string::npos);
}

TEST(Lint, StatDriftNameTableMembersAreProduced)
{
    SourceFile table{"src/harness/w.cc",
                     "const char *const kNames[] = {\"tbl_a\", \"tbl_b\"};\n"};
    SourceFile cons{"src/caba/r.cc",
                    "void g(S &s) {\n"
                    "    (void)s.get(\"tbl_a\");\n"
                    "    (void)s.get(\"tbl_b\");\n"
                    "}\n"};
    caba::lint::Options opts;
    opts.rules = {"stat-drift"};
    EXPECT_TRUE(caba::lint::run({table, cons}, opts).empty());
}

TEST(Lint, LockDisciplineNakedLockAndSuppression)
{
    auto findings = caba::lint::run({fixture("lock_naked.cc")});
    ASSERT_EQ(findings.size(), 2u);
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, "lock-discipline");
        EXPECT_NE(f.message.find("mu."), std::string::npos) << f.message;
    }
    // The annotated pair (lines 20/21) is suppressed; only bad() fires.
    EXPECT_EQ(findings[0].line, 12);
    EXPECT_EQ(findings[1].line, 13);
}

TEST(Lint, LockDisciplineSeesMutexAcrossFiles)
{
    // The declaration lives in one file, the naked lock in another: the
    // cross-TU index is what makes the rule fire.
    SourceFile decl{"src/common/state.h", "std::mutex service_mu;\n"};
    SourceFile use{"src/gpu/use.cc", "void f() { service_mu.lock(); }\n"};
    caba::lint::Options opts;
    opts.rules = {"lock-discipline"};
    auto findings = caba::lint::run({decl, use}, opts);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/gpu/use.cc");
}

TEST(Lint, RuleFilterRestrictsOutput)
{
    caba::lint::Options opts;
    opts.rules = {"determinism"};
    auto findings = caba::lint::run(
        {fixture("det_clocks.cc"), fixture("stats_bad.cc")}, opts);
    EXPECT_EQ(findings.size(), 7u);
    for (const Finding &f : findings)
        EXPECT_EQ(f.rule, "determinism");
}

TEST(Lint, SourceTreeIsClean)
{
    std::vector<Finding> findings;
    std::string err;
    ASSERT_TRUE(caba::lint::runTree(CABA_LINT_SOURCE_ROOT, &findings, &err))
        << err;
    EXPECT_TRUE(findings.empty()) << caba::lint::toText(findings);
}

} // namespace
