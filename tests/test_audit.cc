/**
 * @file
 * Audit-layer tests: the mutation self-test (each seeded bookkeeping
 * fault must trip the audit), the zero-perturbation guarantee (RunResult
 * bit-identical with audits off vs. per-N-cycles, down to every
 * cycle), CABA_AUDIT spec parsing, and the fatal-mode panic path.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/audit.h"
#include "gpu/gpu_system.h"
#include "harness/runner.h"

namespace caba {
namespace {

AppDescriptor
tinyApp()
{
    // CONS issues both loads and stores, so every fault site (store
    // packet, read bursts, load slot) sees traffic.
    AppDescriptor app = findApp("CONS");
    app.iterations = 8;
    app.footprint = 2ull << 20;
    return app;
}

GpuConfig
auditedConfig(AuditLevel level, Cycle period = 256)
{
    GpuConfig cfg;
    cfg.audit.level = level;
    cfg.audit.period = period;
    cfg.audit.fatal = false;    // collect failures, don't abort
    cfg.audit.ignore_env = true;
    return cfg;
}

struct AuditedRun
{
    RunResult result;
    std::vector<std::string> failures;
};

AuditedRun
runAudited(const GpuConfig &cfg, const AuditFault *fault = nullptr,
           int warps = 12)
{
    Workload wl(tinyApp());
    wl.bindGrid(warps * cfg.num_sms);
    GpuSystem gpu(cfg, DesignConfig::caba(), wl.lineGenerator());
    gpu.launch(&wl, warps);
    if (fault)
        gpu.injectFault(*fault);
    AuditedRun r;
    r.result = gpu.run();
    r.failures = gpu.auditFailures();
    return r;
}

TEST(Audit, CleanRunPassesEveryPeriodicCheck)
{
    const AuditedRun r =
        runAudited(auditedConfig(AuditLevel::Periodic, 64));
    for (const std::string &f : r.failures)
        ADD_FAILURE() << f;
    EXPECT_TRUE(r.failures.empty());
    EXPECT_GT(r.result.cycles, 0u);
}

// The mutation self-test proper: each seeded silent fault simulates a
// real bookkeeping-bug class and the audit must flag it. A fault that
// sails through would mean the corresponding invariant is vacuous.

TEST(Audit, DetectsDroppedStorePacket)
{
    const AuditFault fault = AuditFault::DropStorePacket;
    const AuditedRun r =
        runAudited(auditedConfig(AuditLevel::EndOfRun), &fault);
    ASSERT_FALSE(r.failures.empty());
    // The lost store shows up both as a crossbar conservation breach
    // and as an orphan in the request lifecycle table.
    bool lifecycle = false;
    for (const std::string &f : r.failures)
        lifecycle = lifecycle || f.find("orphan") != std::string::npos;
    EXPECT_TRUE(lifecycle);
}

TEST(Audit, DetectsDoubleCountedBurst)
{
    const AuditFault fault = AuditFault::DoubleCountBurst;
    const AuditedRun r =
        runAudited(auditedConfig(AuditLevel::EndOfRun), &fault);
    ASSERT_FALSE(r.failures.empty());
    bool ledger = false;
    for (const std::string &f : r.failures)
        ledger = ledger || f.find("transfer bursts") != std::string::npos;
    EXPECT_TRUE(ledger);
}

TEST(Audit, DetectsLeakedLoadSlot)
{
    const AuditFault fault = AuditFault::LeakLoadSlot;
    const AuditedRun r =
        runAudited(auditedConfig(AuditLevel::EndOfRun), &fault);
    EXPECT_FALSE(r.failures.empty());
}

TEST(Audit, PeriodicChecksAlsoCatchFaults)
{
    // The same fault must be visible to the in-flight checker, not just
    // the drain-time one (a leaked slot is live state, not a stat).
    const AuditFault fault = AuditFault::LeakLoadSlot;
    const AuditedRun r =
        runAudited(auditedConfig(AuditLevel::Periodic, 64), &fault);
    EXPECT_FALSE(r.failures.empty());
}

TEST(Audit, ResultsBitIdenticalWithAuditsOnOrOff)
{
    const AuditedRun off = runAudited(auditedConfig(AuditLevel::Off));
    const AuditedRun on =
        runAudited(auditedConfig(AuditLevel::Periodic, 128));
    EXPECT_TRUE(on.failures.empty());
    EXPECT_EQ(off.result.cycles, on.result.cycles);
    EXPECT_EQ(off.result.instructions, on.result.instructions);
    EXPECT_EQ(off.result.stats.get("dram_bursts"),
              on.result.stats.get("dram_bursts"));
    EXPECT_EQ(off.result.stats.get("part_loads_in"),
              on.result.stats.get("part_loads_in"));
    EXPECT_EQ(off.result.stats.get("sm_assist_instructions"),
              on.result.stats.get("sm_assist_instructions"));
    EXPECT_EQ(off.result.stats.get("model_lines_compressed"),
              on.result.stats.get("model_lines_compressed"));
}

TEST(Audit, OneCyclePeriodRunsCleanAndChangesNoResult)
{
    // CABA_AUDIT=1 is a period of one cycle, the strictest audit there
    // is, not an alias for the drain-only default.
    GpuConfig every = auditedConfig(AuditLevel::EndOfRun);
    every.audit = AuditConfig::applySpec(every.audit, "1");
    ASSERT_EQ(every.audit.level, AuditLevel::Periodic);
    ASSERT_EQ(every.audit.period, 1u);

    const AuditedRun on = runAudited(every);
    const AuditedRun off = runAudited(auditedConfig(AuditLevel::Off));
    for (const std::string &f : on.failures)
        ADD_FAILURE() << f;
    EXPECT_EQ(off.result.cycles, on.result.cycles);
    EXPECT_EQ(off.result.instructions, on.result.instructions);
    EXPECT_EQ(off.result.stats.all(), on.result.stats.all());
}

TEST(Audit, FatalModeAbortsOnSeededFault)
{
    GpuConfig cfg = auditedConfig(AuditLevel::EndOfRun);
    cfg.audit.fatal = true;
    Workload wl(tinyApp());
    wl.bindGrid(12 * cfg.num_sms);
    GpuSystem gpu(cfg, DesignConfig::caba(), wl.lineGenerator());
    gpu.launch(&wl, 12);
    gpu.injectFault(AuditFault::DropStorePacket);
    EXPECT_DEATH(gpu.run(), "CABA_AUDIT");
}

TEST(Audit, SpecParsing)
{
    AuditConfig base;
    base.level = AuditLevel::EndOfRun;

    EXPECT_EQ(AuditConfig::applySpec(base, "off").level, AuditLevel::Off);
    EXPECT_EQ(AuditConfig::applySpec(base, "end").level,
              AuditLevel::EndOfRun);
    EXPECT_EQ(AuditConfig::applySpec(base, "full").level,
              AuditLevel::Periodic);

    const AuditConfig n = AuditConfig::applySpec(base, "4096");
    EXPECT_EQ(n.level, AuditLevel::Periodic);
    EXPECT_EQ(n.period, 4096u);

    // A number is always a period: "1" audits every cycle.
    const AuditConfig one = AuditConfig::applySpec(base, "1");
    EXPECT_EQ(one.level, AuditLevel::Periodic);
    EXPECT_EQ(one.period, 1u);

    // Unset or empty specs leave the configured level alone; a typo
    // stops the run instead of silently keeping it.
    EXPECT_EQ(AuditConfig::applySpec(base, "").level,
              AuditLevel::EndOfRun);
    EXPECT_EQ(AuditConfig::applySpec(base, nullptr).level,
              AuditLevel::EndOfRun);
    EXPECT_DEATH(AuditConfig::applySpec(base, "bogus"), "CABA_AUDIT='bogus'");
    EXPECT_DEATH(AuditConfig::applySpec(base, "ful"), "CABA_AUDIT='ful'");
    EXPECT_DEATH(AuditConfig::applySpec(base, "00"), "CABA_AUDIT='00'");
    EXPECT_DEATH(AuditConfig::applySpec(base, "0"), "CABA_AUDIT='0'");
    EXPECT_DEATH(AuditConfig::applySpec(base, "none"), "CABA_AUDIT='none'");
}

TEST(Audit, ThousandsOfLiveOrphansAreReportedInKeyOrder)
{
    // More than 4096 requests live at once grows the lifecycle table
    // several times; the orphan report must still list every survivor
    // in (id, SM) key order with the usual message.
    AuditConfig cfg;
    cfg.fatal = false;
    cfg.ignore_env = true;
    Audit audit(cfg);
    struct Req
    {
        std::uint64_t id = 0;
        int src_sm = 0;
        Addr line = 0;
        bool is_write = false;
    };
    struct Expect
    {
        Req req;
        Cycle injected = 0;
        ReqStage stage = ReqStage::Injected;
    };
    std::map<std::uint64_t, Expect> live;   // by audit key
    std::uint64_t s = 77;
    const auto rnd = [&s](std::uint64_t n) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return (s >> 33) % n;
    };
    const ReqStage stages[] = {ReqStage::XbarReq, ReqStage::AtPartition,
                               ReqStage::DramWait, ReqStage::Replied,
                               ReqStage::XbarReply};
    std::size_t peak = 0;
    for (int i = 0; i < 9000; ++i) {
        Req r;
        r.src_sm = static_cast<int>(rnd(15));
        r.id = 1 + static_cast<std::uint64_t>(i) * 7 + rnd(7);
        r.line = rnd(1 << 24) * kLineSize;
        r.is_write = rnd(3) == 0;
        const Cycle now = static_cast<Cycle>(i) * 3;
        audit.onInject(r, now);
        Expect &e = live[(r.id << 8) | static_cast<std::uint64_t>(r.src_sm)];
        e = {r, now, ReqStage::Injected};
        if (rnd(2) == 0) {
            e.stage = stages[rnd(5)];
            audit.onStage(r, e.stage);
        }
        // Retire about one request in five, picked at random.
        if (rnd(5) == 0) {
            auto it = live.begin();
            std::advance(it, static_cast<long>(rnd(live.size())));
            audit.onRetire(it->second.req);
            live.erase(it);
        }
        peak = std::max(peak, live.size());
    }
    ASSERT_GT(peak, 4096u);
    ASSERT_EQ(audit.liveRequests(), live.size());
    ASSERT_TRUE(audit.failures().empty());

    const Cycle drained = 99999;
    audit.checkLifecycle(drained, true);
    std::vector<std::string> want;
    for (const auto &[key, e] : live) {
        std::ostringstream os;
        os << "lifecycle: orphan request (id " << e.req.id << ", SM "
           << e.req.src_sm << ", " << (e.req.is_write ? "store" : "load")
           << " of line 0x" << std::hex << e.req.line << std::dec
           << ") injected at cycle " << e.injected << " still at stage "
           << reqStageName(e.stage) << " when the system drained at cycle "
           << drained;
        want.push_back(os.str());
    }
    EXPECT_EQ(audit.failures(), want);
}

TEST(Audit, LifecycleCountsBalanceOnCleanRun)
{
    GpuConfig cfg = auditedConfig(AuditLevel::EndOfRun);
    Workload wl(tinyApp());
    wl.bindGrid(12 * cfg.num_sms);
    GpuSystem gpu(cfg, DesignConfig::caba(), wl.lineGenerator());
    gpu.launch(&wl, 12);
    gpu.run();
    EXPECT_GT(gpu.audit().injected(), 0u);
    EXPECT_EQ(gpu.audit().injected(), gpu.audit().retired());
    EXPECT_EQ(gpu.audit().liveRequests(), 0u);
}

} // namespace
} // namespace caba
