#include "common/audit.h"

#include <climits>
#include <sstream>
#include <vector>

#include "common/env.h"
#include "common/log.h"
#include "common/parse.h"

namespace caba {

namespace {

/** CABA_AUDIT, read once (sweep workers construct GpuSystems from many
 *  threads; getenv after startup is not reliably thread-safe). */
const char *
auditEnv()
{
    static const char *const spec = env::raw("CABA_AUDIT");
    return spec;
}

} // namespace

AuditConfig
AuditConfig::applySpec(AuditConfig base, const char *spec)
{
    if (!spec || !*spec)
        return base;
    const std::string s(spec);
    if (s == "off") {
        base.level = AuditLevel::Off;
        return base;
    }
    if (s == "end") {
        base.level = AuditLevel::EndOfRun;
        return base;
    }
    if (s == "full") {
        base.level = AuditLevel::Periodic;
        return base;
    }
    long period = 0;
    if (!parse::boundedInt(s, 1, LONG_MAX, &period))
        env::reject("CABA_AUDIT", spec, "off|end|full|<period-cycles>");
    base.level = AuditLevel::Periodic;
    base.period = static_cast<Cycle>(period);
    return base;
}

AuditConfig
AuditConfig::resolve(AuditConfig base)
{
    if (base.ignore_env)
        return base;
    return applySpec(base, auditEnv());
}

Audit::Audit(const AuditConfig &cfg) : cfg_(cfg)
{
    if (periodic())
        CABA_CHECK(cfg_.period > 0, "periodic audit needs a period");
}

const char *
reqStageName(ReqStage s)
{
    switch (s) {
      case ReqStage::Injected: return "injected";
      case ReqStage::XbarReq: return "xbar_req";
      case ReqStage::AtPartition: return "at_partition";
      case ReqStage::DramWait: return "dram_wait";
      case ReqStage::Replied: return "replied";
      case ReqStage::XbarReply: return "xbar_reply";
    }
    return "unknown";
}

void
Audit::fail(std::string msg)
{
    failures_.push_back(std::move(msg));
}

void
Audit::checkEq(const char *where, const char *what, std::uint64_t lhs,
               std::uint64_t rhs)
{
    if (lhs == rhs)
        return;
    std::ostringstream os;
    os << where << ": " << what << " (" << lhs << " != " << rhs << ")";
    fail(os.str());
}

void
Audit::checkLe(const char *where, const char *what, std::uint64_t lhs,
               std::uint64_t rhs)
{
    if (lhs <= rhs)
        return;
    std::ostringstream os;
    os << where << ": " << what << " (" << lhs << " > " << rhs << ")";
    fail(os.str());
}

void
Audit::checkTrue(const char *where, const char *what, bool ok)
{
    if (ok)
        return;
    std::ostringstream os;
    os << where << ": " << what;
    fail(os.str());
}

void
Audit::checkLifecycle(Cycle now, bool at_drain)
{
    checkEq("lifecycle", "injected == retired + live", injected_,
            retired_ + static_cast<std::uint64_t>(live_.size()));
    if (!at_drain)
        return;
    // Report orphans in key order, never in table-slot order.
    for (const std::uint64_t k : live_.sortedKeys()) {
        const Tracked &t = *live_.find(k);
        std::ostringstream os;
        os << "lifecycle: orphan request (id " << (k >> 8) << ", SM "
           << (k & 0xff) << ", " << (t.is_write ? "store" : "load")
           << " of line 0x" << std::hex << t.line << std::dec
           << ") injected at cycle " << t.injected
           << " still at stage " << reqStageName(t.stage)
           << " when the system drained at cycle " << now;
        fail(os.str());
    }
}

} // namespace caba
