/**
 * @file
 * gem5-style self-consistency audits. The determinism machinery proves a
 * run is *repeatable*; the audit layer proves it is *self-consistent*:
 * every MemRequest injected by an SM is tracked to retirement (zero
 * orphans at drain), and stat identities that must hold by construction
 * (hits + misses == accesses, packet conservation through the crossbars,
 * burst conservation through the DRAM ledger, AWT triggers ==
 * completions + kills + live) are cross-checked at end of run or every N
 * cycles. The audit reads simulator state but never mutates timing or
 * statistics, so RunResult is bit-identical with audits on or off.
 *
 * Levels (CABA_AUDIT environment variable, or GpuConfig::audit):
 *   off            no auditing
 *   end            checks at drain only (the default; tier-1 cheap)
 *   full           checks every AuditConfig::period cycles and at drain
 *   <N>            checks every N cycles (N >= 1) and at drain
 */
#ifndef CABA_COMMON_AUDIT_H
#define CABA_COMMON_AUDIT_H

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace caba {

/** How often invariants are evaluated. */
enum class AuditLevel : std::uint8_t { Off, EndOfRun, Periodic };

/** Deliberate faults for the mutation self-test (tests/test_audit.cc):
 *  each one simulates a silent bookkeeping bug the audit must catch. */
enum class AuditFault : std::uint8_t
{
    DropStorePacket,    ///< Crossbar loses the next write packet.
    DoubleCountBurst,   ///< Partition counts the next read's bursts twice.
    LeakLoadSlot,       ///< LDST unit never frees the next finished slot.
};

/** Audit knobs (GpuConfig::audit; CABA_AUDIT overrides level/period). */
struct AuditConfig
{
    AuditLevel level = AuditLevel::EndOfRun;

    /** Cycles between in-flight checks at AuditLevel::Periodic. */
    Cycle period = 65536;

    /** Panic on the first failed audit (tests clear this and inspect
     *  Audit::failures() instead). */
    bool fatal = true;

    /** Ignore CABA_AUDIT (tests that pin a level programmatically). */
    bool ignore_env = false;

    /** Applies the CABA_AUDIT environment override (read once). */
    static AuditConfig resolve(AuditConfig base);

    /** Applies one override spec ("off", "end", "full", "<N>") to
     *  @p base. Exposed for tests; a null or empty spec leaves @p base
     *  alone, and any other unknown spec is fatal. */
    static AuditConfig applySpec(AuditConfig base, const char *spec);
};

/** Last place a tracked request was seen alive. */
enum class ReqStage : std::uint8_t
{
    Injected,       ///< Pushed into the SM out-queue.
    XbarReq,        ///< Entered the request crossbar.
    AtPartition,    ///< Accepted by a memory partition.
    DramWait,       ///< Waiting on a DRAM read.
    Replied,        ///< Reply queued at the partition.
    XbarReply,      ///< Reply entered the reply crossbar.
};

const char *reqStageName(ReqStage s);

/**
 * One audit instance per GpuSystem (parallel sweeps each own one).
 * Components call the on*() lifecycle hooks from their hot paths (the
 * live table is a FlatMap, so once it has grown to the peak number of
 * requests in flight the hooks allocate nothing) and implement an
 * audit(Audit&, bool at_drain) method holding their invariant checks,
 * driven by GpuSystem::runAudit().
 */
class Audit
{
  public:
    explicit Audit(const AuditConfig &cfg);

    bool enabled() const { return cfg_.level != AuditLevel::Off; }
    bool periodic() const { return cfg_.level == AuditLevel::Periodic; }
    const AuditConfig &config() const { return cfg_; }

    // -- request lifecycle --
    //
    // Templated on the request type so common/ stays below mem/ in the
    // layer map (DESIGN.md §14): the audit needs only the id / src_sm /
    // line / is_write fields, which any packet-shaped struct provides.

    /** A new request entered the memory system at @p now. */
    template <typename Req>
    void
    onInject(const Req &req, Cycle now)
    {
        if (!enabled())
            return;
        ++injected_;
        const auto [t, fresh] = live_.tryEmplace(key(req));
        if (fresh) {
            t->stage = ReqStage::Injected;
            t->injected = now;
            t->line = req.line;
            t->is_write = req.is_write;
        } else {
            std::ostringstream os;
            os << "lifecycle: duplicate injection of request id " << req.id
               << " from SM " << req.src_sm;
            fail(os.str());
        }
    }

    /** The request was seen alive at @p stage. */
    template <typename Req>
    void
    onStage(const Req &req, ReqStage stage)
    {
        if (!enabled())
            return;
        Tracked *t = live_.find(key(req));
        if (t == nullptr) {
            std::ostringstream os;
            os << "lifecycle: request id " << req.id << " from SM "
               << req.src_sm << " reached stage " << reqStageName(stage)
               << " without being injected";
            fail(os.str());
            return;
        }
        t->stage = stage;
    }

    /** The request left the memory system (reply consumed / store
     *  absorbed). */
    template <typename Req>
    void
    onRetire(const Req &req)
    {
        if (!enabled())
            return;
        if (!live_.erase(key(req))) {
            std::ostringstream os;
            os << "lifecycle: request id " << req.id << " from SM "
               << req.src_sm << " retired twice (or never injected)";
            fail(os.str());
            return;
        }
        ++retired_;
    }

    std::size_t liveRequests() const { return live_.size(); }
    std::uint64_t injected() const { return injected_; }
    std::uint64_t retired() const { return retired_; }

    // -- invariant checks (used by per-subsystem audit() methods) --

    void fail(std::string msg);
    void checkEq(const char *where, const char *what, std::uint64_t lhs,
                 std::uint64_t rhs);
    void checkLe(const char *where, const char *what, std::uint64_t lhs,
                 std::uint64_t rhs);
    void checkTrue(const char *where, const char *what, bool ok);

    /** Orphan check over the lifecycle table: at drain no request may
     *  still be live; injected == retired + live always. */
    void checkLifecycle(Cycle now, bool at_drain);

    const std::vector<std::string> &failures() const { return failures_; }

  private:
    struct Tracked
    {
        Cycle injected = 0;
        Addr line = 0;
        ReqStage stage = ReqStage::Injected;
        bool is_write = false;
    };

    /** Ids are a per-SM sequence, so (id, src_sm) is unique system-wide. */
    template <typename Req>
    static std::uint64_t
    key(const Req &req)
    {
        return (req.id << 8) | static_cast<std::uint64_t>(req.src_sm & 0xff);
    }

    AuditConfig cfg_;
    FlatMap<Tracked> live_;
    std::vector<std::string> failures_;
    std::uint64_t injected_ = 0;
    std::uint64_t retired_ = 0;
};

} // namespace caba

#endif // CABA_COMMON_AUDIT_H
