/**
 * @file
 * Top-level simulated GPU (Table 1): SMs, the two crossbar directions,
 * memory partitions (L2 slice + GDDR5 channel each), the shared
 * compression model, and the run loop that advances everything one core
 * cycle at a time and aggregates the statistics every figure needs.
 *
 * One fixed topology joins the components, and the wire phase of each
 * cycle moves packets over its four links directly: SM out-queues into
 * the request crossbar (routed by partition interleave), request
 * crossbar outputs into the partitions, partition replies into the
 * reply crossbar (routed back to the requesting SM), and reply crossbar
 * outputs into the SMs. The run loop steps the clock one cycle at a
 * time (DESIGN.md section 10). The SMs are the only components that
 * sleep: each SM sleeps until its nextWork() hint or until the wire
 * phase moves traffic to or from it, while both crossbars and every
 * partition cycle on every clock. Ticked mode (GpuConfig::ticked, or
 * CABA_EVENT_DRIVEN=0) is the same loop with every SM due every cycle:
 * the oracle whose results the default schedule must match bit for
 * bit.
 */
#ifndef CABA_GPU_GPU_SYSTEM_H
#define CABA_GPU_GPU_SYSTEM_H

#include <memory>
#include <vector>

#include "caba/aws.h"
#include "common/audit.h"
#include "common/component.h"
#include "common/prof.h"
#include "common/stats.h"
#include "energy/energy_model.h"
#include "compress/design.h"
#include "mem/backing_store.h"
#include "mem/compression_model.h"
#include "mem/partition.h"
#include "mem/xbar.h"
#include "sim/sm_core.h"

namespace caba {

/** Whole-GPU configuration (defaults = Table 1). */
struct GpuConfig
{
    int num_sms = 15;
    int num_partitions = 6;

    SmConfig sm{};
    PartitionConfig partition{};
    XbarConfig xbar{};
    CabaConfig caba{};
    ExtrasConfig extras{};

    /**
     * Off-chip bandwidth scale: 1.0 = the paper's 177.4 GB/s, 0.5 and
     * 2.0 are the Figure 1 / Figure 12 sensitivity points.
     */
    double bw_scale = 1.0;

    /** Round-trip-verify every compressed line (tests on, benches off). */
    bool verify_data = true;

    /**
     * Ticked oracle: every SM cycles every clock, as the crossbars and
     * partitions always do (DESIGN.md section 10). Bit-identical to the
     * default schedule, whose SM sleep it exists to check;
     * CABA_EVENT_DRIVEN=0 selects it too.
     */
    bool ticked = false;

    /** Safety valve against a wedged simulation. */
    Cycle max_cycles = 20'000'000;

    /** Cycles between timeline samples in RunResult (0 = no timeline). */
    Cycle sample_interval = 8192;

    /** Self-consistency audits (CABA_AUDIT overrides level/period).
     *  Audits read state but never touch timing or statistics, so
     *  RunResult is bit-identical at any level. */
    AuditConfig audit{};
};

/** One point of the progress-over-time series sampled during run(). */
struct TimeSample
{
    Cycle cycle = 0;
    std::uint64_t instructions = 0; ///< Cumulative, all SMs.
    std::uint64_t dram_bursts = 0;  ///< Cumulative, all channels.
};

/** Everything the benches and tests read out of one simulation. */
struct RunResult
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    double bw_utilization = 0.0;        ///< Mean DRAM data-bus busy frac.
    double compression_ratio = 1.0;     ///< Uncompressed/compressed bursts.
    double md_hit_rate = 0.0;
    EnergyBreakdown energy;
    StatSet stats;                      ///< Merged, prefixed counters.
    std::vector<TimeSample> timeline;   ///< Sampled progress series.
};

/** The simulated GPU. */
class GpuSystem
{
  public:
    /**
     * @param cfg     hardware configuration
     * @param design  one of the Section 6 design points
     * @param gen     workload data generator (pristine memory image)
     */
    GpuSystem(const GpuConfig &cfg, const DesignConfig &design,
              LineGenerator gen);

    /** Launches @p warps_per_sm warps of @p kernel on every SM. */
    void launch(const KernelInfo *kernel, int warps_per_sm);

    /** Runs to completion (all warps retired, all queues drained). */
    RunResult run();

    /** One cycle of the run loop (exposed for tests): cycles the due
     *  SMs, runs the wire phase, then cycles the request crossbar, the
     *  reply crossbar and every partition. */
    void step();
    Cycle now() const { return now_; }
    bool done() const;

    /**
     * Seeds one deliberate bookkeeping fault (mutation self-test for
     * the audit layer; tests/test_audit.cc). Faults fire on the next
     * matching event in SM 0 / partition 0 / the request crossbar.
     */
    void injectFault(AuditFault fault);

    /**
     * Evaluates every audit invariant now. Called automatically by
     * run() (periodically at AuditLevel::Periodic, always at drain);
     * exposed so tests can audit mid-flight. Panics on failure unless
     * AuditConfig::fatal is cleared.
     */
    void runAudit(bool at_drain);

    /** Failures collected by non-fatal audits. */
    const std::vector<std::string> &auditFailures() const
    {
        return audit_.failures();
    }

    const Audit &audit() const { return audit_; }

    SmCore &sm(int i) { return *sms_[static_cast<std::size_t>(i)]; }
    MemoryPartition &partition(int i)
    {
        return *partitions_[static_cast<std::size_t>(i)];
    }
    BackingStore &backing() { return backing_; }
    CompressionModel *model() { return model_.get(); }

  private:
    int partitionOf(Addr line) const;

    /** Wire phase of step(): drains the four links greedily in drain
     *  order (every SM out-queue; then per partition its ingress and
     *  its replies; then every SM's replies), waking the SM whose
     *  out-queue it takes from or to which it delivers. */
    void pumpWires();

    /** Runs @p work and, when profiling is on, charges its host time to
     *  (@p comp, @p phase). With profiling off it reads no clock. */
    template <typename Work>
    void timed(prof::Comp comp, prof::Phase phase, Work work);

    /** Charges SM @p s's deferred skipIdle() span up to @p to. Must run
     *  before the wire phase moves traffic to or from a sleeping SM:
     *  the span's accounting depends on its frozen pre-move state. */
    void catchUp(std::size_t s, Cycle to);

    RunResult collect() const;
    TimeSample sampleNow() const;

    GpuConfig cfg_;
    DesignConfig design_;
    Audit audit_;
    BackingStore backing_;
    std::unique_ptr<CompressionModel> model_;
    AssistWarpStore aws_;
    std::vector<std::unique_ptr<SmCore>> sms_;
    std::vector<std::unique_ptr<MemoryPartition>> partitions_;
    XbarDirection req_net_;
    XbarDirection reply_net_;

    /** Per-SM wake times: SM s cycles at now_ when wake_[s] <= now_
     *  (kNoWork parks it). */
    std::vector<Cycle> wake_;

    /** First cycle not yet charged to SM s's idle accounting: skipIdle()
     *  for a sleeping SM is deferred until it wakes, so acct_[s] trails
     *  now_ while s sleeps. */
    std::vector<Cycle> acct_;

    /** GpuConfig::ticked or CABA_EVENT_DRIVEN=0: every SM is
     *  rescheduled at now_ + 1 instead of at its nextWork() hint. */
    bool ticked_ = false;

    Cycle now_ = 0;
    std::vector<TimeSample> timeline_;

    /** CABA_PROF sampled at construction (common/prof.h). The profiler
     *  reads host clocks only — never simulation state — so results
     *  are bit-identical with it on or off. */
    bool prof_on_ = false;
    prof::Recorder prof_;
};

} // namespace caba

#endif // CABA_GPU_GPU_SYSTEM_H
