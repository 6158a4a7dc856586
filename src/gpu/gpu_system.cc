#include "gpu/gpu_system.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/env.h"
#include "common/log.h"
#include "common/trace.h"

namespace caba {

namespace {

/** Applies the bandwidth scale to the per-burst bus time. */
DramConfig
scaledDram(DramConfig dram, double bw_scale)
{
    CABA_CHECK(bw_scale > 0.0, "bandwidth scale must be positive");
    const double q = static_cast<double>(dram.burst_quarters) / bw_scale;
    dram.burst_quarters = std::max(1, static_cast<int>(std::lround(q)));
    return dram;
}

/** CABA_EVENT_DRIVEN=0 selects the ticked oracle (the CI determinism
 *  smoke test diffs both modes). Read once: GpuSystems are built on
 *  sweep worker threads where getenv is not reliably safe. */
bool
eventDrivenEnvOn()
{
    static const bool on = env::intOr("CABA_EVENT_DRIVEN", 0, 1, 1) != 0;
    return on;
}

} // namespace

GpuSystem::GpuSystem(const GpuConfig &cfg, const DesignConfig &design,
                     LineGenerator gen)
    : cfg_(cfg), design_(design), audit_(AuditConfig::resolve(cfg.audit)),
      backing_(std::move(gen)),
      aws_({cfg.sm.alu_latency, cfg.sm.l1_latency}),
      req_net_(cfg.num_sms, cfg.num_partitions, cfg.xbar, 0),
      reply_net_(cfg.num_partitions, cfg.num_sms, cfg.xbar, 100)
{
    // Sampled per construction (not once per process) so tests can flip
    // CABA_PROF between runs; sweeps never mutate env mid-run.
    prof_on_ = prof::enabledEnv();
    if (design_.usesCompression()) {
        model_ = std::make_unique<CompressionModel>(backing_, design_.algo,
                                                    cfg_.verify_data);
    }

    PartitionConfig pcfg = cfg_.partition;
    pcfg.dram = scaledDram(pcfg.dram, cfg_.bw_scale);
    pcfg.dram.channels = cfg_.num_partitions;

    for (int i = 0; i < cfg_.num_sms; ++i) {
        sms_.push_back(std::make_unique<SmCore>(
            i, cfg_.sm, design_, cfg_.caba, cfg_.extras, &aws_,
            model_.get(), &backing_));
    }
    for (int i = 0; i < cfg_.num_partitions; ++i) {
        partitions_.push_back(std::make_unique<MemoryPartition>(
            i, pcfg, design_, model_.get()));
    }

    ticked_ = cfg_.ticked || !eventDrivenEnvOn();
    // Every SM is due at cycle 0, with no idle span to charge.
    wake_.assign(sms_.size(), now_);
    acct_.assign(sms_.size(), now_);

    if (audit_.enabled()) {
        for (auto &sm : sms_)
            sm->attachAudit(&audit_);
        req_net_.attachAudit(&audit_, ReqStage::XbarReq);
        reply_net_.attachAudit(&audit_, ReqStage::XbarReply);
        for (auto &part : partitions_)
            part->attachAudit(&audit_);
    }
}

void
GpuSystem::injectFault(AuditFault fault)
{
    switch (fault) {
      case AuditFault::DropStorePacket:
        req_net_.faultDropNextStore();
        break;
      case AuditFault::DoubleCountBurst:
        partitions_.front()->faultDoubleCountNextBurst();
        break;
      case AuditFault::LeakLoadSlot:
        sms_.front()->faultLeakNextLoadSlot();
        break;
    }
}

void
GpuSystem::runAudit(bool at_drain)
{
    if (!audit_.enabled())
        return;
    for (const auto &sm : sms_)
        sm->audit(audit_, at_drain);
    req_net_.audit(audit_, "xbar_req", at_drain);
    reply_net_.audit(audit_, "xbar_reply", at_drain);
    for (const auto &part : partitions_)
        part->audit(audit_, at_drain);
    if (model_)
        model_->audit(audit_);
    audit_.checkLifecycle(now_, at_drain);
    if (!audit_.failures().empty() && audit_.config().fatal) {
        for (const std::string &msg : audit_.failures())
            std::fprintf(stderr, "CABA_AUDIT failure: %s\n", msg.c_str());
        CABA_PANIC("CABA_AUDIT invariant violation (see stderr)");
    }
}

void
GpuSystem::launch(const Workload *kernel, int warps_per_sm)
{
    // Blocks/warps distribute round-robin across SMs (hardware block
    // scheduler behaviour): SM i runs global warps i, i+N, i+2N, ...
    for (int i = 0; i < cfg_.num_sms; ++i) {
        sms_[static_cast<std::size_t>(i)]->launch(kernel, warps_per_sm, i,
                                                  cfg_.num_sms);
    }
}

int
GpuSystem::partitionOf(Addr line) const
{
    // 256-byte interleave across partitions, GPGPU-Sim style.
    return static_cast<int>((line >> 8) % cfg_.num_partitions);
}

template <typename Work>
void
GpuSystem::timed(prof::Comp comp, prof::Phase phase, Work work)
{
    if (!prof_on_) {
        work();
        return;
    }
    const std::int64_t t0 = prof::nowNs();
    work();
    prof_.add(comp, phase, prof::nowNs() - t0);
}

bool
GpuSystem::done() const
{
    for (const auto &sm : sms_)
        if (sm->busy())
            return false;
    if (req_net_.busy() || reply_net_.busy())
        return false;
    for (const auto &part : partitions_)
        if (part->busy())
            return false;
    return true;
}

void
GpuSystem::catchUp(std::size_t s, Cycle to)
{
    if (acct_[s] < to) {
        // The span [acct_[s], to) had no cycle() call and no traffic in
        // or out, so the SM's state is exactly what it was at acct_[s];
        // one deferred skipIdle() charges the same accounting the
        // per-cycle path would have accumulated.
        sms_[s]->skipIdle(acct_[s], to);
        acct_[s] = to;
    }
}

void
GpuSystem::pumpWires()
{
    // SMs cycle before the wire phase, so an SM reacts to traffic moved
    // at now_ in its cycle(now_ + 1): a take from its out-queue can end
    // an LDST replay stall, and a reply is a fill. Its catch-up must
    // precede the move (see catchUp()).
    auto wake_sm = [this](std::size_t s) {
        catchUp(s, now_ + 1);
        wake_[s] = std::min(wake_[s], now_ + 1);
    };
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        const int port = static_cast<int>(s);
        Ring<MemRequest> &out = sms_[s]->out();
        if (out.empty() || !req_net_.canPush(port))
            continue;
        wake_sm(s);
        do {
            const MemRequest req = out.take();
            req_net_.push(port, partitionOf(req.line), req);
        } while (!out.empty() && req_net_.canPush(port));
    }
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
        const int port = static_cast<int>(p);
        MemoryPartition &part = *partitions_[p];
        while (req_net_.hasDelivery(port, now_) && part.canAccept())
            part.accept(req_net_.popDelivery(port), now_);
        while (!part.replies().empty() && reply_net_.canPush(port)) {
            // Replies return to their originating SM.
            const MemRequest reply = part.replies().take();
            reply_net_.push(port, reply.src_sm, reply);
        }
    }
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        const int port = static_cast<int>(s);
        if (!reply_net_.hasDelivery(port, now_))
            continue;
        // An SM takes every reply.
        wake_sm(s);
        do {
            sms_[s]->deliver(reply_net_.popDelivery(port), now_);
        } while (reply_net_.hasDelivery(port, now_));
    }
}

void
GpuSystem::step()
{
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        if (wake_[s] > now_)
            continue;
        SmCore &sm = *sms_[s];
        // The wire-phase wake catch-ups are charged to Wire; this one
        // covers an SM woken by its own schedule.
        if (acct_[s] < now_) {
            timed(prof::Comp::Sm, prof::Phase::CatchUp,
                  [&] { catchUp(s, now_); });
        }
        timed(prof::Comp::Sm, prof::Phase::Cycle, [&] { sm.cycle(now_); });
        acct_[s] = now_ + 1;
        wake_[s] = ticked_ ? now_ + 1 : sm.nextWork(now_ + 1);
    }
    timed(prof::Comp::Wire, prof::Phase::Cycle, [this] { pumpWires(); });
    // The crossbars and partitions cycle on every clock, after the wire
    // phase, so traffic it moves into them is seen this very cycle.
    timed(prof::Comp::XbarReq, prof::Phase::Cycle,
          [this] { req_net_.cycle(now_); });
    timed(prof::Comp::XbarReply, prof::Phase::Cycle,
          [this] { reply_net_.cycle(now_); });
    for (auto &part : partitions_) {
        timed(prof::Comp::Partition, prof::Phase::Cycle,
              [&] { part->cycle(now_); });
    }
    ++now_;
}

RunResult
GpuSystem::run()
{
    // loop/cycle is inclusive wall time for the whole run: the gap to
    // the sum of the component buckets is the loop's own overhead.
    timed(prof::Comp::Loop, prof::Phase::Cycle, [this] {
        // Timeline samples and periodic audits count steps (rather than
        // test now_ % interval) so a mid-run caller of step() cannot
        // desynchronize their cadence.
        Cycle until_sample = cfg_.sample_interval;
        Cycle until_audit = audit_.config().period;
        // Safety valve against a wedged simulation.
        constexpr Cycle kMaxCycles = 20'000'000;
        while (!done()) {
            step();
            CABA_CHECK(now_ < kMaxCycles, "simulation exceeded kMaxCycles");
            if (cfg_.sample_interval > 0 && --until_sample == 0) {
                until_sample = cfg_.sample_interval;
                timeline_.push_back(sampleNow());
            }
            if (audit_.periodic() && --until_audit == 0) {
                until_audit = audit_.config().period;
                runAudit(false);
            }
        }
        // Settle the deferred idle accounting of any SM still asleep
        // (e.g. a retired SM accumulating throttle-window history).
        for (std::size_t s = 0; s < sms_.size(); ++s) {
            if (acct_[s] < now_) {
                timed(prof::Comp::Sm, prof::Phase::CatchUp,
                      [&] { catchUp(s, now_); });
            }
        }
        if (cfg_.sample_interval > 0)
            timeline_.push_back(sampleNow());   // final state
        runAudit(true);
    });
    if (prof_on_)
        prof_.flush();
    return collect();
}

TimeSample
GpuSystem::sampleNow() const
{
    // Counter tracks ride the timeline cadence, so the track is
    // identical in both run-loop modes except scheduled_sms (the SMs
    // with a wake time: it measures the schedule itself, and the ticked
    // oracle keeps every SM scheduled).
    if (trace::on(trace::kCounter)) {
        const auto scheduled = std::count_if(
            wake_.begin(), wake_.end(),
            [](Cycle t) { return t != kNoWork; });
        trace::counter(trace::kCounter, trace::kPidCounter, 0,
                       "scheduled_sms", now_,
                       static_cast<std::uint64_t>(scheduled));
        for (std::size_t i = 0; i < sms_.size(); ++i) {
            trace::counter(trace::kCounter, trace::kPidCounter,
                           static_cast<int>(i), "issuable_warps", now_,
                           static_cast<std::uint64_t>(
                               sms_[i]->issuableWarps()));
        }
        for (std::size_t p = 0; p < partitions_.size(); ++p) {
            trace::counter(trace::kCounter, trace::kPidCounter,
                           static_cast<int>(p), "dram_read_queue", now_,
                           static_cast<std::uint64_t>(
                               partitions_[p]->dram().readQueueDepth()));
        }
    }
    TimeSample t;
    t.cycle = now_;
    for (const auto &sm : sms_)
        t.instructions += sm->instructionsIssued();
    for (const auto &part : partitions_)
        t.dram_bursts += part->dram().totalBursts();
    return t;
}

RunResult
GpuSystem::collect() const
{
    RunResult r;
    r.cycles = now_;
    r.timeline = timeline_;

    auto merge_prefixed = [&](const StatSet &src, const std::string &prefix) {
        r.stats.mergePrefixed(src, prefix);
    };

    for (const auto &sm : sms_) {
        r.instructions += sm->instructionsIssued();
        merge_prefixed(sm->stats(), "sm_");
        merge_prefixed(sm->l1().stats(), "l1_");
        merge_prefixed(sm->awc().stats(), "awc_");
    }

    double bw = 0.0;
    for (const auto &part : partitions_) {
        bw += part->dramBusUtilization(r.cycles);
        merge_prefixed(part->stats(), "part_");
        merge_prefixed(part->l2().stats(), "l2_");
        merge_prefixed(part->dram().stats(), "dram_");
        merge_prefixed(part->mdCache().stats(), "md_");
    }
    r.bw_utilization = bw / static_cast<double>(cfg_.num_partitions);

    const double md_hits = static_cast<double>(r.stats.get("md_hits"));
    const double md_total =
        md_hits + static_cast<double>(r.stats.get("md_misses"));
    r.md_hit_rate = md_total > 0.0 ? md_hits / md_total : 0.0;

    merge_prefixed(req_net_.stats(), "xbar_req_");
    merge_prefixed(reply_net_.stats(), "xbar_reply_");

    if (model_)
        merge_prefixed(model_->stats(), "model_");

    const double comp = static_cast<double>(
        r.stats.get("part_transfer_bursts"));
    const double uncomp = static_cast<double>(
        r.stats.get("part_transfer_bursts_uncompressed"));
    r.compression_ratio = comp > 0.0 ? uncomp / comp : 1.0;

    r.ipc = r.cycles > 0
        ? static_cast<double>(r.instructions) / static_cast<double>(r.cycles)
        : 0.0;
    r.energy = computeEnergy(r.stats, r.cycles);
    return r;
}

} // namespace caba
