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

    for (auto &sm : sms_)
        clocked_.push_back(sm.get());
    clocked_.push_back(&req_net_);
    clocked_.push_back(&reply_net_);
    for (auto &part : partitions_)
        clocked_.push_back(part.get());

    ticked_ = cfg_.ticked || !eventDrivenEnvOn();
    // Every component is due at cycle 0, with no idle span to charge.
    wake_.assign(clocked_.size(), now_);
    acct_.assign(clocked_.size(), now_);

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
GpuSystem::launch(const KernelInfo *kernel, int warps_per_sm)
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

template <typename CompFn, typename Work>
void
GpuSystem::timed(CompFn comp, prof::Phase phase, Work work)
{
    if (!prof_on_) {
        work();
        return;
    }
    const std::int64_t t0 = prof::nowNs();
    work();
    prof_.add(comp(), phase, prof::nowNs() - t0);
}

prof::Comp
GpuSystem::compClassOf(std::size_t i) const
{
    const std::size_t n_sms = sms_.size();
    if (i < n_sms)
        return prof::Comp::Sm;
    if (i == n_sms)
        return prof::Comp::XbarReq;
    if (i == n_sms + 1)
        return prof::Comp::XbarReply;
    return prof::Comp::Partition;
}

bool
GpuSystem::done() const
{
    for (const Clocked *c : clocked_)
        if (c->busy())
            return false;
    return true;
}

void
GpuSystem::catchUp(std::size_t i, Cycle to)
{
    if (acct_[i] < to) {
        // The span [acct_[i], to) had no cycle() call and no incoming
        // traffic, so the component's state is exactly what it was at
        // acct_[i]; one deferred skipIdle() charges the same accounting
        // the per-cycle path would have accumulated.
        clocked_[i]->skipIdle(acct_[i], to);
        acct_[i] = to;
    }
}

void
GpuSystem::wakeForTraffic(std::size_t i)
{
    // SMs (clocked_ indices below num_sms) cycle before the wire phase:
    // traffic landing at now_ is seen by their cycle(now_ + 1). The
    // crossbars and partitions cycle after the wire phase and must run
    // this very cycle, exactly as the ticked oracle runs them.
    // Catch-up must precede the push (see catchUp()).
    const Cycle at = i < sms_.size() ? now_ + 1 : now_;
    catchUp(i, at);
    wake_[i] = std::min(wake_[i], at);
}

void
GpuSystem::pumpWires()
{
    // Taking from a source can unblock its owner (a full crossbar
    // output gates arbitration) just as accepting gives the destination
    // work, so a link that can move wakes both owners before it drains.
    auto drain = [this](std::size_t src, std::size_t dst, auto can_move,
                        auto move_one) {
        if (!can_move())
            return;
        wakeForTraffic(src);
        wakeForTraffic(dst);
        do {
            move_one();
        } while (can_move());
    };
    const std::size_t req_owner = sms_.size();
    const std::size_t reply_owner = req_owner + 1;
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        const int port = static_cast<int>(s);
        Channel<MemRequest> &out = sms_[s]->out();
        drain(
            s, req_owner,
            [&] { return !out.empty() && req_net_.canPush(port); },
            [&] {
                const MemRequest req = out.take();
                req_net_.push(port, partitionOf(req.line), req);
            });
    }
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
        const int port = static_cast<int>(p);
        MemoryPartition &part = *partitions_[p];
        const std::size_t part_owner = reply_owner + 1 + p;
        drain(
            req_owner, part_owner,
            [&] {
                return req_net_.hasDelivery(port, now_) && part.canAccept();
            },
            [&] { part.accept(req_net_.popDelivery(port), now_); });
        drain(
            part_owner, reply_owner,
            [&] {
                return !part.replies().empty() && reply_net_.canPush(port);
            },
            [&] {
                // Replies return to their originating SM.
                const MemRequest reply = part.replies().take();
                reply_net_.push(port, reply.src_sm, reply);
            });
    }
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        const int port = static_cast<int>(s);
        // An SM takes every reply.
        drain(
            reply_owner, s,
            [&] { return reply_net_.hasDelivery(port, now_); },
            [&] { sms_[s]->deliver(reply_net_.popDelivery(port), now_); });
    }
}

void
GpuSystem::step()
{
    const std::size_t n_sms = sms_.size();
    auto run_component = [this](std::size_t i) {
        if (wake_[i] > now_)
            return;
        Clocked *c = clocked_[i];
        const auto cls = [this, i] { return compClassOf(i); };
        // The wire-phase wake catch-ups are charged to Wire; this one
        // covers a component woken by its own schedule.
        if (acct_[i] < now_)
            timed(cls, prof::Phase::CatchUp, [&] { catchUp(i, now_); });
        timed(cls, prof::Phase::Cycle, [&] { c->cycle(now_); });
        acct_[i] = now_ + 1;
        wake_[i] = ticked_ ? now_ + 1 : c->nextWork(now_ + 1);
    };
    for (std::size_t i = 0; i < n_sms; ++i)
        run_component(i);
    timed([] { return prof::Comp::Wire; }, prof::Phase::Cycle,
          [this] { pumpWires(); });
    for (std::size_t i = n_sms; i < clocked_.size(); ++i)
        run_component(i);
    ++now_;
}

RunResult
GpuSystem::run()
{
    // loop/cycle is inclusive wall time for the whole run: the gap to
    // the sum of the component buckets is the loop's own overhead.
    timed([] { return prof::Comp::Loop; }, prof::Phase::Cycle, [this] {
        // Timeline samples and periodic audits count steps (rather than
        // test now_ % interval) so a mid-run caller of step() cannot
        // desynchronize their cadence.
        Cycle until_sample = cfg_.sample_interval;
        Cycle until_audit = audit_.config().period;
        while (!done()) {
            step();
            CABA_CHECK(now_ < cfg_.max_cycles,
                       "simulation exceeded max_cycles");
            if (cfg_.sample_interval > 0 && --until_sample == 0) {
                until_sample = cfg_.sample_interval;
                timeline_.push_back(sampleNow());
            }
            if (audit_.periodic() && --until_audit == 0) {
                until_audit = audit_.config().period;
                runAudit(false);
            }
        }
        // Settle the deferred idle accounting of anything still asleep
        // (e.g. retired SMs accumulating throttle-window history).
        for (std::size_t i = 0; i < clocked_.size(); ++i) {
            if (acct_[i] < now_) {
                timed([this, i] { return compClassOf(i); },
                      prof::Phase::CatchUp, [&] { catchUp(i, now_); });
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
    // identical in both run-loop modes except the event-queue depth
    // (the components with a wake time: it measures the schedule
    // itself, and the ticked oracle keeps every component scheduled).
    if (trace::on(trace::kCounter)) {
        const auto scheduled = std::count_if(
            wake_.begin(), wake_.end(),
            [](Cycle t) { return t != kNoWork; });
        trace::counter(trace::kCounter, trace::kPidCounter, 0,
                       "event_queue_depth", now_,
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
