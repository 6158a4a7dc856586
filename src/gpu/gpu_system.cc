#include "gpu/gpu_system.h"

#include <algorithm>
#include <cmath>

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

    // 256-byte partition interleave on the request side; replies return
    // to their originating SM.
    req_net_.setRouter(
        [this](const MemRequest &r) { return partitionOf(r.line); });
    reply_net_.setRouter([](const MemRequest &r) { return r.src_sm; });

    // Wire order is the drain order: SM out-queues feed the request
    // crossbar; each partition drains its crossbar output, then pushes
    // replies; the reply crossbar fans back out to the SMs. Each
    // endpoint is tagged with its owning component (as a clocked_ index:
    // SM i -> i, request crossbar -> num_sms, reply crossbar ->
    // num_sms + 1, partition p -> num_sms + 2 + p) so the run loop can
    // wake whatever a pump touches.
    const int req_owner = cfg_.num_sms;
    const int reply_owner = cfg_.num_sms + 1;
    auto add_wire = [this](Source<MemRequest> *src, Sink<MemRequest> *dst,
                           int src_owner, int dst_owner) {
        wires_.push_back({src, dst});
        wire_src_owner_.push_back(src_owner);
        wire_dst_owner_.push_back(dst_owner);
    };
    for (int s = 0; s < cfg_.num_sms; ++s) {
        SmCore &sm = *sms_[static_cast<std::size_t>(s)];
        add_wire(&sm.out(), &req_net_.input(s), s, req_owner);
    }
    for (int p = 0; p < cfg_.num_partitions; ++p) {
        MemoryPartition &part = *partitions_[static_cast<std::size_t>(p)];
        add_wire(&req_net_.output(p), &part, req_owner, reply_owner + 1 + p);
        add_wire(&part.replies(), &reply_net_.input(p), reply_owner + 1 + p,
                 reply_owner);
    }
    for (int s = 0; s < cfg_.num_sms; ++s) {
        SmCore &sm = *sms_[static_cast<std::size_t>(s)];
        add_wire(&reply_net_.output(s), &sm, reply_owner, s);
    }

    for (auto &sm : sms_)
        clocked_.push_back(sm.get());
    clocked_.push_back(&req_net_);
    clocked_.push_back(&reply_net_);
    for (auto &part : partitions_)
        clocked_.push_back(part.get());

    ticked_ = cfg_.ticked || !eventDrivenEnvOn();
    // Every component is due at cycle 0, with no idle span to charge.
    eq_.reset(static_cast<int>(clocked_.size()));
    for (std::size_t i = 0; i < clocked_.size(); ++i)
        eq_.schedule(static_cast<int>(i), now_);
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
    if (eq_.when(static_cast<int>(i)) > at)
        eq_.schedule(static_cast<int>(i), at);
}

void
GpuSystem::pumpWires()
{
    // Taking from a source can unblock its owner (a full crossbar
    // output gates arbitration) just as accepting gives the destination
    // work, so a wire that moves anything wakes both endpoints.
    for (std::size_t wi = 0; wi < wires_.size(); ++wi) {
        Wire<MemRequest> &w = wires_[wi];
        if (!w.canPump(now_))
            continue;
        wakeForTraffic(static_cast<std::size_t>(wire_src_owner_[wi]));
        wakeForTraffic(static_cast<std::size_t>(wire_dst_owner_[wi]));
        w.pump(now_);
    }
}

void
GpuSystem::step()
{
    const std::size_t n_sms = sms_.size();
    auto run_component = [this](std::size_t i) {
        if (!eq_.due(static_cast<int>(i), now_))
            return;
        Clocked *c = clocked_[i];
        if (prof_on_) {
            // The wire-phase wake catch-ups are charged to Wire; the
            // ones below cover components woken by their own schedule.
            const prof::Comp cls = compClassOf(i);
            if (acct_[i] < now_) {
                const std::int64_t t0 = prof::nowNs();
                catchUp(i, now_);
                prof_.add(cls, prof::Phase::CatchUp, prof::nowNs() - t0);
            }
            const std::int64_t t1 = prof::nowNs();
            c->cycle(now_);
            prof_.add(cls, prof::Phase::Cycle, prof::nowNs() - t1);
        } else {
            catchUp(i, now_);
            c->cycle(now_);
        }
        acct_[i] = now_ + 1;
        eq_.schedule(static_cast<int>(i),
                     ticked_ ? now_ + 1 : c->nextWork(now_ + 1));
    };
    for (std::size_t i = 0; i < n_sms; ++i)
        run_component(i);
    if (prof_on_) {
        const std::int64_t t0 = prof::nowNs();
        pumpWires();
        prof_.add(prof::Comp::Wire, prof::Phase::Cycle,
                  prof::nowNs() - t0);
    } else {
        pumpWires();
    }
    for (std::size_t i = n_sms; i < clocked_.size(); ++i)
        run_component(i);
    ++now_;
}

void
GpuSystem::eventJump()
{
    // Every component published its next event when it went to sleep,
    // and pushes always re-arm the destination, so a minimum wake time
    // past now_ means no component can change state before it.
    const Cycle wake = std::min(eq_.minTime(), cfg_.max_cycles);
    if (wake <= now_)
        return;
    // In practice no wire can be pumpable here (data waiting in any
    // endpoint pins its owner awake via nextWork), but the veto is kept
    // as cheap insurance against a source that sleeps on queued data.
    for (const Wire<MemRequest> &w : wires_)
        if (w.canPump(now_))
            return;
    // No skipIdle here: sleeping components are charged lazily when
    // they wake (catchUp), which accumulates the identical spans.
    //
    // Emit the timeline samples the skipped cycles would have produced
    // (counters are frozen across the span, so sampling mid-skip reads
    // the same values a ticked run would).
    Cycle k = wake - now_;
    const Cycle skipped = k;
    if (cfg_.sample_interval > 0) {
        while (until_sample_ <= k) {
            now_ += until_sample_;
            k -= until_sample_;
            until_sample_ = cfg_.sample_interval;
            timeline_.push_back(sampleNow());
        }
        until_sample_ -= k;
    }
    now_ += k;
    // Periodic audits inside the skip collapse to one: the span is
    // quiescent, so every boundary would audit identical frozen state.
    if (audit_.periodic() && until_audit_ > 0) {
        const Cycle period = audit_.config().period;
        if (skipped >= until_audit_) {
            runAudit(false);
            until_audit_ = period - (skipped - until_audit_) % period;
        } else {
            until_audit_ -= skipped;
        }
    }
    // Same wedge detection, same boundary, as the ticked loop.
    CABA_CHECK(now_ < cfg_.max_cycles, "simulation exceeded max_cycles");
}

RunResult
GpuSystem::run()
{
    // loop/cycle is inclusive wall time for the whole run: the gap to
    // the sum of the component buckets is the loop's own overhead.
    const std::int64_t run_t0 = prof_on_ ? prof::nowNs() : 0;
    // Timeline sampling (counter-based rather than now_ % interval so a
    // mid-run caller of step() cannot desynchronize the cadence).
    until_sample_ = cfg_.sample_interval;
    until_audit_ = audit_.config().period;
    while (!done()) {
        if (!ticked_) {
            const std::int64_t t0 = prof_on_ ? prof::nowNs() : 0;
            eventJump();
            if (prof_on_)
                prof_.add(prof::Comp::Loop, prof::Phase::Jump,
                          prof::nowNs() - t0);
        }
        step();
        CABA_CHECK(now_ < cfg_.max_cycles, "simulation exceeded max_cycles");
        if (cfg_.sample_interval > 0 && --until_sample_ == 0) {
            until_sample_ = cfg_.sample_interval;
            timeline_.push_back(sampleNow());
        }
        if (audit_.periodic() && --until_audit_ == 0) {
            until_audit_ = audit_.config().period;
            runAudit(false);
        }
    }
    // Settle the deferred idle accounting of anything still asleep
    // (e.g. retired SMs accumulating throttle-window history).
    for (std::size_t i = 0; i < clocked_.size(); ++i) {
        if (prof_on_ && acct_[i] < now_) {
            const std::int64_t t0 = prof::nowNs();
            catchUp(i, now_);
            prof_.add(compClassOf(i), prof::Phase::CatchUp,
                      prof::nowNs() - t0);
        } else {
            catchUp(i, now_);
        }
    }
    if (cfg_.sample_interval > 0)
        timeline_.push_back(sampleNow());   // final state
    runAudit(true);
    if (prof_on_) {
        prof_.add(prof::Comp::Loop, prof::Phase::Cycle,
                  prof::nowNs() - run_t0);
        prof_.flush();
    }
    return collect();
}

TimeSample
GpuSystem::sampleNow() const
{
    // Counter tracks ride the timeline cadence: eventJump() replays
    // mid-skip samples from frozen state, so the track is identical in
    // both run-loop modes except the event-queue depth (the ids with a
    // wake time: it measures the schedule itself, and the ticked oracle
    // keeps every component scheduled).
    if (trace::on(trace::kCounter)) {
        trace::counter(trace::kCounter, trace::kPidCounter, 0,
                       "event_queue_depth", now_,
                       static_cast<std::uint64_t>(eq_.scheduled()));
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
