/**
 * @file
 * Crossbar interconnect between SMs and memory partitions (Table 1: one
 * crossbar per direction, 15x6, core clock). Each output port moves one
 * 32-byte flit per cycle, so compressed packets (fewer flits) free port
 * time — the effect that separates HW-BDI from HW-BDI-Mem in Figure 7.
 * The crossbar does not route: GpuSystem's wire phase pushes each packet
 * into an input together with its output port, and pops ready
 * deliveries off the outputs. GpuSystem cycles both directions on every
 * clock; a direction with no queued packet returns at once.
 */
#ifndef CABA_MEM_XBAR_H
#define CABA_MEM_XBAR_H

#include <cstdint>
#include <vector>

#include "common/audit.h"
#include "common/ring.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/request.h"

namespace caba {

/** Crossbar geometry. */
struct XbarConfig
{
    int latency = 8;            ///< Port-to-port latency in cycles.
    int input_queue = 16;       ///< Packets buffered per input port.
    int output_queue = 16;      ///< Packets buffered at each destination.
};

/**
 * One direction of the crossbar: @p inputs input ports (at most 64),
 * @p outputs output ports, per-output round-robin arbitration at packet
 * granularity, output-port occupancy proportional to flit count. Each
 * output keeps a bitmask of the inputs whose head packet targets it, so
 * a round-robin pick is a rotated find-first-set. An arbitrated packet
 * goes straight into its output queue, stamped with the cycle its last
 * flit arrives, so one queue per output holds the packets in flight and
 * the delivered ones alike.
 */
class XbarDirection
{
  public:
    /** @p trace_tid_base offsets output-port tids in trace output so
     *  the request and reply directions land on distinct rows. */
    XbarDirection(int inputs, int outputs, const XbarConfig &cfg,
                  int trace_tid_base = 0);

    /** True when input port @p in can take another packet. */
    bool canPush(int in) const;

    /** Enqueues @p req at input @p in, destined to output @p out. */
    void push(int in, int out, const MemRequest &req);

    /** Advances one cycle: arbitration + transfers. */
    void cycle(Cycle now);

    /** True when output @p out has a delivered packet ready: its last
     *  flit arrived before cycle @p now. */
    bool hasDelivery(int out, Cycle now) const;

    /** Pops the next delivered packet at output @p out. */
    MemRequest popDelivery(int out);

    /** True while any packet is queued, in flight or undelivered. */
    bool busy() const;

    /** Assembles the counter snapshot (packets, flits). */
    StatSet stats() const;

    /** Registers the lifecycle audit; packets entering this direction
     *  are tagged with @p stage (request vs reply side). */
    void
    attachAudit(Audit *audit, ReqStage stage)
    {
        audit_ = audit;
        stage_ = stage;
    }

    /** Mutation self-test hook: silently lose the next write packet
     *  pushed into any input (simulates a buggy switch). */
    void faultDropNextStore() { fault_drop_next_store_ = true; }

    /** Packet conservation: pushed == arbitrated + input-queued,
     *  arbitrated == popped + output-queued; empty at drain. */
    void audit(Audit &a, const char *name, bool at_drain) const;

  private:
    /** A packet in an output queue and the cycle its last flit arrives
     *  (the wire phase of the cycle after sees it). */
    struct OutPacket
    {
        MemRequest req;
        Cycle arrives = 0;
    };

    /** Input @p in's head packet now targets @p new_out instead of
     *  @p old_out; -1 on either side means no head (empty queue). */
    void setHead(int in, int old_out, int new_out);

    XbarConfig cfg_;
    int inputs_;
    int outputs_;
    int trace_tid_base_;
    std::vector<Ring<std::pair<int, MemRequest>>> in_q_;
    /** Per output: bit i set iff input i's head packet targets it. */
    std::vector<std::uint64_t> head_mask_;
    std::vector<Cycle> port_busy_until_;
    std::vector<int> rr_;
    /** Per output, in arbitration order, which is also arrival order:
     *  a port starts a packet only after its previous one's flits. */
    std::vector<Ring<OutPacket>> out_q_;
    int queued_packets_ = 0;

    // counters (hot path: plain members, assembled by stats())
    std::uint64_t packets_ = 0;
    std::uint64_t flits_ = 0;

    Audit *audit_ = nullptr;
    ReqStage stage_ = ReqStage::XbarReq;
    bool fault_drop_next_store_ = false;

    // conservation counters (not exported in stats_): the audit checks
    // them, and arbitrated_ - popped_ is the output-queued count busy()
    // reads
    std::uint64_t pushed_ = 0;
    std::uint64_t arbitrated_ = 0;
    std::uint64_t popped_ = 0;
};

} // namespace caba

#endif // CABA_MEM_XBAR_H
