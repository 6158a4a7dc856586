#include "mem/xbar.h"

#include <algorithm>
#include <bit>

#include "common/log.h"
#include "common/trace.h"

namespace caba {

XbarDirection::XbarDirection(int inputs, int outputs, const XbarConfig &cfg,
                             int trace_tid_base)
    : cfg_(cfg), inputs_(inputs), outputs_(outputs),
      trace_tid_base_(trace_tid_base),
      in_q_(inputs), head_mask_(outputs, 0), port_busy_until_(outputs, 0),
      rr_(outputs, 0), out_q_(outputs), flying_per_out_(outputs, 0),
      in_ports_(static_cast<std::size_t>(inputs)),
      out_ports_(static_cast<std::size_t>(outputs))
{
    CABA_CHECK(inputs > 0 && outputs > 0, "bad crossbar geometry");
    CABA_CHECK(inputs <= 64, "head-of-line masks support at most 64 inputs");
    for (int i = 0; i < inputs; ++i) {
        in_ports_[static_cast<std::size_t>(i)].x_ = this;
        in_ports_[static_cast<std::size_t>(i)].in_ = i;
    }
    for (int o = 0; o < outputs; ++o) {
        out_ports_[static_cast<std::size_t>(o)].x_ = this;
        out_ports_[static_cast<std::size_t>(o)].out_ = o;
    }
}

void
XbarDirection::setRouter(std::function<int(const MemRequest &)> router)
{
    router_ = std::move(router);
}

Sink<MemRequest> &
XbarDirection::input(int in)
{
    CABA_CHECK(router_ != nullptr, "crossbar input used without a router");
    return in_ports_[static_cast<std::size_t>(in)];
}

Source<MemRequest> &
XbarDirection::output(int out)
{
    return out_ports_[static_cast<std::size_t>(out)];
}

bool
XbarDirection::canPush(int in) const
{
    return static_cast<int>(in_q_[in].size()) < cfg_.input_queue;
}

void
XbarDirection::push(int in, int out, const MemRequest &req)
{
    CABA_CHECK(canPush(in), "crossbar input overflow");
    CABA_CHECK(out >= 0 && out < outputs_, "bad crossbar output");
    ++pushed_;
    if (audit_)
        audit_->onStage(req, stage_);
    if (fault_drop_next_store_ && req.is_write) {
        // Seeded fault: the packet vanishes after being counted in, the
        // way a real lost-update bug would. The audit must notice.
        fault_drop_next_store_ = false;
        return;
    }
    in_q_[in].emplace_back(out, req);
    if (in_q_[in].size() == 1)
        setHead(in, -1, out);
    ++queued_packets_;
}

void
XbarDirection::setHead(int in, int old_out, int new_out)
{
    const std::uint64_t bit = std::uint64_t{1} << in;
    if (old_out >= 0)
        head_mask_[static_cast<std::size_t>(old_out)] &= ~bit;
    if (new_out >= 0)
        head_mask_[static_cast<std::size_t>(new_out)] |= bit;
}

void
XbarDirection::cycle(Cycle now)
{
    if (flying_.empty() && queued_packets_ == 0)
        return;
    // Deliver in-flight packets whose latency elapsed.
    for (std::size_t i = 0; i < flying_.size();) {
        if (flying_[i].deliver_at <= now) {
            const int out = flying_[i].out;
            out_q_[out].push_back({flying_[i].req, flying_[i].deliver_at});
            --flying_per_out_[out];
            flying_[i] = flying_.back();
            flying_.pop_back();
        } else {
            ++i;
        }
    }

    // Per-output round-robin packet arbitration. The output port is
    // reserved for the packet's flit count; a fresh packet starts only
    // when the port is free and the destination queue has room.
    for (int out = 0; out < outputs_; ++out) {
        if (port_busy_until_[out] > now)
            continue;
        if (static_cast<int>(out_q_[out].size()) + flying_per_out_[out] >=
                cfg_.output_queue) {
            continue;
        }
        // The first input at or after rr_[out] whose head targets
        // this output, wrapping around.
        const std::uint64_t heads = head_mask_[out];
        if (heads == 0)
            continue;
        const std::uint64_t from_rr = heads & (~std::uint64_t{0} << rr_[out]);
        const int in = std::countr_zero(from_rr != 0 ? from_rr : heads);
        auto &q = in_q_[in];
        const MemRequest req = q.front().second;
        q.pop_front();
        setHead(in, out, q.empty() ? -1 : q.front().first);
        --queued_packets_;
        const int flits = req.flits();
        port_busy_until_[out] = now + flits;
        flying_.push_back({req, out, now + flits + cfg_.latency});
        ++flying_per_out_[out];
        ++arbitrated_;
        ++packets_;
        flits_ += static_cast<std::uint64_t>(flits);
        if (trace::on(trace::kXbar)) {
            // Span = output-port occupancy of this packet.
            trace::complete(trace::kXbar, trace::kPidXbar,
                            trace_tid_base_ + out, "packet", now,
                            static_cast<Cycle>(flits), "flits",
                            static_cast<std::uint64_t>(flits));
        }
        rr_[out] = (in + 1) % inputs_;
    }
}

bool
XbarDirection::hasDelivery(int out, Cycle now) const
{
    return !out_q_[out].empty() && out_q_[out].front().at <= now;
}

MemRequest
XbarDirection::popDelivery(int out)
{
    CABA_CHECK(!out_q_[out].empty(), "no delivery to pop");
    MemRequest req = out_q_[out].front().req;
    out_q_[out].pop_front();
    ++popped_;
    return req;
}

int
XbarDirection::outputDepth(int out) const
{
    return static_cast<int>(out_q_[out].size());
}

Cycle
XbarDirection::nextWork(Cycle now) const
{
    // Delivered packets waiting in an output queue pin the clock: the
    // consumer-side Wire drains them in the very next wire phase, and
    // even under backpressure the consumer's unblock cycle is cheaper
    // to over-approximate here than to predict.
    for (const auto &q : out_q_)
        if (!q.empty())
            return now;
    Cycle e = kNoWork;
    for (const InFlight &f : flying_)
        e = std::min(e, f.deliver_at > now ? f.deliver_at : now);
    for (int out = 0; out < outputs_; ++out) {
        if (head_mask_[static_cast<std::size_t>(out)] == 0)
            continue;
        // A full destination (queued + flying >= capacity) unblocks via
        // the flying_ term above or the ready-delivery case; otherwise
        // a head packet can start once the port frees up.
        if (static_cast<int>(out_q_[static_cast<std::size_t>(out)].size()) +
                flying_per_out_[static_cast<std::size_t>(out)] >=
            cfg_.output_queue) {
            continue;
        }
        const Cycle free_at =
            port_busy_until_[static_cast<std::size_t>(out)];
        e = std::min(e, free_at > now ? free_at : now);
    }
    return e;
}

StatSet
XbarDirection::stats() const
{
    // Both keys appear with the first arbitrated packet, never before.
    StatSet s;
    if (packets_ > 0) {
        s.setCounter("packets", packets_);
        s.setCounter("flits", flits_);
    }
    return s;
}

void
XbarDirection::audit(Audit &a, const char *name, bool at_drain) const
{
    std::uint64_t delivered_waiting = 0;
    for (const auto &q : out_q_)
        delivered_waiting += q.size();
    a.checkEq(name, "pushed == arbitrated + input-queued", pushed_,
              arbitrated_ + static_cast<std::uint64_t>(queued_packets_));
    a.checkEq(name, "arbitrated == popped + flying + output-queued",
              arbitrated_,
              popped_ + static_cast<std::uint64_t>(flying_.size()) +
                  delivered_waiting);
    if (at_drain) {
        a.checkEq(name, "all packets popped at drain", pushed_, popped_);
        a.checkTrue(name, "queues empty at drain", !busy());
    }
}

bool
XbarDirection::busy() const
{
    if (!flying_.empty() || queued_packets_ > 0)
        return true;
    for (const auto &q : out_q_)
        if (!q.empty())
            return true;
    return false;
}

} // namespace caba
