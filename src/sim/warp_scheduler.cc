#include "sim/warp_scheduler.h"

#include <algorithm>

#include "common/log.h"

namespace caba {

WarpScheduler::WarpScheduler(int max_warps, int schedulers,
                             int ibuffer_entries, int decode_width)
    : max_warps_(max_warps), schedulers_(schedulers),
      ibuffer_entries_(ibuffer_entries), decode_width_(decode_width),
      greedy_warp_(static_cast<std::size_t>(schedulers), kInvalidWarp),
      decode_rr_(static_cast<std::size_t>(schedulers), 0),
      parity_mask_(static_cast<std::size_t>(schedulers), 0)
{
    CABA_CHECK(schedulers_ >= 1, "need at least one scheduler");
    CABA_CHECK(max_warps_ >= 1 && max_warps_ <= 64,
               "selection bitsets support at most 64 warps per SM");
    warps_.resize(static_cast<std::size_t>(max_warps));
    for (int w = 0; w < max_warps_; ++w)
        parity_mask_[static_cast<std::size_t>(w % schedulers_)] |=
            std::uint64_t{1} << w;
}

void
WarpScheduler::launch(const Workload *kernel, int num_warps,
                      int warp_global_base, int warp_global_stride)
{
    CABA_CHECK(kernel, "null kernel");
    CABA_CHECK(num_warps > 0 && num_warps <= max_warps_,
               "bad warp count for launch");
    CABA_CHECK(kernel->program().numRegs() <= 64,
               "scoreboard supports at most 64 registers per thread");
    kernel_ = kernel;
    live_warps_ = num_warps;
    for (int w = 0; w < num_warps; ++w) {
        WarpState &ws = warps_[static_cast<std::size_t>(w)];
        ws = WarpState{};
        ws.exists = true;
        ws.global_id = warp_global_base + w * warp_global_stride;
        ws.trips_left = std::max(1, kernel->iterations(ws.global_id));
    }
    issuable_ = blocked_ = mem_blocked_ = live_ = decodable_ =
        head_global_ = 0;
    for (int w = 0; w < max_warps_; ++w)
        refreshWarp(w);
}

void
WarpScheduler::decodeOneWarp(WarpState &w)
{
    const Program &prog = kernel_->program();
    for (int n = 0; n < decode_width_; ++n) {
        if (w.decode_done ||
            static_cast<int>(w.ibuf.size()) >= ibuffer_entries_) {
            return;
        }
        const Instruction &inst = prog.at(w.pc);
        w.ibuf.push({&inst, w.iter});
        if (inst.op == Opcode::Branch) {
            // Back-edge resolves at decode: trip counters are explicit.
            --w.trips_left;
            if (w.trips_left > 0) {
                w.pc = inst.branch_target;
                ++w.iter;
            } else {
                ++w.pc;
            }
        } else if (inst.op == Opcode::Exit) {
            w.decode_done = true;
        } else {
            ++w.pc;
        }
    }
}

void
WarpScheduler::decodeCycle()
{
    if (!kernel_)
        return;
    const int slots = max_warps_ / schedulers_;
    for (int s = 0; s < schedulers_; ++s) {
        // Round-robin pick of one warp of this scheduler's parity: the
        // first decodable warp at or after the rotation point, wrapping.
        const std::size_t si = static_cast<std::size_t>(s);
        const std::uint64_t cand = decodable_ & parity_mask_[si];
        if (cand == 0)
            continue;
        const int start_w = decode_rr_[si] * schedulers_ + s;
        const std::uint64_t hi = cand & (~std::uint64_t{0} << start_w);
        const int w = std::countr_zero(hi != 0 ? hi : cand);
        decodeOneWarp(warps_[static_cast<std::size_t>(w)]);
        refreshWarp(w);
        decode_rr_[si] = (w / schedulers_ + 1) % slots;
    }
}

bool
WarpScheduler::warpReady(const WarpState &w) const
{
    if (!w.exists || w.done || w.ibuf.empty())
        return false;
    return frontReady(w);
}

bool
WarpScheduler::anyDecodable() const
{
    return kernel_ != nullptr && decodable_ != 0;
}

} // namespace caba
