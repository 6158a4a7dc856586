#include "caba/awc.h"

#include <algorithm>

#include "common/audit.h"
#include "common/log.h"

namespace caba {

AssistWarpController::AssistWarpController(const CabaConfig &cfg)
    : cfg_(cfg), window_(static_cast<std::size_t>(cfg.throttle_window), 1)
{
    CABA_CHECK(cfg_.awt_entries > 0, "AWT needs entries");
    CABA_CHECK(cfg_.throttle_window > 0, "throttle window must be > 0");
}

bool
AssistWarpController::hasRoom() const
{
    return static_cast<int>(table_.size()) < cfg_.awt_entries;
}

bool
AssistWarpController::trigger(AssistWarp aw)
{
    if (!hasRoom()) {
        ++rejections_;
        return false;
    }
    aw.id = next_id_++;
    CABA_CHECK(aw.code && !aw.code->empty(), "assist warp without code");
    ++triggers_;
    if (aw.priority == AssistPriority::High)
        ++triggers_high_;
    else
        low_ids_.push_back(aw.id);
    table_.push_back(std::move(aw));
    return true;
}

bool
AssistWarpController::eligible(const AssistWarp &aw) const
{
    if (aw.priority == AssistPriority::High)
        return true;
    // AWB staging: only the first awb_low_slots low-priority entries are
    // in the instruction buffer partition. low_ids_ is the table's
    // low-priority subsequence by construction, so holding a staging
    // slot is equivalent to aw.id being among its first awb_low_slots
    // entries -- an O(1) bound check instead of the old AWT scan.
    if (cfg_.awb_low_slots <= 0)
        return false;
    const auto slots = static_cast<std::size_t>(cfg_.awb_low_slots);
    if (low_ids_.size() > slots && aw.id > low_ids_[slots - 1])
        return false;
    if (cfg_.throttle && idleFraction() < cfg_.throttle_idle_floor)
        return false;
    return true;
}

void
AssistWarpController::removeLowId(std::uint64_t id)
{
    auto it = std::lower_bound(low_ids_.begin(), low_ids_.end(), id);
    CABA_CHECK(it != low_ids_.end() && *it == id,
               "low-priority staging order lost an id");
    low_ids_.erase(it);
}

void
AssistWarpController::reapFinished(Cycle now, std::vector<AssistWarp> *out)
{
    for (std::size_t i = 0; i < table_.size();) {
        AssistWarp &aw = table_[i];
        if (aw.finishedIssuing() && aw.ready_at <= now) {
            ++completions_;
            CABA_CHECK(now >= aw.spawned,
                       "assist warp completed before its spawn cycle");
            latency_.record(now - aw.spawned);
            if (aw.priority == AssistPriority::Low)
                removeLowId(aw.id);
            out->push_back(std::move(aw));
            table_.erase(table_.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

int
AssistWarpController::killByToken(std::uint64_t token, AssistPurpose purpose)
{
    int killed = 0;
    for (std::size_t i = 0; i < table_.size();) {
        if (table_[i].token == token && table_[i].purpose == purpose) {
            if (table_[i].priority == AssistPriority::Low)
                removeLowId(table_[i].id);
            table_.erase(table_.begin() + static_cast<std::ptrdiff_t>(i));
            ++killed;
        } else {
            ++i;
        }
    }
    kills_ += static_cast<std::uint64_t>(killed);
    return killed;
}

void
AssistWarpController::noteIssueSlot(bool used)
{
    const std::uint8_t old = window_[static_cast<std::size_t>(window_pos_)];
    const std::uint8_t neu = used ? 1 : 0;
    window_idle_ += (old ? 0 : -1) + (neu ? 0 : 1);
    window_[static_cast<std::size_t>(window_pos_)] = neu;
    window_pos_ = (window_pos_ + 1) % cfg_.throttle_window;
    window_filled_ = std::min(window_filled_ + 1, cfg_.throttle_window);
}

void
AssistWarpController::skipIdleSlots(std::uint64_t slots)
{
    const int w = cfg_.throttle_window;
    if (slots >= static_cast<std::uint64_t>(w)) {
        // The whole window is overwritten with idle entries; only the
        // write position depends on the exact count.
        std::fill(window_.begin(), window_.end(), 0);
        window_idle_ = w;
        window_filled_ = w;
        window_pos_ = static_cast<int>(
            (static_cast<std::uint64_t>(window_pos_) + slots) %
            static_cast<std::uint64_t>(w));
        return;
    }
    // Zero-fill the (possibly wrapped) range [pos, pos + slots): every
    // used entry overwritten there becomes one more idle slot.
    const int n = static_cast<int>(slots);
    const int first = std::min(n, w - window_pos_);
    const auto zero = [&](int from, int count) {
        auto begin = window_.begin() + from;
        window_idle_ += static_cast<int>(
            std::count(begin, begin + count, std::uint8_t{1}));
        std::fill(begin, begin + count, std::uint8_t{0});
    };
    zero(window_pos_, first);
    zero(0, n - first);
    window_pos_ = (window_pos_ + n) % w;
    window_filled_ = std::min(window_filled_ + n, w);
}

void
AssistWarpController::audit(Audit &a) const
{
    a.checkEq("awc", "triggers == completions + kills + live", triggers_,
              completions_ + kills_ +
                  static_cast<std::uint64_t>(table_.size()));
    a.checkLe("awc", "triggers_high <= triggers", triggers_high_, triggers_);
    // The incremental staging order must equal the table's low-priority
    // subsequence (cold path: recompute it and compare).
    std::size_t k = 0;
    bool match = true;
    for (const AssistWarp &aw : table_) {
        if (aw.priority != AssistPriority::Low)
            continue;
        match = match && k < low_ids_.size() && low_ids_[k] == aw.id;
        ++k;
    }
    match = match && k == low_ids_.size();
    a.checkTrue("awc", "staging order matches AWT low subsequence", match);
}

double
AssistWarpController::idleFraction() const
{
    if (window_filled_ == 0)
        return 1.0;
    return static_cast<double>(window_idle_) /
           static_cast<double>(cfg_.throttle_window);
}

} // namespace caba
