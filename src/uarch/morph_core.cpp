#include "morph_core.h"

#include "common/log.h"

namespace smtflex {

MorphCore::MorphCore(const CoreParams &params, const MorphParams &morph,
                     std::uint32_t core_id, std::uint32_t num_contexts,
                     MemorySystem *shared, double chip_freq_ghz)
    : OooCore(params, core_id, num_contexts, shared, chip_freq_ghz),
      morph_(morph)
{
    if (!params.outOfOrder)
        fatal("MorphCore: the base personality must be out-of-order");
    if (params.robSize < kInOrderWindow)
        fatal("MorphCore: in-order mode needs a ROB of at least ",
              kInOrderWindow, " entries");
    if (morph_.oooThreadLimit == 0)
        fatal("MorphCore: oooThreadLimit must be >= 1");
}

void
MorphCore::coreCycle()
{
    retireCycle(params_.width);

    // Mode controller: when the active thread count crosses the limit,
    // stop dispatching, drain the in-flight ops, then morph and pay the
    // reconfiguration penalty.
    const bool want_ooo = activeContexts() <= morph_.oooThreadLimit;
    if (want_ooo != oooMode_) {
        bool in_flight = false;
        for (const auto &ctx : contexts_)
            in_flight |= ctx.robCount > 0;
        if (!in_flight) {
            oooMode_ = want_ooo;
            ++modeSwitches_;
            stallUntilSwitch_ = coreNow_ + morph_.switchPenalty;
        }
        return; // draining (or just switched): no dispatch this cycle
    }
    if (stallUntilSwitch_ > coreNow_)
        return; // refilling after the switch

    if (oooMode_)
        dispatchCycle();
    else
        inOrderCycle();
}

} // namespace smtflex
