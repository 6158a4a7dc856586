#include "caba/aws.h"

namespace caba {

AssistWarpStore::AssistWarpStore(const AwsTiming &timing)
    : timing_(timing)
{}

std::vector<AssistInstr>
AssistWarpStore::synthesize(const SubroutineCost &cost) const
{
    // Shape (Section 4.1.2): MOVE of live-in registers from the parent
    // warp, loads of the compressed words, the SIMD arithmetic, and one
    // store of the result line. mem_ops is split as (mem_ops-1) loads +
    // 1 store. An instruction's latency field is the delay before the
    // *next* instruction in the subroutine may issue: true dependences
    // (load -> arithmetic -> store) pay full latency; the arithmetic
    // ops themselves are independent encoding/lane work and pipeline
    // back to back, with only the last one joining before the store.
    std::vector<AssistInstr> code;
    code.push_back({false, 1});                         // live-in MOVE
    const int loads = cost.mem_ops > 0 ? cost.mem_ops - 1 : 0;
    for (int i = 0; i < loads; ++i)
        code.push_back({true, timing_.mem_latency});
    for (int i = 0; i < cost.alu_ops; ++i) {
        const bool last = i + 1 == cost.alu_ops;
        code.push_back({false, last ? timing_.alu_latency : 1});
    }
    if (cost.mem_ops > 0)
        code.push_back({true, timing_.mem_latency});    // result store
    return code;
}

template <typename CostFn>
const std::vector<AssistInstr> &
AssistWarpStore::routine(const Key &key, CostFn cost)
{
    auto it = store_.find(key);
    if (it == store_.end())
        it = store_.emplace(key, synthesize(cost())).first;
    return it->second;
}

const std::vector<AssistInstr> &
AssistWarpStore::decompressRoutine(Algorithm algo, int encoding)
{
    return routine({Routine::Decompress, algo, encoding}, [&] {
        return getCodec(algo).decompressCost(encoding);
    });
}

const std::vector<AssistInstr> &
AssistWarpStore::compressRoutine(Algorithm algo)
{
    return routine({Routine::Compress, algo, 0},
                   [&] { return getCodec(algo).compressCost(); });
}

const std::vector<AssistInstr> &
AssistWarpStore::memoizeRoutine()
{
    // Hash live-ins (2 ALU) + shared-memory LUT probe (1 mem).
    return routine({Routine::Memoize, Algorithm::None, 0},
                   [] { return SubroutineCost{2, 1}; });
}

const std::vector<AssistInstr> &
AssistWarpStore::prefetchRoutine()
{
    // Stride compute (2 ALU) + the prefetch access (1 mem).
    return routine({Routine::Prefetch, Algorithm::None, 0},
                   [] { return SubroutineCost{2, 1}; });
}

const std::vector<AssistInstr> &
AssistWarpStore::profileRoutine()
{
    // Read scheduler stall vectors (2 ALU) + store the sample to the
    // shared-memory ring (1 mem).
    return routine({Routine::Profile, Algorithm::None, 0},
                   [] { return SubroutineCost{2, 1}; });
}

int
AssistWarpStore::storedInstructions() const
{
    int total = 0;
    for (const auto &[key, code] : store_)
        total += static_cast<int>(code.size());
    return total;
}

} // namespace caba
