/**
 * @file
 * Assist Warp Store (Section 3.3): the on-chip buffer preloaded with the
 * assist-warp subroutines, indexed by subroutine id (SR.ID) and
 * instruction id (Inst.ID). Subroutines are synthesized once per
 * (purpose, algorithm, encoding) from the codec's instruction budget:
 * live-in MOVEs, loads of the compressed words, the arithmetic, and the
 * store of the result — mirroring the BDI mapping of Section 4.1.2.
 */
#ifndef CABA_CABA_AWS_H
#define CABA_CABA_AWS_H

#include <map>
#include <tuple>
#include <vector>

#include "caba/assist_warp.h"
#include "compress/codec.h"
#include "compress/registry.h"

namespace caba {

/** Pipeline latencies the AWS needs to materialize subroutines. */
struct AwsTiming
{
    int alu_latency = 6;
    int mem_latency = 20;   ///< Assist loads/stores are L1-local.
};

/** The subroutine store shared by all SMs (read-only after warm-up). */
class AssistWarpStore
{
  public:
    explicit AssistWarpStore(const AwsTiming &timing);

    /**
     * Subroutine that decompresses a line stored with encoding
     * @p encoding by @p algo. Cached per (algorithm, encoding); stable
     * address.
     */
    const std::vector<AssistInstr> &decompressRoutine(Algorithm algo,
                                                      int encoding);

    /** Subroutine that tests/perform compression of one line. */
    const std::vector<AssistInstr> &compressRoutine(Algorithm algo);

    /** Fixed-shape routine for memoization probes (Section 7.1). */
    const std::vector<AssistInstr> &memoizeRoutine();

    /** Fixed-shape routine that computes+issues a prefetch (Section 7.2). */
    const std::vector<AssistInstr> &prefetchRoutine();

    /** Fixed-shape routine that samples resident warps' stall vectors
     *  (the profiling generalization of the CABA framework paper). */
    const std::vector<AssistInstr> &profileRoutine();

    /** Total instructions resident in the store (hardware sizing stat). */
    int storedInstructions() const;

    /** Number of distinct subroutines (SR.IDs in use). */
    int numSubroutines() const { return static_cast<int>(store_.size()); }

  private:
    /** What a subroutine does; with the algorithm and the encoding it
     *  forms the SR.ID key. */
    enum class Routine : int { Decompress, Compress, Memoize, Prefetch,
                               Profile };
    using Key = std::tuple<Routine, Algorithm, int>;

    /** Synthesizes the body for a given instruction budget. */
    std::vector<AssistInstr> synthesize(const SubroutineCost &cost) const;

    /** The subroutine stored under @p key, synthesized on first use
     *  from the budget @p cost() returns. */
    template <typename CostFn>
    const std::vector<AssistInstr> &routine(const Key &key, CostFn cost);

    AwsTiming timing_;

    /** SR.ID -> subroutine body. A node map, so bodies never move. */
    std::map<Key, std::vector<AssistInstr>> store_;
};

} // namespace caba

#endif // CABA_CABA_AWS_H
