/**
 * @file
 * The five evaluated designs of Section 6 (plus the Figure 13 cache-
 * compression variants) expressed as one configuration struct: where
 * data is compressed (DRAM / interconnect / caches), where it is
 * decompressed (dedicated MC logic, dedicated L1-fill logic, CABA assist
 * warps, or for free), and which overheads apply.
 */
#ifndef CABA_COMPRESS_DESIGN_H
#define CABA_COMPRESS_DESIGN_H

#include <string>

#include "compress/registry.h"

namespace caba {

/** Who expands compressed fills, and at what cost. */
enum class DecompressSite : int {
    None = 0,   ///< No compression anywhere (Base).
    MemCtrl,    ///< Dedicated logic at the MC (HW-<algo>-Mem).
    L1Hw,       ///< Dedicated logic at L1 fill (HW-<algo>).
    L1Caba,     ///< Assist warps at the core (CABA-<algo>).
    Free,       ///< Zero-cost (Ideal-<algo>).
};

/** One evaluated design point: an algorithm and a decompression site,
 *  from which every compression property follows, plus the compressed-
 *  cache tag factors. */
struct DesignConfig
{
    std::string name = "Base";
    Algorithm algo = Algorithm::None;
    DecompressSite decompress = DecompressSite::None;

    /** Compressed-cache tag multipliers (Section 6.5); 1 = conventional. */
    int l1_tag_factor = 1;
    int l2_tag_factor = 1;

    bool usesCompression() const { return algo != Algorithm::None; }

    /** Assist warps decompress fills and compress stores before they
     *  leave the SM. */
    bool usesCaba() const { return decompress == DecompressSite::L1Caba; }

    /** DRAM transfers move compressed bursts. */
    bool memCompressed() const { return decompress != DecompressSite::None; }

    /** Interconnect packets and L2 payloads are compressed: data stays
     *  compressed past the memory controller. */
    bool
    xbarCompressed() const
    {
        return decompress == DecompressSite::L1Hw ||
               decompress == DecompressSite::L1Caba ||
               decompress == DecompressSite::Free;
    }

    /** MD-cache misses cost an extra DRAM metadata access (every design
     *  with real decompression logic; Ideal has no overheads). */
    bool
    mdOverhead() const
    {
        return decompress == DecompressSite::MemCtrl ||
               decompress == DecompressSite::L1Hw ||
               decompress == DecompressSite::L1Caba;
    }

    bool operator==(const DesignConfig &) const = default;

    // ---- Named design points from the paper ----

    /** (i) Baseline with no compression. */
    static DesignConfig base();

    /** (ii) HW memory-bandwidth-only compression (prior work [66,72]). */
    static DesignConfig hwMem(Algorithm algo = Algorithm::Bdi);

    /** (iii) HW interconnect + memory compression. */
    static DesignConfig hw(Algorithm algo = Algorithm::Bdi);

    /** (iv) CABA with all assist-warp overheads. */
    static DesignConfig caba(Algorithm algo = Algorithm::Bdi);

    /** (v) Ideal compression with no overheads. */
    static DesignConfig ideal(Algorithm algo = Algorithm::Bdi);

    /** Figure 13: CABA with a compressed L1 or L2 (2x/4x tags). */
    static DesignConfig cabaCompressedCache(int l1_factor, int l2_factor);
};

} // namespace caba

#endif // CABA_COMPRESS_DESIGN_H
