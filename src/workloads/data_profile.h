/**
 * @file
 * Deterministic cache-line data synthesizers. Each profile reproduces
 * the byte-level value structure of a class of real GPGPU data (the
 * paper compresses real benchmark data; we cannot ship it, so these
 * generators stand in — see DESIGN.md, substitution table). The profile
 * mix per application is calibrated so per-algorithm compression ratios
 * land near Figure 11.
 */
#ifndef CABA_WORKLOADS_DATA_PROFILE_H
#define CABA_WORKLOADS_DATA_PROFILE_H

#include <cstdint>

#include "common/types.h"

namespace caba {

/** Families of value structure observed in GPGPU data. */
enum class DataProfile : int {
    Zeros,      ///< Untouched output buffers, padding.
    Pointer,    ///< 8B addresses sharing a region base (PVC-style, Fig 5).
    SmallInt,   ///< Narrow integers in 4B slots (counters, indices).
    Fp32,       ///< FP32 fields with shared exponents, noisy mantissas.
    Text,       ///< Byte runs / repeated characters (keys, sequences).
    Sparse,     ///< Mostly-zero words with occasional small values.
    Index,      ///< 4B node/element indices clustered around a local
                ///  base (graph CSR neighbor lists, locality-renumbered).
    Random,     ///< Incompressible (hashed, encrypted, random init).
};

/** Printable profile name. */
const char *dataProfileName(DataProfile p);

/**
 * Fills @p out (64 bytes) for @p line under @p profile; @p seed selects
 * the per-application universe. Deterministic in all arguments.
 */
void generateProfileLine(DataProfile profile, std::uint64_t seed, Addr line,
                         std::uint8_t *out);

/** Two-profile mixture with a whole-line-zero floor. */
struct DataMix
{
    DataProfile primary = DataProfile::SmallInt;
    DataProfile secondary = DataProfile::Random;

    /** Probability a line draws from @c secondary. */
    double secondary_frac = 0.0;

    /** Probability a line is entirely zero (common in real footprints). */
    double zero_frac = 0.0;

    bool operator==(const DataMix &) const = default;
};

/** Fills @p out for @p line under the mixture @p mix. */
void generateMixLine(const DataMix &mix, std::uint64_t seed, Addr line,
                     std::uint8_t *out);

} // namespace caba

#endif // CABA_WORKLOADS_DATA_PROFILE_H
