#include "compress/design.h"

#include <string>

namespace caba {

DesignConfig
DesignConfig::base()
{
    return DesignConfig{};
}

DesignConfig
DesignConfig::hwMem(Algorithm algo)
{
    DesignConfig d;
    d.name = "HW-" + std::string(algorithmName(algo)) + "-Mem";
    d.algo = algo;
    d.decompress = DecompressSite::MemCtrl;
    return d;
}

DesignConfig
DesignConfig::hw(Algorithm algo)
{
    DesignConfig d;
    d.name = "HW-" + std::string(algorithmName(algo));
    d.algo = algo;
    d.decompress = DecompressSite::L1Hw;
    return d;
}

DesignConfig
DesignConfig::caba(Algorithm algo)
{
    DesignConfig d;
    d.name = "CABA-" + std::string(algorithmName(algo));
    d.algo = algo;
    d.decompress = DecompressSite::L1Caba;
    return d;
}

DesignConfig
DesignConfig::ideal(Algorithm algo)
{
    DesignConfig d;
    d.name = "Ideal-" + std::string(algorithmName(algo));
    d.algo = algo;
    d.decompress = DecompressSite::Free;
    return d;
}

DesignConfig
DesignConfig::cabaCompressedCache(int l1_factor, int l2_factor)
{
    DesignConfig d = caba(Algorithm::Bdi);
    d.l1_tag_factor = l1_factor;
    d.l2_tag_factor = l2_factor;
    if (l1_factor > 1)
        d.name = "CABA-L1-" + std::to_string(l1_factor) + "x";
    if (l2_factor > 1)
        d.name = "CABA-L2-" + std::to_string(l2_factor) + "x";
    return d;
}

} // namespace caba
