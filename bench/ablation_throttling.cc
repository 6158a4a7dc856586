/**
 * @file
 * Ablation of the CABA design choices DESIGN.md calls out (paper
 * Sections 3.4 and 4.2):
 *   1. priority assignment — decompression high / compression low
 *      (flipping either should hurt);
 *   2. AWB low-priority staging slots (the paper dedicates two IB
 *      entries);
 *   3. utilization-driven throttling of low-priority warps;
 *   4. the single-encoding compression fast path of Section 4.1.2
 *      (approximated by the store-buffer capacity a slower compressor
 *      implies).
 */
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "harness/experiment.h"

using namespace caba;

namespace {

/** Each variant flips one knob of the paper's configuration; its cell
 *  is named after the knob. */
const std::pair<const char *, void (*)(CabaConfig &)> kVariants[] = {
    {"paper-config", [](CabaConfig &) {}},
    {"dec-low-prio",
     [](CabaConfig &c) { c.decompress_high_priority = false; }},
    {"comp-high-prio",
     [](CabaConfig &c) { c.compress_low_priority = false; }},
    {"awb-1", [](CabaConfig &c) { c.awb_low_slots = 1; }},
    {"awb-4", [](CabaConfig &c) { c.awb_low_slots = 4; }},
    {"no-throttle", [](CabaConfig &c) { c.throttle = false; }},
    {"store-buf-4", [](CabaConfig &c) { c.store_buffer = 4; }},
};

} // namespace

CABA_REGISTER_EXPERIMENT(ablation_throttling)
{
    exp.description =
        "Sections 3.4/4.2: priority, AWB, throttle and store-buffer "
        "ablations";
    exp.title = "CABA design-choice ablations (cycles normalized to "
                "the paper's configuration; <1.00 = faster)";
    exp.cells = [](const ExperimentOptions &opts) {
        std::vector<Cell> cells;
        for (const char *name : {"PVC", "MM", "LPS", "sssp", "CONS"}) {
            for (const auto &[label, flip] : kVariants) {
                ExperimentOptions o = opts;
                flip(o.caba);
                cells.push_back({findApp(name), label, DesignConfig::caba(),
                                 o});
            }
        }
        return cells;
    };
    exp.emit = [](const Sweep &sweep, BenchJson &) {
        // Cycles relative to the paper config, one column per variant.
        Table t({"app", "paper-config", "dec low-prio", "comp high-prio",
                 "awb=1", "awb=4", "no-throttle", "store-buf=4"});
        for (const std::string &name : sweep.appNames()) {
            const double base =
                static_cast<double>(sweep.at(name, "paper-config").cycles);
            std::vector<std::string> row = {name};
            for (const auto &variant : kVariants)
                row.push_back(Table::num(
                    static_cast<double>(
                        sweep.at(name, variant.first).cycles) /
                    base));
            t.addRow(row);
        }
        std::printf("%s\n", t.render().c_str());
        std::printf("Expected shape: the paper's priority assignment wins; "
                    "fewer AWB slots or a\nsmaller store buffer leave more "
                    "stores uncompressed; throttling protects\nparent-warp "
                    "slots when pipelines are busy.\n");
    };
}
