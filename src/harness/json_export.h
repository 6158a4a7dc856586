/**
 * @file
 * Machine-readable bench output. caba_bench's `--json` (default path
 * bench_results/<bench>.json) or `--json=PATH` writes each
 * experiment's stable "caba-bench-v1" document next to its
 * human-readable table:
 *
 *   {
 *     "schema": "caba-bench-v1",
 *     "bench":  "<bench name>",
 *     "cells":  [ { app, design, result: { cycles, instructions, ipc,
 *                   bw_utilization, compression_ratio, md_hit_rate,
 *                   energy, stats, gauges, distributions,
 *                   timeline } }, ... ],
 *     "rows":   [ { <free-form columns> }, ... ]
 *   }
 *
 * The Figure 1 issue-slot breakdown travels in "stats" as the sm_slot_*
 * counters (DESIGN.md section 11); there is no separate object for it.
 *
 * "cells" carries full simulation results, one per declared cell, in
 * declared order; "design" is the cell's label. "rows" carries tabular
 * output for benches whose result is not a RunResult (e.g. the Figure
 * 2 occupancy study). Both arrays are always present. Output is
 * deterministic: identical results produce byte-identical files
 * regardless of worker count.
 */
#ifndef CABA_HARNESS_JSON_EXPORT_H
#define CABA_HARNESS_JSON_EXPORT_H

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "harness/sweep.h"

namespace caba {

/** Serializes one RunResult as a JSON object into @p w. */
void writeRunResultJson(JsonWriter &w, const RunResult &r);

/** Accumulates cells/rows for one bench and writes the document. */
class BenchJson
{
  public:
    /** @p path empty = disabled: every method becomes a no-op. */
    BenchJson(std::string bench, std::string path);

    bool enabled() const { return !path_.empty(); }

    /** Appends every cell of @p sweep in declared order. */
    void addSweep(const Sweep &sweep);

    // Free-form rows: beginRow, field... , endRow.
    void beginRow();
    void field(const std::string &key, const std::string &value);
    void field(const std::string &key, const char *value);
    void field(const std::string &key, double value);
    void field(const std::string &key, std::uint64_t value);
    void field(const std::string &key, int value);
    void endRow();

    /** Writes the document (creates parent directories) and reports
     *  the path on stderr. No-op when disabled. A failed open, write
     *  or close stops the process (exit 1), naming the path. */
    void write() const;

  private:
    /** The full caba-bench-v1 document, trailing newline included. */
    std::string document() const;

    std::string bench_;
    std::string path_;
    std::vector<std::string> cells_;
    std::vector<std::string> rows_;
    std::unique_ptr<JsonWriter> row_;
};

} // namespace caba

#endif // CABA_HARNESS_JSON_EXPORT_H
