/**
 * @file
 * Machine-readable bench output. Every figure bench accepts `--json
 * [path]` (default bench_results/<bench>.json) and writes a stable
 * "caba-bench-v1" document next to its human-readable table:
 *
 *   {
 *     "schema": "caba-bench-v1",
 *     "bench":  "<bench name>",
 *     "cells":  [ { app, design, cycles, ..., stats, gauges,
 *                   distributions, timeline }, ... ],
 *     "rows":   [ { <free-form columns> }, ... ]
 *   }
 *
 * "cells" carries full simulation results (one per app x design run);
 * "rows" carries tabular output for benches whose result is not a
 * RunResult (e.g. the Figure 2 occupancy study). Both arrays are always
 * present. Output is deterministic: identical results produce
 * byte-identical files regardless of sweep worker count.
 */
#ifndef CABA_HARNESS_JSON_EXPORT_H
#define CABA_HARNESS_JSON_EXPORT_H

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "harness/sweep.h"

namespace caba {

/**
 * Parses `--json` or `--json=<path>` out of @p argv. @return the
 * output path ("" when the flag is absent); the bare flag defaults to
 * bench_results/<bench>.json and never consumes the next token.
 */
std::string jsonOutPath(const std::string &bench, int argc, char **argv);

/** Serializes one RunResult as a JSON object into @p w. */
void writeRunResultJson(JsonWriter &w, const RunResult &r);

/** Accumulates cells/rows for one bench and writes the document. */
class BenchJson
{
  public:
    /** @p path empty = disabled: every method becomes a no-op. */
    BenchJson(std::string bench, std::string path);

    bool enabled() const { return !path_.empty(); }

    /** Appends one simulation cell. */
    void addCell(const std::string &app, const std::string &design,
                 const RunResult &r);

    /** Appends every cell of @p sweep in app-major order. */
    void addSweep(const Sweep &sweep);

    // Free-form rows: beginRow, field... , endRow.
    void beginRow();
    void field(const std::string &key, const std::string &value);
    void field(const std::string &key, const char *value);
    void field(const std::string &key, double value);
    void field(const std::string &key, std::uint64_t value);
    void field(const std::string &key, int value);
    void endRow();

    /** Writes the document (creates parent directories). No-op when
     *  disabled. Reports the path on stderr. */
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
