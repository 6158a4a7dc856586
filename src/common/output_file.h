/**
 * @file
 * The one opener for output files: the CABA_TRACE sink, the CABA_PROF
 * report and the --json documents all open their paths through it, so
 * each creates a missing parent directory.
 */
#ifndef CABA_COMMON_OUTPUT_FILE_H
#define CABA_COMMON_OUTPUT_FILE_H

#include <cstdio>
#include <string>

namespace caba {

/** Opens @p path for writing, creating its parent directories first;
 *  nullptr when that fails. */
std::FILE *openForWriting(const std::string &path);

/** Writes @p text to @p path through openForWriting. @return false
 *  when the open, the write or the close fails. */
bool writeFile(const std::string &path, const std::string &text);

} // namespace caba

#endif // CABA_COMMON_OUTPUT_FILE_H
