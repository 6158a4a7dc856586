/**
 * @file
 * The one opener for output files: the CABA_TRACE sink, the CABA_PROF
 * report and the --json documents all open their paths through it, so
 * each creates a missing parent directory. The trace and the profile
 * are written only as the process exits, through onExit: one that
 * cannot be written makes the exit status 1.
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

/**
 * Registers @p handler with std::atexit, for output written as the
 * process exits. A handler that fails to write calls failAtExit(); the
 * process then exits with status 1 once every handler has run.
 */
void onExit(void (*handler)());

/** Makes the exit status 1 (see onExit). */
void failAtExit();

} // namespace caba

#endif // CABA_COMMON_OUTPUT_FILE_H
