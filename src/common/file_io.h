#pragma once

/**
 * @file
 * Whole-file reads for the on-disk stores (compiled artifacts, the
 * schedule cache, fleet traces): one `read` into a string sized from
 * `fstat`, with no stream buffer or intermediate copy in between.
 */

#include <optional>
#include <string>

namespace souffle {

/** Contents of @p path; nullopt when it cannot be opened or read. */
std::optional<std::string> readFileContents(const std::string &path);

} // namespace souffle
