// Whole-file reads and writes: the one place the program opens a file.
//
// Every artifact (results directories, report.json, trace exports, campaign
// summaries, fuzz corpora) is built as bytes in memory and handed to
// write_file, so a write that never reached the file — a failed open, a
// short write, or a flush that fails at close (a full disk) — is always
// reported to the caller, which names the path in its own error.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace lumina {

/// Creates or truncates `path` and writes all of `bytes`. Returns false on
/// any failure, including the flush when the file is closed.
bool write_file(const std::string& path, std::string_view bytes);

/// The whole content of `path`; nullopt when it cannot be opened or read.
std::optional<std::string> read_file(const std::string& path);

}  // namespace lumina
