// Crash-safe file writes.
//
// A process killed between fopen() and fclose() of a plain write leaves a
// truncated history snapshot, replay bundle or trace on disk for the next
// reader to choke on. write_file_atomic stages content in a same-directory
// temp file and rename()s it into place, so readers only ever observe the
// old file or the complete new one — never a partial write.
#pragma once

#include <string>

namespace paratick::core {

/// Crash-safe whole-file write: content goes to "<path>.tmp.<pid>" in the
/// same directory (so rename stays atomic within one filesystem), is
/// flushed, then rename()d over `path`. Parent directories are created.
/// PARATICK_CHECKs (throws sim::SimError) on any I/O failure, removing
/// the temp file first.
void write_file_atomic(const std::string& path, const std::string& content);

}  // namespace paratick::core
