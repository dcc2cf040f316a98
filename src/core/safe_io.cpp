#include "core/safe_io.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "sim/check.hpp"

namespace paratick::core {

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::filesystem::path fs_path{path};
  // Special targets (/dev/null, pipes) cannot be renamed over — and must
  // not be: replacing /dev/null with a regular file would be a disaster.
  // Plain in-place write for anything that exists and is not a file.
  std::error_code stat_ec;
  const auto status = std::filesystem::status(fs_path, stat_ec);
  if (!stat_ec && std::filesystem::exists(status) &&
      !std::filesystem::is_regular_file(status)) {
    std::FILE* direct = std::fopen(path.c_str(), "w");
    PARATICK_CHECK_MSG(direct != nullptr,
                       ("cannot open file for writing: " + path).c_str());
    std::fwrite(content.data(), 1, content.size(), direct);
    std::fclose(direct);
    return;
  }
  if (fs_path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(fs_path.parent_path(), ec);
  }
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  PARATICK_CHECK_MSG(f != nullptr,
                     ("cannot open temp file for atomic write: " + tmp).c_str());
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    PARATICK_CHECK_MSG(false, ("atomic write failed for: " + path).c_str());
  }
}

}  // namespace paratick::core
