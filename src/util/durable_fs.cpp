#include "util/durable_fs.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "util/error.hpp"
#include "util/file_io.hpp"

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace osprey::util {

// --- MemFs -----------------------------------------------------------

MemFs::MemFs(const MemFs& other)
    : DurableFs(other), files_(other.copy_files()) {}

MemFs& MemFs::operator=(const MemFs& other) {
  if (this == &other) return *this;
  std::map<std::string, std::string> files = other.copy_files();
  DurableFs::operator=(other);
  MutexLock lock(mutex_);
  files_ = std::move(files);
  return *this;
}

std::map<std::string, std::string> MemFs::copy_files() const {
  MutexLock lock(mutex_);
  return files_;
}

void MemFs::write(const std::string& path, const std::string& bytes) {
  MutexLock lock(mutex_);
  files_[path] = bytes;
}

void MemFs::append(const std::string& path, const std::string& bytes) {
  MutexLock lock(mutex_);
  files_[path] += bytes;
}

std::optional<std::string> MemFs::read(const std::string& path) const {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> MemFs::list(const std::string& prefix) const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [path, bytes] : files_) {
    (void)bytes;
    if (path.compare(0, prefix.size(), prefix) == 0) out.push_back(path);
  }
  return out;  // std::map keys are already sorted
}

void MemFs::remove(const std::string& path) {
  MutexLock lock(mutex_);
  files_.erase(path);
}

void MemFs::truncate_tail(const std::string& path, std::size_t n) {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return;
  std::string& bytes = it->second;
  bytes.resize(bytes.size() >= n ? bytes.size() - n : 0);
}

void MemFs::flip_byte(const std::string& path, std::size_t offset,
                      unsigned char mask) {
  MutexLock lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end() || offset >= it->second.size()) return;
  it->second[offset] = static_cast<char>(
      static_cast<unsigned char>(it->second[offset]) ^ mask);
}

std::size_t MemFs::file_count() const {
  MutexLock lock(mutex_);
  return files_.size();
}

// --- RealFs ----------------------------------------------------------

RealFs::RealFs(std::string root) : root_(std::move(root)) {
  OSPREY_REQUIRE(!root_.empty(), "RealFs needs a root directory");
  std::error_code ec;
  std::filesystem::create_directories(root_, ec);
  if (ec) {
    throw Error("cannot create RealFs root " + root_ + ": " + ec.message());
  }
}

std::string RealFs::full(const std::string& path) const {
  return root_ + "/" + path;
}

void RealFs::write(const std::string& path, const std::string& bytes) {
  // Write to a sibling temp file, then rename over the target: POSIX
  // rename is atomic, so a crash leaves old content or new, never half.
  const std::string target = full(path);
  const std::string tmp = target + ".tmp";
  write_text_file(tmp, bytes);
  std::error_code ec;
  std::filesystem::rename(tmp, target, ec);
  if (ec) throw Error("atomic replace failed for " + target + ": " + ec.message());
  mark_dirty(target);
}

void RealFs::append(const std::string& path, const std::string& bytes) {
  std::filesystem::path p(full(path));
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) {
      throw Error("cannot create directory " + p.parent_path().string() +
                  ": " + ec.message());
    }
  }
  std::ofstream out(p, std::ios::binary | std::ios::app);
  if (!out) throw Error("cannot open for append: " + p.string());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw Error("append failed: " + p.string());
  mark_dirty(p.string());
}

std::optional<std::string> RealFs::read(const std::string& path) const {
  return read_text_file(full(path));
}

std::vector<std::string> RealFs::list(const std::string& prefix) const {
  // The prefix's directory part selects the directory to scan; the
  // remainder filters file names. Good enough for the WAL's flat
  // "<dir>/<kind>-<lsn>" layout.
  std::string dir = root_;
  std::string name_prefix = prefix;
  std::size_t slash = prefix.rfind('/');
  if (slash != std::string::npos) {
    dir = root_ + "/" + prefix.substr(0, slash);
    name_prefix = prefix.substr(slash + 1);
  }
  std::vector<std::string> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.compare(0, name_prefix.size(), name_prefix) != 0) continue;
    out.push_back(slash == std::string::npos
                      ? name
                      : prefix.substr(0, slash + 1) + name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RealFs::remove(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(full(path), ec);
}

void RealFs::mark_dirty(std::string full_path) {
  MutexLock lock(mutex_);
  dirty_.push_back(std::move(full_path));
}

void RealFs::sync() {
  ++syncs_;
  std::vector<std::string> dirty;
  {
    MutexLock lock(mutex_);
    dirty.swap(dirty_);
  }
#ifdef __unix__
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (const std::string& path : dirty) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fsync(fd);
      ::close(fd);
    }
  }
  int fd = ::open(root_.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#endif
}

}  // namespace osprey::util
