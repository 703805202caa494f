#pragma once

/// \file durable_fs.hpp
/// The durable-storage boundary for crash recovery. Anything that must
/// survive a process crash (the AERO metadata WAL and its checkpoints)
/// is written through this interface instead of straight to disk, so
/// tests can crash a "process" by destroying every volatile object
/// while the MemFs — playing the role of the disk — survives untouched.
///
/// Semantics every implementation provides:
///   write   atomic whole-file replace (a reader never observes a
///           half-written file; a crash leaves either the old or the
///           new content)
///   append  ordered append to the end of a file, creating it when
///           missing (a crash may leave a torn tail — recovery is
///           expected to discard it)
///   sync    durability barrier: everything written/appended before the
///           call has reached stable storage when it returns
///
/// Paths are forward-slash relative names ("aero-wal/wal-000000000000");
/// list() returns them sorted so directory iteration order can never
/// leak platform nondeterminism into recovery.
///
/// Every implementation is safe to share between threads: the sharded
/// fabric hands one DurableFs to all of its shards, each writing its
/// own directory.

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace osprey::util {

class DurableFs {
 public:
  virtual ~DurableFs() = default;

  virtual void write(const std::string& path, const std::string& bytes) = 0;
  virtual void append(const std::string& path, const std::string& bytes) = 0;
  /// Whole-file content; nullopt when the file does not exist.
  virtual std::optional<std::string> read(const std::string& path) const = 0;
  /// All paths starting with `prefix`, sorted ascending.
  virtual std::vector<std::string> list(const std::string& prefix) const = 0;
  /// Delete a file (no-op when absent).
  virtual void remove(const std::string& path) = 0;
  virtual void sync() = 0;

  std::uint64_t sync_count() const {
    return syncs_.load(std::memory_order_relaxed);
  }

 protected:
  DurableFs() = default;
  DurableFs(const DurableFs& other) : syncs_(other.sync_count()) {}
  DurableFs& operator=(const DurableFs& other) {
    syncs_.store(other.sync_count(), std::memory_order_relaxed);
    return *this;
  }

  std::atomic<std::uint64_t> syncs_{0};
};

/// In-memory implementation: the "disk" of the crash-replay harness.
/// Outlives the platform being crashed; also exposes raw mutation
/// helpers so fuzz tests can tear and bit-flip recorded logs.
class MemFs : public DurableFs {
 public:
  MemFs() = default;
  /// Copies are snapshots of the other disk (crash drills fork one).
  MemFs(const MemFs& other);
  MemFs& operator=(const MemFs& other);

  void write(const std::string& path, const std::string& bytes) override;
  void append(const std::string& path, const std::string& bytes) override;
  std::optional<std::string> read(const std::string& path) const override;
  std::vector<std::string> list(const std::string& prefix) const override;
  void remove(const std::string& path) override;
  void sync() override { ++syncs_; }

  // --- fault-injection helpers (tests only) --------------------------
  /// Drop the last `n` bytes of `path` — a torn tail, as a crash
  /// mid-append would leave. No-op when the file is absent.
  void truncate_tail(const std::string& path, std::size_t n);
  /// XOR one byte of `path` with `mask` (corruption in place).
  void flip_byte(const std::string& path, std::size_t offset,
                 unsigned char mask = 0x01);

  std::size_t file_count() const;

 private:
  std::map<std::string, std::string> copy_files() const;

  mutable Mutex mutex_;
  std::map<std::string, std::string> files_ OSPREY_GUARDED_BY(mutex_);
};

/// On-disk implementation rooted at a directory; used by the benches so
/// WAL overhead includes real file IO. write() goes through a rename so
/// replacement is atomic on POSIX; sync() fsyncs every file written or
/// appended since the last barrier, then the root directory.
class RealFs : public DurableFs {
 public:
  explicit RealFs(std::string root);

  void write(const std::string& path, const std::string& bytes) override;
  void append(const std::string& path, const std::string& bytes) override;
  std::optional<std::string> read(const std::string& path) const override;
  std::vector<std::string> list(const std::string& prefix) const override;
  void remove(const std::string& path) override;
  void sync() override;

  const std::string& root() const { return root_; }

 private:
  std::string full(const std::string& path) const;
  void mark_dirty(std::string full_path);
  std::string root_;
  Mutex mutex_;
  // Full paths pending an fsync.
  std::vector<std::string> dirty_ OSPREY_GUARDED_BY(mutex_);
};

}  // namespace osprey::util
