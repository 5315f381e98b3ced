// Virtual filesystem: every byte the engine persists (catalog snapshots,
// WAL records, TSV exports) flows through this interface, so durability
// logic is testable against simulated crashes and injected I/O errors
// instead of only against a healthy disk.
//
// Three implementations:
//   * PosixVfs — production: open/write/fsync/rename, with transient
//     EINTR/EAGAIN retried via common/retry.h. O_APPEND-free sequential
//     writers (one owner per file, as the storage layer guarantees).
//   * MemVfs — an in-memory filesystem with *fsync-accurate crash
//     semantics*: file content is durable only up to the last Sync(), a
//     file's directory entry (creations, renames, removals) is durable
//     only after SyncDir() on its parent, and an in-place truncation of
//     a durable file is durable immediately (the adversarial reading of
//     O_TRUNC). Crash() rolls the filesystem back to exactly the durable
//     view — the model under which the crash-recovery torture tests run.
//   * FaultVfs — wraps any Vfs and injects a one-shot EIO/ENOSPC at the
//     Nth mutating operation, or a *crash* at the Nth operation: the
//     crashing Append applies only a torn prefix, and every later call
//     fails, simulating process death mid-I/O.
//
// Error taxonomy: OS failures surface as IO_ERROR (ENOENT as NOT_FOUND on
// the read path), never as generic INTERNAL — the shell and the catalog
// branch on the code.
#ifndef QF_COMMON_VFS_H_
#define QF_COMMON_VFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace qf {

// A sequentially written file. Close() is idempotent; the destructor
// closes best-effort (errors on that path are lost — callers that care
// about durability Sync() and Close() explicitly first).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  // Flushes file *content* to stable storage (fsync). Does not make a
  // newly created file's directory entry durable — see Vfs::SyncDir.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  // Reads the whole file. NOT_FOUND if it does not exist.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;
  // Reads up to `length` bytes starting at `offset`; shorter only when the
  // file ends first (empty at or past the end). NOT_FOUND if the file does
  // not exist. The page and spill readers use this to touch one block at
  // a time, so it must cost the bytes read, not the file size.
  virtual Result<std::string> ReadAt(const std::string& path,
                                     std::uint64_t offset,
                                     std::size_t length) = 0;
  // Sorted names (not paths) of the regular files directly inside `dir`.
  // A missing directory reads as empty: orphan sweeps treat "never
  // created" and "nothing there" alike.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;
  // Size of the file in bytes; NOT_FOUND if it does not exist. The paged
  // reader locates the fixed-size footer with this.
  virtual Result<std::uint64_t> FileSize(const std::string& path) = 0;
  // Opens for appending, creating the file if needed.
  virtual Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) = 0;
  // Opens truncated (creating if needed): the rewrite path. Durability of
  // the rewrite requires Sync() on the file and SyncDir() on the parent —
  // but the *truncation* of an existing file may hit stable storage at
  // any moment (POSIX orders nothing here), so never OpenTrunc a file
  // whose old content must survive a crash; use AtomicWriteFile.
  virtual Result<std::unique_ptr<WritableFile>> OpenTrunc(
      const std::string& path) = 0;
  // Atomically replaces `to` with `from` (POSIX rename). The new mapping
  // is durable only after SyncDir() on the parent.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Remove(const std::string& path) = 0;
  // fsyncs the directory itself, making entry creations/renames/removals
  // inside it durable.
  virtual Status SyncDir(const std::string& dir) = 0;
  virtual bool Exists(const std::string& path) = 0;
  // mkdir -p.
  virtual Status CreateDirs(const std::string& dir) = 0;
};

// Directory part of `path` ("a/b/c.wal" -> "a/b"), or "." for a bare
// filename — always a valid SyncDir target.
std::string VfsDirName(const std::string& path);

// Crash-safe whole-file write: <path>.tmp + Sync + rename over `path` +
// SyncDir(parent). On any failure the destination is untouched (either
// the old content or absent) and the temp file is removed best-effort —
// an ENOSPC or crash can never leave a truncated `path` behind.
Status AtomicWriteFile(Vfs& vfs, const std::string& path,
                       std::string_view data);

// Process-wide PosixVfs instance for call sites without an injected vfs.
Vfs& DefaultVfs();

// ---------------------------------------------------------------------
// Production implementation.

class PosixVfs : public Vfs {
 public:
  PosixVfs() = default;

  Result<std::string> ReadFile(const std::string& path) override;
  Result<std::string> ReadAt(const std::string& path, std::uint64_t offset,
                             std::size_t length) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Result<std::uint64_t> FileSize(const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenTrunc(
      const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  bool Exists(const std::string& path) override;
  Status CreateDirs(const std::string& dir) override;

 private:
  Result<std::unique_ptr<WritableFile>> Open(const std::string& path,
                                             int flags);
};

// ---------------------------------------------------------------------
// In-memory implementation with crash semantics. Thread-safe.

class MemVfs : public Vfs {
 public:
  MemVfs() = default;

  Result<std::string> ReadFile(const std::string& path) override;
  Result<std::string> ReadAt(const std::string& path, std::uint64_t offset,
                             std::size_t length) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Result<std::uint64_t> FileSize(const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenTrunc(
      const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  bool Exists(const std::string& path) override;
  Status CreateDirs(const std::string& dir) override;

  // Simulates power loss: un-Sync()ed file content and un-SyncDir()ed
  // directory operations are discarded; the live view becomes the durable
  // view. Open handles from before the crash fail on further use.
  void Crash();

 private:
  struct Inode {
    std::string data;
    std::size_t synced = 0;  // bytes guaranteed after a crash
  };
  class MemFile;

  std::mutex mutex_;
  std::uint64_t epoch_ = 0;  // bumped by Crash(); stale handles fail
  std::map<std::string, std::shared_ptr<Inode>> live_;
  std::map<std::string, std::shared_ptr<Inode>> durable_;
  std::set<std::string> dirs_{"."};
};

// ---------------------------------------------------------------------
// Fault injection wrapper.

struct FaultPlan {
  // 1-based index (over mutating operations: Append/Sync/Rename/Remove/
  // SyncDir/OpenTrunc) of the single operation that fails with IO_ERROR.
  // 0 disables. The failure is one-shot; later operations succeed —
  // it models a transient ENOSPC/EIO, and the *caller* must contain it.
  std::uint64_t fail_at_op = 0;
  // Message flavor for the injected failure ("No space left on device"
  // vs "Input/output error").
  bool fail_enospc = true;
  // 1-based index of the operation at which the process "dies": the
  // crashing Append writes only `torn_write_bytes` of its payload through
  // to the base vfs; every operation after (reads included) fails. 0
  // disables.
  std::uint64_t crash_at_op = 0;
  // Prefix of the crashing Append that still reaches the base vfs
  // (clamped to the payload length). Simulates a torn sector write.
  std::uint32_t torn_write_bytes = 0;
};

class FaultVfs : public Vfs {
 public:
  explicit FaultVfs(Vfs& base) : base_(base) {}

  void set_plan(const FaultPlan& plan) { plan_ = plan; }
  // Mutating operations observed so far — run a workload fault-free once
  // to learn the sweep's upper bound.
  std::uint64_t op_count() const { return ops_; }
  bool crashed() const { return crashed_; }

  Result<std::string> ReadFile(const std::string& path) override;
  Result<std::string> ReadAt(const std::string& path, std::uint64_t offset,
                             std::size_t length) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Result<std::uint64_t> FileSize(const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenTrunc(
      const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status SyncDir(const std::string& dir) override;
  bool Exists(const std::string& path) override;
  Status CreateDirs(const std::string& dir) override;

 private:
  class FaultFile;

  // Charges one mutating operation against the plan. Returns OK when the
  // op should proceed; IO_ERROR when it is the injected failure or the
  // filesystem is "dead". Sets `torn` when the op is the crashing Append
  // and a prefix should still be applied.
  Status Gate(bool* torn);

  Vfs& base_;
  FaultPlan plan_;
  std::uint64_t ops_ = 0;
  bool crashed_ = false;
};

}  // namespace qf

#endif  // QF_COMMON_VFS_H_
