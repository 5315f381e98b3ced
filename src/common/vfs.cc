#include "common/vfs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/retry.h"
#include "common/string_util.h"

namespace qf {

std::string VfsDirName(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status AtomicWriteFile(Vfs& vfs, const std::string& path,
                       std::string_view data) {
  const std::string tmp = path + ".tmp";
  auto fail = [&](Status s) {
    vfs.Remove(tmp);  // best-effort; the destination is untouched
    return s;
  };
  Result<std::unique_ptr<WritableFile>> file = vfs.OpenTrunc(tmp);
  if (!file.ok()) return file.status();
  if (Status s = (*file)->Append(data); !s.ok()) return fail(s);
  if (Status s = (*file)->Sync(); !s.ok()) return fail(s);
  if (Status s = (*file)->Close(); !s.ok()) return fail(s);
  if (Status s = vfs.Rename(tmp, path); !s.ok()) return fail(s);
  return vfs.SyncDir(VfsDirName(path));
}

Vfs& DefaultVfs() {
  static PosixVfs vfs;
  return vfs;
}

// ---------------------------------------------------------------------
// PosixVfs

namespace {

Status ErrnoStatus(const char* op, const std::string& path, int err) {
  std::string message = std::string(op) + " " + path + ": " +
                        std::strerror(err);
  if (err == ENOENT) return NotFoundError(std::move(message));
  return IoError(std::move(message));
}

// Retry schedule for transient syscall failures. EINTR wants an immediate
// retry; a tiny base delay keeps EAGAIN storms polite without making the
// worst case (5 attempts) observable.
const RetryPolicy& PosixRetryPolicy() {
  static const RetryPolicy policy{/*max_attempts=*/5, /*base_delay_us=*/50,
                                  /*max_delay_us=*/2'000};
  return policy;
}

// Jitter streams must not be shared across threads (Rng is not
// thread-safe); successive loops draw distinct deterministic seeds.
Rng RetryRng() {
  static std::atomic<std::uint64_t> counter{0};
  return Rng(0x9E3779B97F4A7C15ull,
             counter.fetch_add(1, std::memory_order_relaxed));
}

bool IsTransientErrno(int err) {
  return err == EINTR || err == EAGAIN || err == EWOULDBLOCK;
}

// One retried syscall: `call` returns >= 0 on success and sets errno
// otherwise; the result lands in *out.
template <typename Call>
Status RetrySyscall(const char* op, const std::string& path, Call&& call,
                    long* out = nullptr) {
  int last_errno = 0;
  Rng rng = RetryRng();
  return RetryWithBackoff(
      PosixRetryPolicy(), rng,
      [&]() -> Status {
        long r = call();
        if (r >= 0) {
          if (out != nullptr) *out = r;
          return Status::Ok();
        }
        last_errno = errno;
        return ErrnoStatus(op, path, last_errno);
      },
      [&](const Status&) { return IsTransientErrno(last_errno); });
}

class PosixFile : public WritableFile {
 public:
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFile() override { Close(); }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return IoError("append to closed file: " + path_);
    const char* p = data.data();
    std::size_t n = data.size();
    while (n > 0) {
      long written = 0;
      Status s = RetrySyscall(
          "write", path_, [&]() { return static_cast<long>(::write(fd_, p, n)); },
          &written);
      if (!s.ok()) return s;
      p += written;
      n -= static_cast<std::size_t>(written);
    }
    return Status::Ok();
  }

  Status Sync() override {
    if (fd_ < 0) return IoError("sync of closed file: " + path_);
    return RetrySyscall("fsync", path_, [&]() { return ::fsync(fd_); });
  }

  Status Close() override {
    if (fd_ < 0) return Status::Ok();
    int fd = fd_;
    fd_ = -1;
    // POSIX leaves the fd state unspecified after EINTR from close;
    // retrying risks closing a recycled descriptor, so close once.
    if (::close(fd) != 0 && errno != EINTR) {
      return ErrnoStatus("close", path_, errno);
    }
    return Status::Ok();
  }

 private:
  int fd_;
  std::string path_;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> PosixVfs::Open(const std::string& path,
                                                     int flags) {
  long fd = -1;
  Status s = RetrySyscall(
      "open", path,
      [&]() { return static_cast<long>(::open(path.c_str(), flags, 0644)); },
      &fd);
  if (!s.ok()) return s;
  return std::unique_ptr<WritableFile>(
      new PosixFile(static_cast<int>(fd), path));
}

Result<std::unique_ptr<WritableFile>> PosixVfs::OpenAppend(
    const std::string& path) {
  return Open(path, O_WRONLY | O_CREAT | O_APPEND);
}

Result<std::unique_ptr<WritableFile>> PosixVfs::OpenTrunc(
    const std::string& path) {
  return Open(path, O_WRONLY | O_CREAT | O_TRUNC);
}

Result<std::string> PosixVfs::ReadFile(const std::string& path) {
  long fd = -1;
  Status s = RetrySyscall(
      "open", path,
      [&]() { return static_cast<long>(::open(path.c_str(), O_RDONLY)); },
      &fd);
  if (!s.ok()) return s;
  std::string out;
  char buf[1 << 16];
  for (;;) {
    long n = 0;
    s = RetrySyscall(
        "read", path,
        [&]() { return static_cast<long>(::read(fd, buf, sizeof(buf))); },
        &n);
    if (!s.ok()) {
      ::close(static_cast<int>(fd));
      return s;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(static_cast<int>(fd));
  return out;
}

Result<std::string> PosixVfs::ReadAt(const std::string& path,
                                     std::uint64_t offset,
                                     std::size_t length) {
  long fd = -1;
  Status s = RetrySyscall(
      "open", path,
      [&]() { return static_cast<long>(::open(path.c_str(), O_RDONLY)); },
      &fd);
  if (!s.ok()) return s;
  std::string out;
  out.resize(length);
  std::size_t got = 0;
  while (got < length) {
    long n = 0;
    s = RetrySyscall(
        "pread", path,
        [&]() {
          return static_cast<long>(
              ::pread(static_cast<int>(fd), out.data() + got, length - got,
                      static_cast<off_t>(offset + got)));
        },
        &n);
    if (!s.ok()) {
      ::close(static_cast<int>(fd));
      return s;
    }
    if (n == 0) break;  // EOF
    got += static_cast<std::size_t>(n);
  }
  ::close(static_cast<int>(fd));
  out.resize(got);
  return out;
}

Result<std::vector<std::string>> PosixVfs::ListDir(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) return names;
    return IoError("readdir " + dir + ": " + ec.message());
  }
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec) && !ec) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::uint64_t> PosixVfs::FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return ErrnoStatus("stat", path, errno);
  }
  return static_cast<std::uint64_t>(st.st_size);
}

Status PosixVfs::Rename(const std::string& from, const std::string& to) {
  return RetrySyscall("rename", from + " -> " + to,
                      [&]() { return ::rename(from.c_str(), to.c_str()); });
}

Status PosixVfs::Remove(const std::string& path) {
  return RetrySyscall("unlink", path,
                      [&]() { return ::unlink(path.c_str()); });
}

Status PosixVfs::SyncDir(const std::string& dir) {
  long fd = -1;
  Status s = RetrySyscall(
      "open", dir,
      [&]() { return static_cast<long>(::open(dir.c_str(), O_RDONLY)); },
      &fd);
  if (!s.ok()) return s;
  s = RetrySyscall("fsync", dir,
                   [&]() { return ::fsync(static_cast<int>(fd)); });
  ::close(static_cast<int>(fd));
  return s;
}

bool PosixVfs::Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status PosixVfs::CreateDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return IoError("mkdir " + dir + ": " + ec.message());
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// MemVfs

class MemVfs::MemFile : public WritableFile {
 public:
  MemFile(MemVfs* vfs, std::shared_ptr<Inode> inode, std::uint64_t epoch,
          std::string path)
      : vfs_(vfs), inode_(std::move(inode)), epoch_(epoch),
        path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    std::lock_guard<std::mutex> lock(vfs_->mutex_);
    if (epoch_ != vfs_->epoch_) {
      return IoError("write after crash: " + path_);
    }
    inode_->data.append(data);
    return Status::Ok();
  }

  Status Sync() override {
    std::lock_guard<std::mutex> lock(vfs_->mutex_);
    if (epoch_ != vfs_->epoch_) {
      return IoError("sync after crash: " + path_);
    }
    inode_->synced = inode_->data.size();
    return Status::Ok();
  }

  Status Close() override { return Status::Ok(); }

 private:
  MemVfs* vfs_;
  std::shared_ptr<Inode> inode_;
  std::uint64_t epoch_;
  std::string path_;
};

Result<std::string> MemVfs::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(path);
  if (it == live_.end()) return NotFoundError("open " + path);
  return it->second->data;
}

Result<std::string> MemVfs::ReadAt(const std::string& path,
                                   std::uint64_t offset, std::size_t length) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(path);
  if (it == live_.end()) return NotFoundError("open " + path);
  const std::string& data = it->second->data;
  if (offset >= data.size()) return std::string();
  return data.substr(offset, length);
}

Result<std::vector<std::string>> MemVfs::ListDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [path, inode] : live_) {  // map order: already sorted
    if (VfsDirName(path) == dir) {
      names.push_back(path.substr(path.find_last_of('/') + 1));
    }
  }
  return names;
}

Result<std::uint64_t> MemVfs::FileSize(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(path);
  if (it == live_.end()) return NotFoundError("stat " + path);
  return static_cast<std::uint64_t>(it->second->data.size());
}

Result<std::unique_ptr<WritableFile>> MemVfs::OpenAppend(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!dirs_.contains(VfsDirName(path))) {
    return NotFoundError("open " + path + ": no such directory");
  }
  auto it = live_.find(path);
  std::shared_ptr<Inode> inode;
  if (it != live_.end()) {
    inode = it->second;
  } else {
    inode = std::make_shared<Inode>();
    live_[path] = inode;
  }
  return std::unique_ptr<WritableFile>(
      new MemFile(this, std::move(inode), epoch_, path));
}

Result<std::unique_ptr<WritableFile>> MemVfs::OpenTrunc(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!dirs_.contains(VfsDirName(path))) {
    return NotFoundError("open " + path + ": no such directory");
  }
  auto inode = std::make_shared<Inode>();
  live_[path] = inode;
  // POSIX gives no ordering between an O_TRUNC reaching stable storage
  // and the rewritten bytes doing so: the size change may land at once.
  // The adversarial model therefore makes an in-place truncation of a
  // durably existing file durable immediately — a crash before the new
  // content syncs recovers an *empty* file, never the old bytes. (The
  // new content itself still needs Sync; a brand-new file's directory
  // entry still needs SyncDir. Rename-style rewrites are unaffected:
  // they truncate only their temp file.)
  if (auto it = durable_.find(path); it != durable_.end()) {
    it->second = inode;
  }
  return std::unique_ptr<WritableFile>(
      new MemFile(this, std::move(inode), epoch_, path));
}

Status MemVfs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(from);
  if (it == live_.end()) return IoError("rename " + from + ": not found");
  live_[to] = it->second;
  live_.erase(it);
  return Status::Ok();
}

Status MemVfs::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(path);
  if (it == live_.end()) return IoError("unlink " + path + ": not found");
  live_.erase(it);
  return Status::Ok();
}

Status MemVfs::SyncDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!dirs_.contains(dir)) {
    return IoError("fsync dir " + dir + ": not found");
  }
  // The durable view of this directory becomes the live view: creations,
  // renames, and removals inside it are now crash-proof.
  for (auto it = durable_.begin(); it != durable_.end();) {
    if (VfsDirName(it->first) == dir && !live_.contains(it->first)) {
      it = durable_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [path, inode] : live_) {
    if (VfsDirName(path) == dir) durable_[path] = inode;
  }
  return Status::Ok();
}

bool MemVfs::Exists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_.contains(path) || dirs_.contains(path);
}

Status MemVfs::CreateDirs(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Directory creation is modeled as immediately durable; entry-level
  // durability (the interesting part) is per-file via SyncDir.
  std::string prefix = dir.starts_with('/') ? "/" : "";
  for (std::string_view part : Split(std::string_view(dir), '/')) {
    if (part.empty()) continue;
    if (!prefix.empty() && prefix != "/") prefix += '/';
    prefix += part;
    dirs_.insert(prefix);
  }
  return Status::Ok();
}

void MemVfs::Crash() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++epoch_;
  // Unsynced content vanishes; unsynced directory operations roll back.
  for (auto& [path, inode] : live_) {
    if (inode->synced < inode->data.size()) inode->data.resize(inode->synced);
  }
  for (auto& [path, inode] : durable_) {
    if (inode->synced < inode->data.size()) inode->data.resize(inode->synced);
  }
  live_ = durable_;
}

// ---------------------------------------------------------------------
// FaultVfs

class FaultVfs::FaultFile : public WritableFile {
 public:
  FaultFile(FaultVfs* vfs, std::unique_ptr<WritableFile> base)
      : vfs_(vfs), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    bool torn = false;
    if (Status s = vfs_->Gate(&torn); !s.ok()) {
      if (torn) {
        std::size_t keep =
            std::min<std::size_t>(vfs_->plan_.torn_write_bytes, data.size());
        base_->Append(data.substr(0, keep));  // the torn sector lands
      }
      return s;
    }
    return base_->Append(data);
  }

  Status Sync() override {
    if (Status s = vfs_->Gate(nullptr); !s.ok()) return s;
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultVfs* vfs_;
  std::unique_ptr<WritableFile> base_;
};

Status FaultVfs::Gate(bool* torn) {
  if (crashed_) return IoError("simulated crash: filesystem is gone");
  ++ops_;
  if (plan_.crash_at_op != 0 && ops_ == plan_.crash_at_op) {
    crashed_ = true;
    if (torn != nullptr) *torn = true;
    return IoError("simulated crash during I/O");
  }
  if (plan_.fail_at_op != 0 && ops_ == plan_.fail_at_op) {
    return IoError(plan_.fail_enospc
                       ? "injected fault: No space left on device"
                       : "injected fault: Input/output error");
  }
  return Status::Ok();
}

Result<std::string> FaultVfs::ReadFile(const std::string& path) {
  if (crashed_) return IoError("simulated crash: filesystem is gone");
  return base_.ReadFile(path);
}

Result<std::string> FaultVfs::ReadAt(const std::string& path,
                                     std::uint64_t offset,
                                     std::size_t length) {
  if (crashed_) return IoError("simulated crash: filesystem is gone");
  return base_.ReadAt(path, offset, length);
}

Result<std::vector<std::string>> FaultVfs::ListDir(const std::string& dir) {
  if (crashed_) return IoError("simulated crash: filesystem is gone");
  return base_.ListDir(dir);
}

Result<std::uint64_t> FaultVfs::FileSize(const std::string& path) {
  if (crashed_) return IoError("simulated crash: filesystem is gone");
  return base_.FileSize(path);
}

Result<std::unique_ptr<WritableFile>> FaultVfs::OpenAppend(
    const std::string& path) {
  if (crashed_) return IoError("simulated crash: filesystem is gone");
  Result<std::unique_ptr<WritableFile>> base = base_.OpenAppend(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      new FaultFile(this, std::move(*base)));
}

Result<std::unique_ptr<WritableFile>> FaultVfs::OpenTrunc(
    const std::string& path) {
  // Truncation destroys data: it counts as a mutating op, so the sweep
  // can crash "between" the truncate and the first write of a rewrite.
  if (Status s = Gate(nullptr); !s.ok()) return s;
  Result<std::unique_ptr<WritableFile>> base = base_.OpenTrunc(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      new FaultFile(this, std::move(*base)));
}

Status FaultVfs::Rename(const std::string& from, const std::string& to) {
  if (Status s = Gate(nullptr); !s.ok()) return s;
  return base_.Rename(from, to);
}

Status FaultVfs::Remove(const std::string& path) {
  if (Status s = Gate(nullptr); !s.ok()) return s;
  return base_.Remove(path);
}

Status FaultVfs::SyncDir(const std::string& dir) {
  if (Status s = Gate(nullptr); !s.ok()) return s;
  return base_.SyncDir(dir);
}

bool FaultVfs::Exists(const std::string& path) {
  return !crashed_ && base_.Exists(path);
}

Status FaultVfs::CreateDirs(const std::string& dir) {
  if (crashed_) return IoError("simulated crash: filesystem is gone");
  return base_.CreateDirs(dir);
}

}  // namespace qf
