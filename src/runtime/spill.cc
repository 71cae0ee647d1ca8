#include "runtime/spill.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "runtime/metrics.h"
#include "runtime/trace.h"

namespace vcq::runtime {

namespace {

// Fires the named fault point if an injector is attached; mirrors the
// FaultHit helper used at the engines' allocation sites.
inline void SpillFault(FaultInjector* fault, const char* point,
                       const CancelToken* token) {
  if (fault != nullptr) fault->Hit(point, token);
}

[[noreturn]] void ThrowIo(const char* what, const std::string& path) {
  throw std::runtime_error(std::string("spill ") + what + " failed: " + path +
                           ": " + std::strerror(errno));
}

size_t EnvSpillLimit() {
  const char* env = std::getenv("VCQ_SPILL_LIMIT");
  if (env == nullptr || *env == '\0') return 0;
  return static_cast<size_t>(std::strtoull(env, nullptr, 10));
}

// Records one spill I/O span ("spill.write"/"spill.read"/"spill.open")
// with the byte count in `tuples` and the owning node's site. Event-path
// recording (mutex): spill I/O is milliseconds-scale, the lock is noise.
void SpillSpan(QueryTrace* trace, const char* name, uint64_t start_ns,
               uint32_t site, uint64_t bytes) {
  if (trace == nullptr) return;
  TraceSpan span;
  span.cat = "spill";
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = QueryTrace::NowNs();
  span.site = site;
  span.tuples = bytes;
  trace->AddEvent(std::move(span));
}

}  // namespace

// ---------------------------------------------------------------------------
// SpillFile

SpillFile::~SpillFile() {
  // Cleanup is fault-TOLERANT: this runs inside the SpillManager's
  // destructor (often during an unwind), so an injected spill.unlink fault
  // is absorbed instead of propagated — a completed query must not fail
  // because removing its scratch file hiccuped. The file is removed either
  // way.
  try {
    SpillFault(mgr_->fault_, "spill.unlink", mgr_->token_);
  } catch (...) {
    // Absorbed by design; the sweep test asserts the point still fires and
    // the query result is unaffected.
  }
  if (fd_ >= 0) ::close(fd_);
  ::unlink(path_.c_str());
}

void SpillFile::Append(uint32_t partition, const void* data, size_t bytes,
                       size_t rows) {
  // Strong guarantee: fault/limit/IO failures leave the segment index and
  // the byte accounting untouched, so an aborted spill never double-counts
  // and never records a segment it cannot read back.
  SpillFault(mgr_->fault_, "spill.write", mgr_->token_);
  mgr_->ChargeSpill(bytes);
  const uint64_t start_ns = QueryTrace::NowNs();
  const char* src = static_cast<const char*>(data);
  size_t done = 0;
  while (done < bytes) {
    ssize_t n = ::pwrite(fd_, src + done, bytes - done,
                         static_cast<off_t>(write_offset_ + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowIo("write", path_);
    }
    done += static_cast<size_t>(n);
  }
  segments_.push_back(Segment{partition, write_offset_, bytes, rows});
  write_offset_ += bytes;
  SpillSpan(mgr_->trace_, "spill.write", start_ns, site_, bytes);
}

void SpillFile::Read(const Segment& seg, void* out) const {
  SpillFault(mgr_->fault_, "spill.read", mgr_->token_);
  const uint64_t start_ns = QueryTrace::NowNs();
  char* dst = static_cast<char*>(out);
  size_t done = 0;
  while (done < seg.bytes) {
    ssize_t n = ::pread(fd_, dst + done, seg.bytes - done,
                        static_cast<off_t>(seg.offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowIo("read", path_);
    }
    if (n == 0) ThrowIo("read (truncated)", path_);
    done += static_cast<size_t>(n);
  }
  SpillSpan(mgr_->trace_, "spill.read", start_ns, site_, seg.bytes);
}

// ---------------------------------------------------------------------------
// SpillManager

SpillManager::SpillManager(size_t limit, FaultInjector* fault,
                           const CancelToken* token)
    : limit_(limit != 0 ? limit : EnvSpillLimit()),
      fault_(fault),
      token_(token) {}

SpillManager::~SpillManager() {
  std::lock_guard<std::mutex> lock(mu_);
  files_.clear();  // each SpillFile unlinks itself
  if (!dir_.empty()) ::rmdir(dir_.c_str());
}

std::string SpillManager::BaseDir() {
  if (const char* env = std::getenv("VCQ_SPILL_DIR"); env && *env) return env;
  if (const char* env = std::getenv("TMPDIR"); env && *env) return env;
  return "/tmp";
}

SpillFile* SpillManager::Create(const char* label, uint32_t site) {
  SpillFault(fault_, "spill.open", token_);
  const uint64_t start_ns = QueryTrace::NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  if (dir_.empty()) {
    // One directory per execution so concurrent runs (and leftover-file
    // assertions in tests) never interfere.
    static std::atomic<uint64_t> seq{0};
    std::string dir = BaseDir() + "/vcq-spill-" +
                      std::to_string(static_cast<long>(::getpid())) + "-" +
                      std::to_string(seq.fetch_add(1));
    if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST)
      ThrowIo("mkdir", dir);
    dir_ = std::move(dir);
  }
  std::string path =
      dir_ + "/" + label + "-" + std::to_string(files_.size()) + ".spill";
  int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) ThrowIo("open", path);
  files_.emplace_back(new SpillFile(this, fd, std::move(path), site));
  SpillSpan(trace_, "spill.open", start_ns, site, 0);
  return files_.back().get();
}

size_t SpillManager::file_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.size();
}

std::string SpillManager::dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dir_;
}

void SpillManager::ChargeSpill(size_t bytes) {
  size_t now =
      spilled_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (limit_ != 0 && now > limit_) {
    // Disk is a budget too: the run degrades no further and drains with
    // kResourceExhausted via the bad_alloc backstop.
    spilled_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    throw std::bad_alloc();
  }
  static metrics::Counter& spill_total =
      metrics::Registry::Global().GetCounter("vcq.spill.bytes_total");
  spill_total.Add(bytes);
}

}  // namespace vcq::runtime
