#ifndef VCQ_RUNTIME_SPILL_H_
#define VCQ_RUNTIME_SPILL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/cancel.h"
#include "runtime/fault_injector.h"

// Temp-file-backed partition spill — the "degrade, don't die" layer under
// the memory governor. When a run enables spill (QueryOptions::spill), a
// memory-budget overage becomes spill PRESSURE instead of a
// kResourceExhausted trip (QueryLedger::UnderPressure): operators that can
// evict state — the join builds' materialize-phase chunks, the group-by
// row blocks a full local table flushes — write it to segmented temp files
// Grace-style and release the memory, then the build insert / group merge
// streams the spilled segments back partition-at-a-time. Results are
// byte-identical to in-memory runs; only the peak resident footprint
// changes.
//
// Accounting and containment. Spilled bytes are counted per execution
// (SpillManager::spilled_bytes) against an optional byte limit
// (QueryOptions::spill_limit, env VCQ_SPILL_LIMIT): a run that would spill
// past the limit throws std::bad_alloc, which the scheduler backstop turns
// into the familiar sticky kResourceExhausted drain — disk is a budget
// too. Every I/O site is a named fault-injection point (spill.open /
// spill.write / spill.read / spill.unlink), so the sweep test can kill a
// spill at any byte and assert the zero-leak drain. Cleanup is
// fault-TOLERANT: an injected failure at spill.unlink is absorbed (a
// completed query must not fail because removing its scratch file hiccuped)
// and the file is still removed.
//
// File layout: one SpillManager per execution owns a unique directory
// (VCQ_SPILL_DIR or the system temp dir; "vcq-spill-<pid>-<seq>/") and
// hands out SpillFiles — one per (operator, worker), single writer each.
// Appends are segmented: a segment records (partition, offset, bytes,
// rows) so a reader can stream one partition's rows back in write order.
// The manager's destructor unlinks every file and removes the directory on
// every exit path, success or unwind.

namespace vcq::runtime {

/// One spill file: segmented appends by a single writer, positional reads
/// by any thread after the writer's phase barrier.
class SpillFile {
 public:
  struct Segment {
    uint32_t partition;  ///< Writer-chosen label (hash partition / 0).
    uint64_t offset;     ///< Byte offset in the file.
    uint64_t bytes;      ///< Segment payload size.
    uint64_t rows;       ///< Row count (bytes / row stride).
  };

  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends one segment. Fault point "spill.write" fires before the
  /// write; a short write or I/O error throws (std::bad_alloc for the
  /// injected fault, std::runtime_error for a real disk failure), with the
  /// segment index and byte accounting untouched.
  void Append(uint32_t partition, const void* data, size_t bytes,
              size_t rows);

  /// Reads segment payload into `out` (must hold seg.bytes). Fault point
  /// "spill.read" fires before the read.
  void Read(const Segment& seg, void* out) const;

  /// Segments in write order (creation order of the spilled rows — the
  /// byte-identity contract of the group merge depends on it).
  const std::vector<Segment>& segments() const { return segments_; }
  /// Total payload bytes appended to this file.
  size_t bytes_written() const { return write_offset_; }

 private:
  friend class SpillManager;
  SpillFile(class SpillManager* mgr, int fd, std::string path, uint32_t site)
      : mgr_(mgr), fd_(fd), path_(std::move(path)), site_(site) {}

  class SpillManager* mgr_;
  int fd_;
  std::string path_;
  uint32_t site_;  ///< Plan-node index for trace attribution.
  uint64_t write_offset_ = 0;
  std::vector<Segment> segments_;
};

/// Per-execution spill state: owns the run's spill directory and files,
/// accounts spilled bytes against the spill byte limit, and cleans
/// everything up on destruction (every exit path).
class SpillManager {
 public:
  /// `limit` bounds total spilled bytes for the execution (0 = take
  /// VCQ_SPILL_LIMIT from the environment, else unlimited). `fault` and
  /// `token` thread the run's failure-containment context through the I/O
  /// fault points; either may be nullptr.
  SpillManager(size_t limit, FaultInjector* fault, const CancelToken* token);
  ~SpillManager();
  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// Opens a new spill file (fault point "spill.open"); the returned file
  /// is owned by the manager and lives until the manager is destroyed.
  /// `label` names the spilling site in the file name (diagnostics only);
  /// `site` is the plan-node index the file's I/O is attributed to in
  /// trace spans (UINT32_MAX = not node-scoped, e.g. Typer's fused
  /// pipelines). Thread-safe: concurrent workers create their files
  /// independently.
  SpillFile* Create(const char* label, uint32_t site = UINT32_MAX);

  /// Attaches the execution's span sink (runtime/trace.h): every
  /// spill.open/write/read becomes a trace span carrying the byte count
  /// and the owning node's site. Set by vcq::PreparedQuery before the
  /// run; nullptr (the default) records nothing.
  void SetTrace(class QueryTrace* trace) { trace_ = trace; }

  /// Total bytes spilled by this execution so far.
  size_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }
  /// Spill files created by this execution.
  size_t file_count() const;
  /// The execution's spill directory ("" until the first Create).
  std::string dir() const;

  /// Resolved base directory for spill files: VCQ_SPILL_DIR, else TMPDIR,
  /// else /tmp. Re-read per call so tests can redirect it.
  static std::string BaseDir();

 private:
  friend class SpillFile;
  /// Books `bytes` of spill; throws std::bad_alloc past the limit (the
  /// backstop converts it to kResourceExhausted — disk is a budget too).
  void ChargeSpill(size_t bytes);

  const size_t limit_;
  FaultInjector* fault_;
  const CancelToken* token_;
  class QueryTrace* trace_ = nullptr;
  std::atomic<size_t> spilled_bytes_{0};

  mutable std::mutex mu_;
  std::string dir_;  // created lazily on first Create (guarded by mu_)
  std::vector<std::unique_ptr<SpillFile>> files_;  // guarded by mu_
};

}  // namespace vcq::runtime

#endif  // VCQ_RUNTIME_SPILL_H_
