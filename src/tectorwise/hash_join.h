#ifndef VCQ_TECTORWISE_HASH_JOIN_H_
#define VCQ_TECTORWISE_HASH_JOIN_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/bit_util.h"
#include "runtime/barrier.h"
#include "runtime/hashmap.h"
#include "runtime/mem_pool.h"
#include "tectorwise/core.h"
#include "tectorwise/operators.h"
#include "tectorwise/steps.h"

namespace vcq::tectorwise {

/// Vectorized hash join (paper Fig. 2b, §2.2). Duplicate build keys are
/// supported: every matching chain entry yields an output row (N:M join),
/// with the candidate set drained round by round so each round's hit batch
/// stays within vector_size.
///
/// Build: each worker drains its build child, materializes key+payload rows
/// into arena-allocated entries (probeHash-style expressions compute the
/// hashes; scatter primitives fill the rows), then hands its chunk list to
/// the shared runtime::JoinBuild, which sizes the table at a barrier, then
/// has each worker copy its rows into its segment of one entry arena and
/// insert them (paper §6.1's shared-state + barrier scheme). The worker's
/// materialize pool is freed right after.
///
/// Probe: hash primitives -> findCandidates (Bloom-tagged directory) ->
/// compareKeys primitives (one per key column) -> extractHits/advance loop
/// -> buildGather + probe-side gathers into dense output vectors.
///
/// The probe output is a compaction point (compaction.h): a round whose
/// hits are sparse (below kCompactionThreshold of vector_size) is not
/// emitted on its own — the join keeps probing and gathers later rounds
/// behind it until a full vector has accumulated.
class HashJoin : public Operator {
 public:
  struct Shared {
    /// `env` carries the run's failure-containment token, fault injector
    /// and memory ledger into the shared build protocol (empty = the
    /// ungoverned seed behavior; standalone tests construct it that way).
    explicit Shared(size_t thread_count, runtime::JoinBuildEnv env = {})
        : build(&ht, thread_count, env) {}
    runtime::Hashmap ht;
    runtime::JoinBuild build;
  };

  HashJoin(Shared* shared, std::unique_ptr<Operator> build,
           std::unique_ptr<Operator> probe, const ExecContext& ctx);

  // --- build-side configuration (call before first Next) -------------------

  /// Appends a field to the entry layout, filled from `col` during build;
  /// returns its byte offset (for key compares and build outputs).
  template <typename T>
  size_t AddBuildField(const Slot* col) {
    const size_t offset = AlignUp(entry_bytes_, alignof(T));
    entry_bytes_ = offset + sizeof(T);
    scatter_steps_.push_back(
        [col, offset](size_t n, const pos_t* pos, std::byte* base,
                      size_t stride) {
          ScatterToEntries<T>(n, pos, Get<T>(col), base, stride, offset);
        });
    return offset;
  }

  void SetBuildHash(HashStep step) { build_hash_ = std::move(step); }
  void AddBuildRehash(RehashStep step) {
    build_rehash_.push_back(std::move(step));
  }

  // --- probe-side configuration -----------------------------------------

  void SetProbeHash(HashStep step) { probe_hash_ = std::move(step); }
  void AddProbeRehash(RehashStep step) {
    probe_rehash_.push_back(std::move(step));
  }

  /// Key equality between probe column and entry field (one per key column;
  /// composite keys add several — the constraint of Fig. 2b).
  template <typename T>
  void AddKeyCompare(const Slot* probe_col, size_t build_field_offset) {
    const bool first = compare_steps_.empty();
    compare_steps_.push_back(
        [probe_col, build_field_offset, first](
            size_t m, runtime::Hashmap::EntryHeader* const* cand,
            const pos_t* cand_pos, uint8_t* match) {
          if (first) {
            CmpEntryKeyInit<T>(m, cand, cand_pos, Get<T>(probe_col),
                               build_field_offset, match);
          } else {
            CmpEntryKeyAnd<T>(m, cand, cand_pos, Get<T>(probe_col),
                              build_field_offset, match);
          }
        });
  }

  // --- outputs ------------------------------------------------------------
  // Output buffers hold 2 * vector_size rows: a sparse round's hits wait
  // in them until a full vector of hits has accumulated, so a batch's hits
  // can straddle the vector_size emission boundary; the overhang is
  // carried to the front on the next Next() call. Gathers happen per
  // probe round (hit positions refer to the current batch), so
  // accumulation only changes the emission cadence, not the gather work.

  /// Build-side column (entry field) gathered into a dense output vector.
  template <typename T>
  Slot* AddBuildOutput(size_t field_offset) {
    outputs_.push_back(Output{VecBuffer(2 * ctx_.vector_size * sizeof(T)),
                              std::make_unique<Slot>(), sizeof(T), {}});
    Output& o = outputs_.back();
    o.slot->ptr = o.buffer.data();
    T* out = o.buffer.As<T>();
    o.gather = [this, field_offset, out](size_t m, size_t at) {
      GatherEntry<T>(m, hits_.As<runtime::Hashmap::EntryHeader*>(),
                     field_offset, out + at);
    };
    return o.slot.get();
  }

  /// Probe-side column compacted through the hit positions.
  template <typename T>
  Slot* AddProbeOutput(const Slot* col) {
    outputs_.push_back(Output{VecBuffer(2 * ctx_.vector_size * sizeof(T)),
                              std::make_unique<Slot>(), sizeof(T), {}});
    Output& o = outputs_.back();
    o.slot->ptr = o.buffer.data();
    T* out = o.buffer.As<T>();
    o.gather = [this, col, out](size_t m, size_t at) {
      GatherPos<T>(m, hit_pos_.As<pos_t>(), Get<T>(col), out + at);
    };
    return o.slot.get();
  }

  size_t Next() override;

  /// Entry row size including the header (working-set sizing, Fig. 9).
  size_t entry_size() const;

 private:
  struct Output {
    VecBuffer buffer;
    std::unique_ptr<Slot> slot;
    size_t elem_size;
    std::function<void(size_t m, size_t at)> gather;
  };
  using ScatterStep = std::function<void(size_t n, const pos_t* pos,
                                         std::byte* base, size_t stride)>;
  using CmpStep =
      std::function<void(size_t m, runtime::Hashmap::EntryHeader* const* cand,
                         const pos_t* cand_pos, uint8_t* match)>;

  void BuildPhase();

  Shared* shared_;
  std::unique_ptr<Operator> build_;
  std::unique_ptr<Operator> probe_;
  ExecContext ctx_;

  HashStep build_hash_;
  std::vector<RehashStep> build_rehash_;
  std::vector<ScatterStep> scatter_steps_;
  HashStep probe_hash_;
  std::vector<RehashStep> probe_rehash_;
  std::vector<CmpStep> compare_steps_;
  std::vector<Output> outputs_;

  size_t entry_bytes_ = sizeof(runtime::Hashmap::EntryHeader);
  runtime::MemPool pool_;  // worker-local entry storage (materialize phase)
  runtime::EntryChunkList chunks_;
  bool built_ = false;
  bool probe_eos_ = false;
  size_t cand_rem_ = 0;  // live candidates of the current probe batch

  // Probe-output accumulation state (batch compaction of the join result).
  size_t out_pending_ = 0;  // gathered rows not yet emitted
  size_t out_emitted_ = 0;  // rows published by the last emission

  // Probe scratch vectors.
  VecBuffer hashes_;
  VecBuffer pos_;
  VecBuffer cand_;
  VecBuffer cand_pos_;
  VecBuffer match_;
  VecBuffer hits_;
  VecBuffer hit_pos_;
};

}  // namespace vcq::tectorwise

#endif  // VCQ_TECTORWISE_HASH_JOIN_H_
