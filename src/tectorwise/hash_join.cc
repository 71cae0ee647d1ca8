#include "tectorwise/hash_join.h"

#include <cstring>

#include "tectorwise/primitives_simd.h"

namespace vcq::tectorwise {

using runtime::Hashmap;

HashJoin::HashJoin(Shared* shared, std::unique_ptr<Operator> build,
                   std::unique_ptr<Operator> probe, const ExecContext& ctx)
    : shared_(shared),
      build_(std::move(build)),
      probe_(std::move(probe)),
      ctx_(ctx) {
  // Governed runs charge materialize-phase chunks to the query ledger and
  // expose the allocation as a named fault point.
  pool_.Bind(ctx_.ledger, ctx_.fault, "tw.join.materialize");
  const size_t v = ctx_.vector_size;
  hashes_.Reset(v * sizeof(uint64_t));
  pos_.Reset(v * sizeof(pos_t));
  cand_.Reset(v * sizeof(Hashmap::EntryHeader*));
  cand_pos_.Reset(v * sizeof(pos_t));
  match_.Reset(v * sizeof(uint8_t));
  hits_.Reset(v * sizeof(Hashmap::EntryHeader*));
  hit_pos_.Reset(v * sizeof(pos_t));
}

size_t HashJoin::entry_size() const { return AlignUp(entry_bytes_, 8); }

void HashJoin::BuildPhase() {
  VCQ_CHECK_MSG(static_cast<bool>(build_hash_), "build hash not configured");
  const size_t stride = entry_size();
  uint64_t* hashes = hashes_.As<uint64_t>();
  pos_t* pos = pos_.As<pos_t>();

  size_t n;
  runtime::SpillFile* spill_file = nullptr;
  // Under spill pressure, evicts the materialized rows to a temp file and
  // releases the pool.
  const auto relieve = [&] {
    if (ctx_.spill == nullptr || chunks_.chunks.empty() ||
        ctx_.ledger == nullptr || !ctx_.ledger->UnderPressure())
      return;
    if (spill_file == nullptr)
      spill_file = ctx_.spill->Create("tw.join", ctx_.site);
    chunks_.SpillTo(spill_file, stride);
    pool_.Release();
  };
  while ((n = build_->Next()) != kEndOfStream) {
    if (n == 0) continue;
    build_hash_(n, build_->sel(), hashes, pos);
    for (const RehashStep& step : build_rehash_) step(n, pos, hashes);
    // Relieve pressure only where the pool would grow: spill I/O then
    // follows the bytes (one write per chunk), not the batch count.
    if (pool_.WouldGrow(n * stride)) relieve();
    auto* base = static_cast<std::byte*>(pool_.Allocate(n * stride));
    ScatterHashes(n, hashes, base, stride);
    for (const ScatterStep& step : scatter_steps_)
      step(n, pos, base, stride);
    chunks_.Add(base, n);
  }
  // The last, partial chunk: spilled before the build takes its arena, so
  // pool and arena never hold the rows twice under pressure.
  relieve();
  shared_->build.Run(std::move(chunks_), stride);
  // Every entry now lives in the build's arena: free this worker's
  // materialize-phase chunks instead of carrying them through the probe.
  pool_.Release();
  built_ = true;
}

size_t HashJoin::Next() {
  if (!built_) BuildPhase();
  VCQ_CHECK_MSG(static_cast<bool>(probe_hash_), "probe hash not configured");
  VCQ_CHECK_MSG(!compare_steps_.empty(), "key compares not configured");

  uint64_t* hashes = hashes_.As<uint64_t>();
  pos_t* pos = pos_.As<pos_t>();
  auto** cand = cand_.As<Hashmap::EntryHeader*>();
  pos_t* cand_pos = cand_pos_.As<pos_t>();
  uint8_t* match = match_.As<uint8_t>();
  auto** hits = hits_.As<Hashmap::EntryHeader*>();
  pos_t* hit_pos = hit_pos_.As<pos_t>();
  const bool use_simd = ctx_.use_simd && simd::Available();
  const size_t vsize = ctx_.vector_size;

  // Shift the carry-over from the last emission to the buffer front.
  if (out_emitted_ > 0) {
    const size_t rest = out_pending_ - out_emitted_;
    if (rest > 0) {
      for (Output& o : outputs_) {
        auto* base = static_cast<std::byte*>(o.buffer.data());
        std::memmove(base, base + out_emitted_ * o.elem_size,
                     rest * o.elem_size);
      }
    }
    out_pending_ = rest;
    out_emitted_ = 0;
  }

  const auto emit = [this](size_t m) {
    out_emitted_ = m;
    sel_ = nullptr;
    return m;
  };

  while (true) {
    // Drain the candidate set of the current probe batch first. Each round
    // compares every candidate against its chain entry, gathers this
    // round's matches, and advances all candidates along ->next — a build
    // side with duplicate keys emits one output row per matching chain
    // entry, so a single probe batch can produce more than vector_size
    // rows. The candidate set survives emission (member buffers; the probe
    // child's batch stays valid until its next Next), which keeps every
    // per-round buffer bounded by vector_size.
    while (cand_rem_ > 0) {
      for (const CmpStep& step : compare_steps_)
        step(cand_rem_, cand, cand_pos, match);
      size_t hit_count = 0;
      cand_rem_ = ExtractHitsAdvance(cand_rem_, cand, cand_pos, match, hits,
                                     hit_pos, hit_count);
      if (hit_count == 0) continue;

      // Gather this round's hits behind whatever is already pending (hit
      // positions only stay valid while the probe batch is current).
      for (const Output& o : outputs_) o.gather(hit_count, out_pending_);
      out_pending_ += hit_count;
      if (out_pending_ == hit_count && !IsSparse(hit_count, vsize)) {
        // Dense enough and nothing buffered: emit with no extra latency.
        return emit(out_pending_);
      }
      if (out_pending_ >= vsize) return emit(vsize);
    }
    if (probe_eos_) {
      if (out_pending_ > 0) return emit(out_pending_);
      return kEndOfStream;
    }
    const size_t n = probe_->Next();
    if (n == kEndOfStream) {
      probe_eos_ = true;
      continue;
    }
    if (n == 0) continue;
    probe_hash_(n, probe_->sel(), hashes, pos);
    for (const RehashStep& step : probe_rehash_) step(n, pos, hashes);

    cand_rem_ = use_simd ? simd::JoinCandidates(n, hashes, pos, shared_->ht,
                                                cand, cand_pos)
                         : JoinCandidates(n, hashes, pos, shared_->ht, cand,
                                          cand_pos);
  }
}

}  // namespace vcq::tectorwise
