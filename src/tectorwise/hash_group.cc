#include "tectorwise/hash_group.h"

#include <algorithm>
#include <cstdint>

namespace vcq::tectorwise {

using runtime::Hashmap;

HashGroup::HashGroup(Shared* shared, size_t worker_id, size_t worker_count,
                     std::unique_ptr<Operator> child, const ExecContext& ctx)
    : shared_(shared),
      worker_id_(worker_id),
      worker_count_(worker_count),
      child_(std::move(child)),
      ctx_(ctx),
      compactor_(ctx.vector_size) {
  merge_pool_.Bind(ctx_.ledger, ctx_.fault, "tw.group.merge");
  const size_t v = ctx_.vector_size;
  hashes_.Reset(v * sizeof(uint64_t));
  pos_.Reset(v * sizeof(pos_t));
  groups_.Reset(v * sizeof(std::byte*));
  cand_.Reset(v * sizeof(Hashmap::EntryHeader*));
  cand_k_.Reset(v * sizeof(pos_t));
  cand_pos_.Reset(v * sizeof(pos_t));
  match_.Reset(v * sizeof(uint8_t));
  emit_entries_.Reset(v * sizeof(std::byte*));
}

size_t HashGroup::AddAgg(Slot* col, AggKind kind) {
  if (agg_begin_ == 0) agg_begin_ = agg_end_ = AlignUp(key_end_, 8);
  const size_t offset = agg_end_;
  agg_end_ += sizeof(int64_t);
  aggs_.push_back(AggDecl{offset, col, kind});
  if (col != nullptr) CompactColumn<int64_t>(ctx_, compactor_, col);
  return offset;
}

size_t HashGroup::AddSumAgg(Slot* col) { return AddAgg(col, AggKind::kSum); }

size_t HashGroup::AddCountAgg() { return AddAgg(nullptr, AggKind::kCount); }

size_t HashGroup::AddMinAgg(Slot* col) { return AddAgg(col, AggKind::kMin); }

size_t HashGroup::AddMaxAgg(Slot* col) { return AddAgg(col, AggKind::kMax); }

runtime::GroupEnv HashGroup::env() const {
  // Governed runs charge the row blocks and both directories to the query
  // ledger and expose the allocations as named fault points.
  return {ctx_.cancel, ctx_.fault, ctx_.ledger,      ctx_.spill,
          ctx_.trace,  ctx_.site,  "tw.group.alloc", "tw.group.merge",
          "tw.group"};
}

std::byte* HashGroup::InsertGroup(uint64_t hash, pos_t p) {
  // Re-check the chain first: an earlier miss in this batch may have
  // created the group already.
  for (Hashmap::EntryHeader* e = local_->directory().FindChainTagged(hash);
       e != nullptr; e = e->next) {
    if (e->hash != hash) continue;
    auto* bytes = reinterpret_cast<std::byte*>(e);
    bool equal = true;
    for (const KeySteps& key : key_steps_) {
      if (!key.equal(bytes, p)) {
        equal = false;
        break;
      }
    }
    if (equal) return bytes;
  }
  std::byte* entry = local_->Insert(hash);
  // Zero the key region (memcmp-comparable padding) and the aggregates,
  // then overwrite min/max accumulators with their fold identities.
  std::memset(entry + sizeof(Hashmap::EntryHeader), 0,
              entry_size() - sizeof(Hashmap::EntryHeader));
  for (const AggDecl& agg : aggs_) {
    if (agg.kind == AggKind::kMin) {
      *reinterpret_cast<int64_t*>(entry + agg.offset) = INT64_MAX;
    } else if (agg.kind == AggKind::kMax) {
      *reinterpret_cast<int64_t*>(entry + agg.offset) = INT64_MIN;
    }
  }
  for (const KeySteps& key : key_steps_) key.init(entry, p);
  return entry;
}

void HashGroup::FindGroups(size_t n) {
  uint64_t* hashes = hashes_.As<uint64_t>();
  pos_t* pos = pos_.As<pos_t>();
  std::byte** groups = groups_.As<std::byte*>();
  auto** cand = cand_.As<Hashmap::EntryHeader*>();
  pos_t* cand_k = cand_k_.As<pos_t>();
  pos_t* cand_pos = cand_pos_.As<pos_t>();
  uint8_t* match = match_.As<uint8_t>();

  for (size_t k = 0; k < n; ++k) groups[k] = nullptr;

  // findCandidates against the local table (vectorized fast path).
  const Hashmap& local = local_->directory();
  size_t m = 0;
  for (size_t k = 0; k < n; ++k) {
    Hashmap::EntryHeader* e = local.FindChainTagged(hashes[k]);
    cand[m] = e;
    cand_k[m] = static_cast<pos_t>(k);
    cand_pos[m] = pos[k];
    m += (e != nullptr) ? 1 : 0;
  }
  while (m > 0) {
    bool first = true;
    for (const KeySteps& key : key_steps_) {
      key.compare(m, cand, cand_pos, match, first);
      first = false;
    }
    size_t survivors = 0;
    for (size_t j = 0; j < m; ++j) {
      if (match[j]) {
        groups[cand_k[j]] = reinterpret_cast<std::byte*>(cand[j]);
      } else {
        Hashmap::EntryHeader* next = cand[j]->next;
        cand[survivors] = next;
        cand_k[survivors] = cand_k[j];
        cand_pos[survivors] = cand_pos[j];
        survivors += (next != nullptr) ? 1 : 0;
      }
    }
    m = survivors;
  }

  // Scalar insert path for group-less tuples.
  for (size_t k = 0; k < n; ++k) {
    if (groups[k] == nullptr) groups[k] = InsertGroup(hashes[k], pos[k]);
  }
}

void HashGroup::ProcessBatch(size_t n, const pos_t* sel) {
  // Batch boundary (no group pointer is held across it): create the table
  // once the joins below have built, so their peak excludes its directory,
  // or flush it when full.
  if (local_ == nullptr) {
    local_ = std::make_unique<runtime::LocalGroups>(entry_size(), env());
  } else if (local_->full()) {
    local_->Flush();
  }
  uint64_t* hashes = hashes_.As<uint64_t>();
  pos_t* pos = pos_.As<pos_t>();
  std::byte** groups = groups_.As<std::byte*>();

  bool first = true;
  for (const KeyHashKind& h : hash_steps_) {
    if (first) {
      h.hash(n, sel, hashes, pos);
      first = false;
    } else {
      h.rehash(n, pos, hashes);
    }
  }
  FindGroups(n);
  // Aggregate updates (vectorized primitives over the group pointers).
  for (const AggDecl& agg : aggs_) {
    switch (agg.kind) {
      case AggKind::kCount:
        AggCount(n, groups, agg.offset);
        break;
      case AggKind::kSum:
        AggSum(n, groups, agg.offset, pos, Get<int64_t>(agg.col));
        break;
      case AggKind::kMin:
        AggMin(n, groups, agg.offset, pos, Get<int64_t>(agg.col));
        break;
      case AggKind::kMax:
        AggMax(n, groups, agg.offset, pos, Get<int64_t>(agg.col));
        break;
    }
  }
}

void HashGroup::ConsumeChild() {
  VCQ_CHECK_MSG(!key_steps_.empty(), "group keys not configured");

  size_t n;
  while ((n = child_->Next()) != kEndOfStream) {
    if (n == 0) continue;
    const pos_t* sel = child_->sel();
    // Dense batches are processed in place even while sparse rows are
    // pending — aggregation is order-insensitive, so the backlog can keep
    // accumulating.
    if (!compactor_.ShouldCompact(n)) {
      ProcessBatch(n, sel);
      continue;
    }
    compactor_.Append(n, sel);
    if (compactor_.Full()) {
      ProcessBatch(compactor_.Flush(), nullptr);
      compactor_.BeginBatch();  // restore slots before the next child batch
    }
  }
  while (compactor_.pending() > 0) {
    ProcessBatch(compactor_.Flush(), nullptr);
    compactor_.BeginBatch();
  }
  shared_->locals[worker_id_] = local_.get();

  // Token-aware phase barriers: a worker that died mid-scan (exception
  // backstop) never arrives, so waiters poll the tripped token, withdraw
  // and skip the merge. An aborted worker emits nothing — the run's result
  // is discarded once the sticky trip surfaces.
  if (shared_->barrier.WaitOrAbort(ctx_.cancel) !=
      runtime::BarrierStatus::kAborted) {
    MergePartitions();
    shared_->barrier.WaitOrAbort(ctx_.cancel);
  }
  consumed_ = true;
  emit_partition_ =
      runtime::Interrupted(ctx_.cancel) ? kPartitions : worker_id_;
  emit_index_ = 0;
}

void HashGroup::MergePartitions() {
  const size_t key_offset = sizeof(Hashmap::EntryHeader);
  const size_t key_len = key_end_ - key_offset;
  runtime::MergeGroups(
      shared_->locals, worker_id_, worker_count_, env(), merge_pool_,
      shared_->merged,
      [&](const std::byte* a, const std::byte* b) {
        return std::memcmp(a + key_offset, b + key_offset, key_len) == 0;
      },
      [&](std::byte* into, const std::byte* from) {
        for (const AggDecl& agg : aggs_) {
          int64_t& acc = *reinterpret_cast<int64_t*>(into + agg.offset);
          const int64_t v =
              *reinterpret_cast<const int64_t*>(from + agg.offset);
          acc = agg.kind == AggKind::kMin   ? std::min(acc, v)
                : agg.kind == AggKind::kMax ? std::max(acc, v)
                                            : acc + v;  // sum, count
        }
      });
}

size_t HashGroup::Next() {
  if (!consumed_) ConsumeChild();
  // Emit merged groups from owned partitions, one vector at a time, packing
  // groups from consecutive owned partitions into full vectors (group order
  // is the partition order; a batch may span partitions).
  std::byte** entries = emit_entries_.As<std::byte*>();
  size_t n = 0;
  while (n < ctx_.vector_size && emit_partition_ < kPartitions) {
    const std::vector<std::byte*>& part = shared_->merged[emit_partition_];
    if (emit_index_ >= part.size()) {
      emit_partition_ += worker_count_;
      emit_index_ = 0;
      continue;
    }
    const size_t take =
        std::min(ctx_.vector_size - n, part.size() - emit_index_);
    std::memcpy(entries + n, part.data() + emit_index_,
                take * sizeof(std::byte*));
    n += take;
    emit_index_ += take;
  }
  if (n == 0) return kEndOfStream;
  for (const Output& o : outputs_) o.gather(n, entries);
  sel_ = nullptr;
  return n;
}

}  // namespace vcq::tectorwise
