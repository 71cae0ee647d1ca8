#include "tectorwise/operators.h"

#include <algorithm>
#include <cstdint>

namespace vcq::tectorwise {

size_t Scan::Next() {
  if (morsel_begin_ >= morsel_end_) {
    // Cancellation polls at morsel boundaries: an interrupted scan stops
    // claiming work and reports end-of-stream, so the pipeline above
    // drains normally (barriers stay balanced, partial hash tables are
    // never probed — the trip is sticky and phases are ordered). The poll
    // doubles as this engine's densest fault point.
    runtime::FaultHit(fault_, "scan.morsel", cancel_);
    if (runtime::Interrupted(cancel_) ||
        !shared_->morsels.Next(morsel_begin_, morsel_end_)) {
      return kEndOfStream;
    }
  }
  const size_t n = std::min(vector_size_, morsel_end_ - morsel_begin_);
  for (Column& c : columns_)
    c.slot->ptr = c.base + morsel_begin_ * c.elem_size;
  morsel_begin_ += n;
  sel_ = nullptr;
  return n;
}

Select::Select(std::unique_ptr<Operator> child, size_t vector_size)
    : child_(std::move(child)),
      buf_a_(vector_size * sizeof(pos_t)),
      buf_b_(vector_size * sizeof(pos_t)),
      compactor_(vector_size) {}

size_t Select::Next() {
  compactor_.BeginBatch();
  while (true) {
    if (child_eos_) {
      if (compactor_.pending() > 0) {
        sel_ = nullptr;
        return compactor_.Flush();
      }
      return kEndOfStream;
    }
    const size_t n = child_->Next();
    if (n == kEndOfStream) {
      child_eos_ = true;
      continue;
    }
    const pos_t* sel = child_->sel();
    size_t count = n;
    pos_t* out = buf_a_.As<pos_t>();
    pos_t* spare = buf_b_.As<pos_t>();
    for (const SelStep& step : steps_) {
      count = step(count, sel, out);
      sel = out;
      std::swap(out, spare);
      if (count == 0) break;
    }
    // All tuples filtered: pull the next batch instead of emitting empties.
    if (count == 0) continue;
    // Dense batches pass through untouched, even while sparse rows are
    // pending — those already live in the compactor's own buffers and can
    // wait for the backlog to fill up (batch order is not significant).
    if (!compactor_.ShouldCompact(count)) {
      sel_ = sel;
      return count;
    }
    compactor_.Append(count, sel);
    if (compactor_.Full()) {
      sel_ = nullptr;
      return compactor_.Flush();
    }
  }
}

size_t Map::Next() {
  const size_t n = child_->Next();
  if (n == kEndOfStream) return kEndOfStream;
  sel_ = child_->sel();
  for (const MapStep& step : steps_) step(n, sel_);
  return n;
}

Slot* FixedAggregation::AddAgg(const Slot* input, AggKind kind) {
  aggs_.push_back(std::make_unique<Agg>());
  Agg& a = *aggs_.back();
  a.input = input;
  a.kind = kind;
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kCount:
      a.total = 0;
      break;
    case AggKind::kMin:
      a.total = INT64_MAX;
      break;
    case AggKind::kMax:
      a.total = INT64_MIN;
      break;
  }
  a.slot = std::make_unique<Slot>();
  a.slot->ptr = &a.total;
  return a.slot.get();
}

Slot* FixedAggregation::AddSumI64(const Slot* input) {
  return AddAgg(input, AggKind::kSum);
}

Slot* FixedAggregation::AddCount() { return AddAgg(nullptr, AggKind::kCount); }

Slot* FixedAggregation::AddMinI64(const Slot* input) {
  return AddAgg(input, AggKind::kMin);
}

Slot* FixedAggregation::AddMaxI64(const Slot* input) {
  return AddAgg(input, AggKind::kMax);
}

size_t FixedAggregation::Next() {
  if (done_) return kEndOfStream;
  size_t n;
  while ((n = child_->Next()) != kEndOfStream) {
    const pos_t* sel = child_->sel();
    for (auto& agg : aggs_) {
      if (agg->kind == AggKind::kCount) {
        agg->total += static_cast<int64_t>(n);
        continue;
      }
      const int64_t* col = Get<int64_t>(agg->input);
      switch (agg->kind) {
        case AggKind::kSum: {
          int64_t acc = 0;
          if (sel == nullptr) {
            for (size_t p = 0; p < n; ++p) acc += col[p];
          } else {
            for (size_t k = 0; k < n; ++k) acc += col[sel[k]];
          }
          agg->total += acc;
          break;
        }
        case AggKind::kMin: {
          int64_t acc = agg->total;
          if (sel == nullptr) {
            for (size_t p = 0; p < n; ++p) acc = std::min(acc, col[p]);
          } else {
            for (size_t k = 0; k < n; ++k) acc = std::min(acc, col[sel[k]]);
          }
          agg->total = acc;
          break;
        }
        case AggKind::kMax: {
          int64_t acc = agg->total;
          if (sel == nullptr) {
            for (size_t p = 0; p < n; ++p) acc = std::max(acc, col[p]);
          } else {
            for (size_t k = 0; k < n; ++k) acc = std::max(acc, col[sel[k]]);
          }
          agg->total = acc;
          break;
        }
        case AggKind::kCount:
          break;
      }
    }
  }
  done_ = true;
  return 1;  // one result row; slots point at the totals
}

Slot* OrderedAggregation::AddKeyChar1(const Slot* input) {
  VCQ_CHECK_MSG(keys_.size() < kMaxKeys, "too many ordered-agg key columns");
  keys_.push_back(input);
  key_out_.push_back(Output{VecBuffer(ctx_.vector_size),
                            std::make_unique<Slot>()});
  Output& o = key_out_.back();
  o.slot->ptr = o.buffer.data();
  return o.slot.get();
}

Slot* OrderedAggregation::AddAgg(const Slot* input) {
  aggs_.push_back(input);
  agg_out_.push_back(Output{VecBuffer(ctx_.vector_size * sizeof(int64_t)),
                            std::make_unique<Slot>()});
  Output& o = agg_out_.back();
  o.slot->ptr = o.buffer.data();
  return o.slot.get();
}

Slot* OrderedAggregation::AddSumI64(const Slot* input) {
  return AddAgg(input);
}

Slot* OrderedAggregation::AddCount() { return AddAgg(nullptr); }

namespace {

// Per-partition sum accumulation with a compile-time column count: the
// fixed-size accumulator array lives in registers and the inner loop fully
// unrolls — the property that makes ordered aggregation beat hash
// aggregation on Q1 (paper Table 2).
template <size_t N>
void AccumulateFixed(const std::vector<pos_t>& part,
                     const int64_t* const* cols, int64_t* acc) {
  int64_t local[N] = {};
  for (const pos_t p : part) {
    for (size_t j = 0; j < N; ++j) local[j] += cols[j][p];
  }
  for (size_t j = 0; j < N; ++j) acc[j] += local[j];
}

void AccumulatePartition(const std::vector<pos_t>& part,
                         const int64_t* const* cols, size_t n,
                         int64_t* acc) {
  switch (n) {
    case 0: return;
    case 1: return AccumulateFixed<1>(part, cols, acc);
    case 2: return AccumulateFixed<2>(part, cols, acc);
    case 3: return AccumulateFixed<3>(part, cols, acc);
    case 4: return AccumulateFixed<4>(part, cols, acc);
    case 5: return AccumulateFixed<5>(part, cols, acc);
    case 6: return AccumulateFixed<6>(part, cols, acc);
    default:
      for (const pos_t p : part) {
        for (size_t j = 0; j < n; ++j) acc[j] += cols[j][p];
      }
  }
}

}  // namespace

void OrderedAggregation::Consume() {
  VCQ_CHECK_MSG(!keys_.empty(), "ordered-agg keys not configured");
  const size_t na = aggs_.size();
  const size_t nk = keys_.size();
  std::vector<size_t> sum_at;  // aggs_ indexes that are column sums
  for (size_t a = 0; a < na; ++a) {
    if (aggs_[a] != nullptr) sum_at.push_back(a);
  }
  const size_t ns = sum_at.size();

  // Per-vector partitions: code list + one selection vector per code.
  std::vector<uint32_t> codes;
  std::vector<std::vector<pos_t>> parts(max_groups_);
  std::vector<const char*> key_base(nk);
  std::vector<const int64_t*> sum_base(ns);
  std::vector<int64_t> acc(ns);

  size_t n;
  while ((n = child_->Next()) != kEndOfStream) {
    const pos_t* sel = child_->sel();
    // Column bases are hoisted per batch (slots may be republished by an
    // upstream compaction point between batches, never within one).
    for (size_t i = 0; i < nk; ++i) key_base[i] = Get<char>(keys_[i]);
    for (size_t j = 0; j < ns; ++j) {
      sum_base[j] = Get<int64_t>(aggs_[sum_at[j]]);
    }
    // Partition phase (the "multiple selection vectors" trick).
    codes.clear();
    for (size_t k = 0; k < n; ++k) {
      const pos_t p = sel ? sel[k] : static_cast<pos_t>(k);
      uint32_t code = 0;
      for (size_t i = 0; i < nk; ++i) {
        code |= static_cast<uint32_t>(static_cast<uint8_t>(key_base[i][p]))
                << (8 * i);
      }
      size_t slot = codes.size();
      for (size_t c = 0; c < codes.size(); ++c) {
        if (codes[c] == code) {
          slot = c;
          break;
        }
      }
      if (slot == codes.size()) {
        VCQ_CHECK_MSG(slot < max_groups_,
                      "ordered-agg backoff to hash aggregation not "
                      "implemented");
        codes.push_back(code);
        parts[slot].clear();
      }
      parts[slot].push_back(p);
    }
    // Ordered aggregation phase: per-partition register accumulation, one
    // group update per (vector, code).
    for (size_t c = 0; c < codes.size(); ++c) {
      std::fill(acc.begin(), acc.end(), 0);
      AccumulatePartition(parts[c], sum_base.data(), ns, acc.data());
      std::vector<int64_t>& group = groups_[codes[c]];
      if (group.empty()) group.assign(na, 0);
      size_t j = 0;
      for (size_t a = 0; a < na; ++a) {
        group[a] += aggs_[a] != nullptr
                        ? acc[j++]
                        : static_cast<int64_t>(parts[c].size());
      }
    }
  }
}

size_t OrderedAggregation::Next() {
  if (!consumed_) {
    Consume();
    consumed_ = true;
    emit_ = groups_.begin();
  }
  if (emit_ == groups_.end()) return kEndOfStream;
  size_t n = 0;
  for (; emit_ != groups_.end() && n < ctx_.vector_size; ++emit_, ++n) {
    const uint32_t code = emit_->first;
    for (size_t i = 0; i < keys_.size(); ++i) {
      key_out_[i].buffer.As<char>()[n] =
          static_cast<char>((code >> (8 * i)) & 0xff);
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      agg_out_[a].buffer.As<int64_t>()[n] = emit_->second[a];
    }
  }
  sel_ = nullptr;
  return n;
}

}  // namespace vcq::tectorwise
