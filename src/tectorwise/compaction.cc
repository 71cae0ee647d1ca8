#include "tectorwise/compaction.h"

namespace vcq::tectorwise {

void Compactor::AddColumn(Slot* slot, size_t elem_size, CompactStep step) {
  for (const Column& c : columns_) {
    if (c.slot == slot) return;  // already registered
  }
  columns_.push_back(
      Column{slot, elem_size, std::move(step),
             VecBuffer(2 * vector_size_ * elem_size), nullptr});
}

void Compactor::BeginBatch() {
  if (emitted_ == 0) return;
  const size_t rest = pending_ - emitted_;
  for (Column& c : columns_) {
    if (rest > 0) {
      auto* base = static_cast<std::byte*>(c.buffer.data());
      std::memmove(base, base + emitted_ * c.elem_size,
                   rest * c.elem_size);
    }
    c.slot->ptr = c.saved;
  }
  pending_ = rest;
  emitted_ = 0;
}

void Compactor::Append(size_t n, const pos_t* sel) {
  VCQ_CHECK_MSG(pending_ < vector_size_ && n <= vector_size_,
                "compaction buffer overflow");
  for (Column& c : columns_) {
    auto* base = static_cast<std::byte*>(c.buffer.data());
    c.step(n, sel, base + pending_ * c.elem_size);
  }
  pending_ += n;
}

size_t Compactor::Flush() {
  const size_t m = pending_ < vector_size_ ? pending_ : vector_size_;
  for (Column& c : columns_) {
    c.saved = c.slot->ptr;
    c.slot->ptr = c.buffer.data();
  }
  emitted_ = m;
  return m;
}

}  // namespace vcq::tectorwise
