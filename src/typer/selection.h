#ifndef VCQ_TYPER_SELECTION_H_
#define VCQ_TYPER_SELECTION_H_

#include <algorithm>
#include <cstddef>

// Branch-free selection ahead of a probe (the selection study of paper
// Figs. 6-7): where a scan predicate comes before a hash-table probe, a
// fused loop's `if (!pred(i)) continue;` mispredicts at middling
// selectivities. Tectorwise's selection primitives avoid that by writing a
// selection vector without branching (`*out = p; out += cond;`);
// ForEachSelected does the same for a Typer pipeline, one block of rows at
// a time, and then runs the rest of the fused loop over the survivors.
// There is no prefetch and no reordering, so groups are created in the
// same first-seen order as by the plain loop.

namespace vcq::typer {

/// Rows per selection block: the survivor index buffer (4 KiB) stays
/// L1-resident between the selection stage and the probe.
inline constexpr size_t kSelectBlock = 512;

/// Calls body(i) for every row i in [begin, end) with pred(i) true, in
/// row order. Per block of kSelectBlock rows, the selection stage stores
/// every row index and advances past the passing ones only
/// (`idx[n] = i; n += pred(i);`), so it carries no branch when `pred`
/// combines its comparisons with `&` rather than `&&`.
template <typename Pred, typename Body>
void ForEachSelected(size_t begin, size_t end, Pred&& pred, Body&& body) {
  size_t idx[kSelectBlock];
  for (size_t block = begin; block < end; block += kSelectBlock) {
    const size_t limit = std::min(end, block + kSelectBlock);
    size_t n = 0;
    for (size_t i = block; i < limit; ++i) {
      idx[n] = i;
      n += static_cast<size_t>(pred(i));
    }
    for (size_t k = 0; k < n; ++k) body(idx[k]);
  }
}

}  // namespace vcq::typer

#endif  // VCQ_TYPER_SELECTION_H_
