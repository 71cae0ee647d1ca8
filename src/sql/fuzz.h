#ifndef VCQ_SQL_FUZZ_H_
#define VCQ_SQL_FUZZ_H_

#include <cstdint>
#include <string>

#include "sql/catalog.h"

// Seeded random SQL generator for the differential harness: every
// generated query compiles against the given catalog and lowers onto both
// backends (Tectorwise and Volcano), so the harness can assert
// byte-identical results instead of filtering out rejects. Queries stay
// inside the supported subset by construction — join sets are random
// connected subtrees of the workload's foreign-key graph, predicates draw
// literals from the catalog's min/max statistics (numerics) or from actual
// stored rows (strings), and multiplication is kept out of generated
// expressions so fixed-point sums cannot overflow. Some grouped queries
// group by the key columns the join tree's root table joins to (e.g.
// o_orderkey with aggregates over lineitem), the shape on which the
// optimizer's group-by pushdown fires.

namespace vcq::sql {

/// Deterministic: the same (catalog schema, seed) yields the same text.
std::string GenerateFuzzQuery(const Catalog& catalog, uint64_t seed);

}  // namespace vcq::sql

#endif  // VCQ_SQL_FUZZ_H_
