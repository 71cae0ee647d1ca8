#ifndef VCQ_SQL_CATALOG_H_
#define VCQ_SQL_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/relation.h"

// The SQL catalog: name resolution plus the semantic layer the storage
// engine does not record. runtime::Relation knows only physical types
// (int32/int64/Char<N>/Varchar<N>); SQL needs to know that l_discount is a
// scale-2 fixed-point numeric and l_shipdate a day number, because those
// decide literal scaling, comparison legality, and result rendering (the
// fixed-point model of runtime/types.h). The catalog annotates the datagen
// schemas by column name — the one place in the library where column-name
// conventions carry meaning — and scans per-column min/max statistics once
// at construction for the optimizer's cardinality model.
//
// Keys: the catalog declares the unique keys of the datagen schemas (TPC-H
// p_partkey, s_suppkey, (ps_partkey, ps_suppkey), c_custkey, o_orderkey,
// n_nationkey, r_regionkey; SSB d_datekey, c_custkey, s_suppkey,
// p_partkey) and verifies each once, at construction, against the stored
// rows. A declared key is recorded on its TableDef only if the table holds
// all of its columns and no two rows share a key value, so TableDef::keys
// is a fact about the data, never an assumption: the optimizer's
// key-aware join estimates and group-by pushdown (optimizer.h) rely on it.

namespace vcq::sql {

enum class TypeKind : uint8_t {
  kNumeric,  // int32/int64 fixed-point at `scale` decimal digits
  kDate,     // int32 day number (see runtime DaysFromCivil)
  kString    // Char<N> or Varchar<N>
};

/// Semantic column type. Two numerics of different scale are compatible
/// after rescaling; dates compare only with dates; strings only with
/// string literals/params.
struct SqlType {
  TypeKind kind = TypeKind::kNumeric;
  int scale = 0;  // meaningful for kNumeric only

  friend bool operator==(const SqlType& a, const SqlType& b) {
    return a.kind == b.kind && a.scale == b.scale;
  }
};

/// Human-readable type name ("numeric(2)", "date", "string").
std::string TypeName(const SqlType& t);

/// Min/max over an integer column, scanned once at catalog build. The
/// optimizer derives distinct-count estimates as max-min+1 clamped to the
/// table cardinality; `valid` is false for string columns.
struct ColumnStats {
  int64_t min = 0;
  int64_t max = 0;
  bool valid = false;
};

struct ColumnDef {
  std::string name;
  SqlType type;
  runtime::TypeTag tag;  // physical type, with elem_size disambiguating
  size_t elem_size;      // Char<N>/Varchar<N> widths
  ColumnStats stats;
};

struct TableDef {
  std::string name;
  size_t tuple_count = 0;
  std::vector<ColumnDef> columns;
  /// Verified unique keys, each a set of indexes into `columns` (one
  /// column, or two for a composite key).
  std::vector<std::vector<size_t>> keys;

  const ColumnDef* Find(std::string_view column) const;
  /// Index into `columns`, or SIZE_MAX.
  size_t IndexOf(std::string_view column) const;
  /// True when the columns `cols` include every column of some key, i.e.
  /// rows agreeing on `cols` are one row.
  bool CoversKey(const std::vector<size_t>& cols) const;
};

/// Bound schema + statistics over one runtime::Database. Construction
/// scans every integer column once for min/max and verifies the declared
/// keys (sorting each key's values once); share one catalog across
/// compilations of the same database (MakeCatalog returns a shared_ptr and
/// CompiledQuery keeps it alive).
class Catalog {
 public:
  explicit Catalog(const runtime::Database& db);

  const TableDef* Find(std::string_view table) const;
  const std::vector<TableDef>& tables() const { return tables_; }
  const runtime::Database& db() const { return *db_; }

 private:
  const runtime::Database* db_;
  std::vector<TableDef> tables_;
};

std::shared_ptr<const Catalog> MakeCatalog(const runtime::Database& db);

/// Reads row `row` of an arbitrary column as a string (string columns) —
/// used by the differential fuzzer to sample in-domain string constants.
std::string SampleString(const Catalog& catalog, const TableDef& table,
                         const ColumnDef& col, size_t row);

}  // namespace vcq::sql

#endif  // VCQ_SQL_CATALOG_H_
