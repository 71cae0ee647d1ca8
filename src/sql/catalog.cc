#include "sql/catalog.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "runtime/types.h"

namespace vcq::sql {
namespace {

// Column-name → semantics annotations for the datagen schemas. Scale-2
// money columns and day-number date columns, per the TPC-H / SSB generators
// (datagen/tpch.cc, datagen/ssb.cc). Everything else integer is a plain
// scale-0 numeric (keys, quantities in SSB, years, ...).
const std::set<std::string_view>& Scale2Columns() {
  static const auto* cols = new std::set<std::string_view>{
      "l_quantity",      "l_extendedprice", "l_discount",   "l_tax",
      "o_totalprice",    "ps_supplycost",   "c_acctbal",    "p_retailprice",
      "lo_extendedprice", "lo_discount",    "lo_revenue",   "lo_supplycost"};
  return *cols;
}

const std::set<std::string_view>& DateColumns() {
  static const auto* cols = new std::set<std::string_view>{
      "l_shipdate", "l_commitdate", "l_receiptdate", "o_orderdate"};
  return *cols;
}

// Unique keys of the datagen schemas (TPC-H and SSB share the customer,
// supplier and part key names). A key belongs to whichever table holds all
// of its columns; the Catalog constructor verifies it on the data.
const std::vector<std::vector<std::string_view>>& DeclaredKeys() {
  static const auto* keys = new std::vector<std::vector<std::string_view>>{
      {"p_partkey"},   {"s_suppkey"},   {"ps_partkey", "ps_suppkey"},
      {"c_custkey"},   {"o_orderkey"},  {"n_nationkey"},
      {"r_regionkey"}, {"d_datekey"}};
  return *keys;
}

SqlType TypeFor(std::string_view name, runtime::TypeTag tag) {
  if (tag == runtime::TypeTag::kChar || tag == runtime::TypeTag::kVarchar)
    return SqlType{TypeKind::kString, 0};
  if (DateColumns().count(name)) return SqlType{TypeKind::kDate, 0};
  const int scale = Scale2Columns().count(name) ? 2 : 0;
  return SqlType{TypeKind::kNumeric, scale};
}

template <typename T>
ColumnStats ScanStats(std::span<const T> data) {
  ColumnStats s;
  if (data.empty()) return s;
  T lo = data[0];
  T hi = data[0];
  for (const T v : data) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  s.min = static_cast<int64_t>(lo);
  s.max = static_cast<int64_t>(hi);
  s.valid = true;
  return s;
}

/// True when no two rows of `rel` agree on every column of `key` (integer
/// columns, at most two; a pair packs into one 64-bit value).
bool IsUnique(const runtime::Relation& rel, const TableDef& table,
              const std::vector<size_t>& key) {
  std::vector<uint64_t> packed(table.tuple_count, 0);
  for (const size_t c : key) {
    const ColumnDef& col = table.columns[c];
    auto fold = [&](auto values) {
      for (size_t r = 0; r < packed.size(); ++r)
        packed[r] = key.size() == 1
                        ? static_cast<uint64_t>(values[r])
                        : (packed[r] << 32) | static_cast<uint32_t>(values[r]);
    };
    if (col.tag == runtime::TypeTag::kInt32)
      fold(rel.Col<int32_t>(col.name));
    else
      fold(rel.Col<int64_t>(col.name));
  }
  std::sort(packed.begin(), packed.end());
  return std::adjacent_find(packed.begin(), packed.end()) == packed.end();
}

/// The declared keys `table` holds and its rows satisfy.
std::vector<std::vector<size_t>> VerifiedKeys(const runtime::Relation& rel,
                                              const TableDef& table) {
  std::vector<std::vector<size_t>> out;
  for (const auto& names : DeclaredKeys()) {
    std::vector<size_t> key;
    for (const std::string_view name : names) {
      const size_t c = table.IndexOf(name);
      if (c == SIZE_MAX || !table.columns[c].stats.valid) break;
      key.push_back(c);
    }
    if (key.size() == names.size() && IsUnique(rel, table, key))
      out.push_back(std::move(key));
  }
  return out;
}

}  // namespace

std::string TypeName(const SqlType& t) {
  switch (t.kind) {
    case TypeKind::kDate:
      return "date";
    case TypeKind::kString:
      return "string";
    case TypeKind::kNumeric:
      if (t.scale == 0) return "numeric";
      return "numeric(" + std::to_string(t.scale) + ")";
  }
  return "?";
}

const ColumnDef* TableDef::Find(std::string_view column) const {
  const size_t i = IndexOf(column);
  return i == SIZE_MAX ? nullptr : &columns[i];
}

size_t TableDef::IndexOf(std::string_view column) const {
  for (size_t i = 0; i < columns.size(); ++i)
    if (columns[i].name == column) return i;
  return SIZE_MAX;
}

bool TableDef::CoversKey(const std::vector<size_t>& cols) const {
  return std::any_of(keys.begin(), keys.end(), [&](const auto& key) {
    return std::all_of(key.begin(), key.end(), [&](size_t c) {
      return std::find(cols.begin(), cols.end(), c) != cols.end();
    });
  });
}

Catalog::Catalog(const runtime::Database& db) : db_(&db) {
  for (const std::string& name : db.RelationNames()) {
    const runtime::Relation& rel = db[name];
    TableDef table;
    table.name = name;
    table.tuple_count = rel.tuple_count();
    for (const std::string& col : rel.ColumnNames()) {
      const runtime::Relation::ColumnMeta meta = rel.Meta(col);
      ColumnDef def;
      def.name = col;
      def.tag = meta.tag;
      def.elem_size = meta.elem_size;
      def.type = TypeFor(col, meta.tag);
      if (meta.tag == runtime::TypeTag::kInt32)
        def.stats = ScanStats(rel.Col<int32_t>(col));
      else if (meta.tag == runtime::TypeTag::kInt64)
        def.stats = ScanStats(rel.Col<int64_t>(col));
      table.columns.push_back(std::move(def));
    }
    table.keys = VerifiedKeys(rel, table);
    tables_.push_back(std::move(table));
  }
}

const TableDef* Catalog::Find(std::string_view table) const {
  for (const TableDef& t : tables_)
    if (t.name == table) return &t;
  return nullptr;
}

std::shared_ptr<const Catalog> MakeCatalog(const runtime::Database& db) {
  return std::make_shared<const Catalog>(db);
}

std::string SampleString(const Catalog& catalog, const TableDef& table,
                         const ColumnDef& col, size_t row) {
  VCQ_CHECK_MSG(col.type.kind == TypeKind::kString, col.name.c_str());
  const runtime::Relation& rel = catalog.db()[table.name];
  VCQ_CHECK(row < rel.tuple_count());
  using runtime::Char;
  using runtime::Varchar;
  switch (col.elem_size) {
    case 1:
      return std::string(rel.Col<Char<1>>(col.name)[row].View());
    case 6:
      return std::string(rel.Col<Char<6>>(col.name)[row].View());
    case 7:
      return std::string(rel.Col<Char<7>>(col.name)[row].View());
    case 9:
      return std::string(rel.Col<Char<9>>(col.name)[row].View());
    case 10:
      return std::string(rel.Col<Char<10>>(col.name)[row].View());
    case 12:
      return std::string(rel.Col<Char<12>>(col.name)[row].View());
    case 15:
      return std::string(rel.Col<Char<15>>(col.name)[row].View());
    case 25:
      return std::string(rel.Col<Char<25>>(col.name)[row].View());
    case sizeof(Varchar<55>): {
      const Varchar<55>& v = rel.Col<Varchar<55>>(col.name)[row];
      return std::string(v.View());
    }
    default:
      VCQ_CHECK_MSG(false, "unsupported string width");
  }
  return {};
}

}  // namespace vcq::sql
