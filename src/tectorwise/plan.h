#ifndef VCQ_TECTORWISE_PLAN_H_
#define VCQ_TECTORWISE_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/options.h"
#include "runtime/params.h"
#include "runtime/relation.h"
#include "tectorwise/hash_group.h"
#include "tectorwise/hash_join.h"
#include "tectorwise/steps.h"

// Declarative plan-builder layer for the Tectorwise engine.
//
// A PlanBuilder describes a query as a DAG of nodes — Scan, Select, Map,
// HashJoin (build + probe children), HashGroup, FixedAgg, OrderedAgg —
// wired by named column references (ColumnRef). Build() validates the
// description, derives the batch-compaction registrations from slot usage,
// and returns an executable Plan. Plan::Run() then does per query what
// every RunQ* function used to hand-wire per worker: it creates the shared
// state (morsel queues, hash tables, barriers), instantiates one operator
// tree per worker, drains the root, and hands every root batch to a
// collector under an internal mutex.
//
// Slot-usage tracking. Every declaration records which columns its steps
// consume. Every Select is a batch-compaction point (see compaction.h):
// its sparse output batches are merged into dense ones, so it must
// register every column that is produced at or below it and read above
// it — an unregistered column would be misread through compacted
// positions. Build() derives the set instead of asking for hand-written
// CompactColumn<T> lists:
//
//   registered(S) = produced(subtree(S))
//                   ∩ (consumed(ancestors(S)) ∪ result columns)
//
// HashGroup registers its own keys/aggregates with its input compactor and
// the HashJoin probe accumulator gathers into operator-owned buffers, so
// Selects are the only points that need derived registration.
//
// Quickstart — SELECT sum(rev) FROM t WHERE a < 10:
//
//   PlanBuilder pb("example");
//   auto& scan = pb.Scan(relation, "t");
//   ColumnRef a = scan.Col<int32_t>("a");
//   ColumnRef rev = scan.Col<int64_t>("rev");
//   auto& sel = pb.Select(scan);
//   sel.Cmp<int32_t>(a, CmpOp::kLess, 10);  // `rev` registration is derived
//   auto& agg = pb.FixedAgg(sel);
//   ColumnRef total = agg.Sum(rev, "total");
//   Plan plan = pb.Build(agg, {total});
//   int64_t sum = 0;
//   plan.Run(options, [&](const Plan::Batch& b) {
//     sum += b.Column<int64_t>(total)[0];
//   });
//
// Plan::ToString() dumps the DAG EXPLAIN-style — nodes, consumed columns,
// derived compaction registrations (see examples/engine_explorer.cpp).

namespace vcq::tectorwise {

class Plan;
class PlanBuilder;
class PlanNode;

/// Shared translation of the engine-independent QueryOptions into the
/// Tectorwise ExecContext (previously copy-pasted into each query file).
ExecContext MakeContext(const runtime::QueryOptions& opt);

/// Handle to a named plan column: returned by the producing node's
/// declaration methods, passed to consuming declarations and to
/// Plan::Batch accessors.
struct ColumnRef {
  uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
};

enum class NodeKind {
  kScan,
  kSelect,
  kMap,
  kHashJoin,
  kHashGroup,
  kFixedAgg,
  kOrderedAgg,
};

/// One parameter read declared by a plan step (CmpParam, BetweenParam,
/// EqOr2Param, ContainsParam): the binding name and how the step accesses
/// it at instantiate time. Recorded by the builder so prepare can
/// cross-check every read against the catalog's declared ParamTypes
/// (vcq::ValidatePlanParams) — a query/catalog drift then fails at Prepare
/// instead of producing garbage at the first Execute.
struct ParamUse {
  std::string name;
  /// true: resolved through QueryParams::Str (strings); false: through
  /// QueryParams::Int (integers and dates, which share the numeric
  /// representation — see runtime/params.h).
  bool string_access = false;
};

namespace plan_internal {

/// Registers a column with a Compactor; bound to the column's static type
/// at declaration time (CompactColumn<T> keeps the SIMD kernel choice).
using CompactRegistrar =
    std::function<void(const ExecContext&, Compactor&, Slot*)>;

template <typename T>
CompactRegistrar MakeRegistrar() {
  return [](const ExecContext& ctx, Compactor& c, Slot* slot) {
    CompactColumn<T>(ctx, c, slot);
  };
}

struct ColumnInfo {
  std::string name;
  uint32_t producer;  // node index
  size_t elem_size;
  CompactRegistrar compact;
};

/// Per-worker instantiation state: slot wiring (indexed by column id), the
/// run-wide shared-state table (indexed by node index), and the run's
/// parameter bindings (resolved by parameterized steps at instantiate
/// time — this is what lets one built Plan serve many executions).
struct Workspace {
  const ExecContext& ctx;
  size_t worker_id;
  size_t worker_count;
  const std::vector<ColumnInfo>* columns;
  const std::vector<std::shared_ptr<void>>* shared;
  const runtime::QueryParams* params;
  std::vector<Slot*> slots;
};

/// The run's validated parameter bindings; the single check (and message)
/// every parameterized step goes through.
inline const runtime::QueryParams& Params(const Workspace& ws) {
  VCQ_CHECK_MSG(ws.params != nullptr,
                "parameterized plan executed without QueryParams (use the "
                "three-argument Plan::Run or go through vcq::Session)");
  return *ws.params;
}

/// Resolves the predicate constant for a parameterized step: numbers (and
/// dates, stored as day numbers) through Int, fixed-width strings through
/// the type's From.
template <typename T>
T ParamAs(const Workspace& ws, const std::string& name) {
  if constexpr (std::is_arithmetic_v<T>) {
    return static_cast<T>(Params(ws).Int(name));
  } else {
    return T::From(Params(ws).Str(name));
  }
}

inline std::string CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kLess: return "<";
    case CmpOp::kLessEq: return "<=";
    case CmpOp::kGreater: return ">";
    case CmpOp::kGreaterEq: return ">=";
    case CmpOp::kEq: return "==";
  }
  return "?";
}

template <typename T>
std::string Display(const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    return std::to_string(v);
  } else {
    return "'" + std::string(v.View()) + "'";
  }
}

}  // namespace plan_internal

/// Base of all node declarations. Subclasses add typed declaration methods
/// (each records the slots it consumes) and implement the per-worker
/// operator instantiation.
class PlanNode {
 public:
  virtual ~PlanNode() = default;
  PlanNode(const PlanNode&) = delete;
  PlanNode& operator=(const PlanNode&) = delete;

  NodeKind kind() const { return kind_; }
  uint32_t index() const { return index_; }
  const std::string& label() const { return label_; }

 protected:
  PlanNode(PlanBuilder* builder, NodeKind kind, std::string label)
      : builder_(builder), kind_(kind), label_(std::move(label)) {}

  /// Adds a column produced by this node to the plan's column table.
  ColumnRef Define(std::string name, size_t elem_size,
                   plan_internal::CompactRegistrar registrar);
  /// Records that one of this node's steps reads `ref`.
  void Consume(ColumnRef ref);
  /// Records that one of this node's steps resolves parameter `name` at
  /// instantiate time (see ParamUse).
  void UseParam(std::string name, bool string_access);
  std::string ColName(ColumnRef ref) const;
  /// Adds an EXPLAIN detail line for this node.
  void Detail(std::string text) { details_.push_back(std::move(text)); }

  /// Creates this node's run-wide shared state (nullptr when none).
  virtual std::shared_ptr<void> MakeShared(
      const runtime::QueryOptions& opt) const {
    (void)opt;
    return nullptr;
  }
  /// Builds this worker's operator (recursively instantiating children)
  /// and publishes the produced slots into the workspace.
  virtual std::unique_ptr<Operator> Instantiate(
      plan_internal::Workspace& ws) const = 0;

  /// Protected-access dispatcher so sibling node types can instantiate
  /// their children. The single choke point of operator creation: when
  /// the workspace's ExecContext carries a trace sink (runtime/trace.h),
  /// the operator comes back wrapped in a transparent timing shim that
  /// records one span per node per worker — tracing needs no per-node
  /// code. Defined in plan.cc.
  static std::unique_ptr<Operator> InstantiateNode(
      const PlanNode& node, plan_internal::Workspace& ws);

  PlanBuilder* builder_;
  NodeKind kind_;
  uint32_t index_ = 0;
  std::string label_;
  std::vector<PlanNode*> children_;
  int parent_ = -1;
  std::vector<uint32_t> consumed_;
  std::vector<std::string> details_;

 private:
  friend class Plan;
  friend class PlanBuilder;
};

// ---------------------------------------------------------------------------
// Scan
// ---------------------------------------------------------------------------

class ScanNode : public PlanNode {
 public:
  /// Declares a relation column of static type T; returns its handle.
  template <typename T>
  ColumnRef Col(std::string name) {
    const ColumnRef ref =
        Define(name, sizeof(T), plan_internal::MakeRegistrar<T>());
    cols_.push_back(
        [name, id = ref.id](Scan& scan, plan_internal::Workspace& ws) {
          ws.slots[id] = scan.AddColumn<T>(name);
        });
    return ref;
  }

 private:
  friend class PlanBuilder;
  ScanNode(PlanBuilder* builder, const runtime::Relation* relation,
           std::string table)
      : PlanNode(builder, NodeKind::kScan, "scan(" + table + ")"),
        relation_(relation) {}

  std::shared_ptr<void> MakeShared(
      const runtime::QueryOptions& opt) const override;
  std::unique_ptr<Operator> Instantiate(
      plan_internal::Workspace& ws) const override;

  const runtime::Relation* relation_;
  std::vector<std::function<void(Scan&, plan_internal::Workspace&)>> cols_;
};

// ---------------------------------------------------------------------------
// Select
// ---------------------------------------------------------------------------

class SelectNode : public PlanNode {
 public:
  /// col OP konst.
  template <typename T>
  SelectNode& Cmp(ColumnRef col, CmpOp op, T konst) {
    Consume(col);
    Detail(ColName(col) + " " + plan_internal::CmpOpName(op) + " " +
           plan_internal::Display(konst));
    steps_.push_back([col, op, konst](const ExecContext& ctx,
                                      plan_internal::Workspace& ws) {
      return MakeSelCmp<T>(ctx, ws.slots[col.id], op, konst);
    });
    return *this;
  }

  /// lo <= col <= hi.
  template <typename T>
  SelectNode& Between(ColumnRef col, T lo, T hi) {
    Consume(col);
    Detail(ColName(col) + " in [" + plan_internal::Display(lo) + ", " +
           plan_internal::Display(hi) + "]");
    steps_.push_back([col, lo, hi](const ExecContext& ctx,
                                   plan_internal::Workspace& ws) {
      return MakeSelBetween<T>(ctx, ws.slots[col.id], lo, hi);
    });
    return *this;
  }

  /// col == a || col == b.
  template <typename T>
  SelectNode& EqOr2(ColumnRef col, T a, T b) {
    Consume(col);
    Detail(ColName(col) + " == " + plan_internal::Display(a) + " || " +
           plan_internal::Display(b));
    steps_.push_back(
        [col, a, b](const ExecContext&, plan_internal::Workspace& ws) {
          return MakeSelEqOr2<T>(ws.slots[col.id], a, b);
        });
    return *this;
  }

  /// Substring containment on a Varchar column.
  template <typename V>
  SelectNode& Contains(ColumnRef col, std::string needle) {
    Consume(col);
    Detail(ColName(col) + " contains '" + needle + "'");
    steps_.push_back(
        [col, needle](const ExecContext&, plan_internal::Workspace& ws) {
          return MakeSelContains<V>(ws.slots[col.id], needle);
        });
    return *this;
  }

  // --- parameterized predicates (paper §8.1: prepared statements) ---------
  // The constant is a named parameter resolved from the execution's
  // QueryParams when the per-worker operators are instantiated, so the plan
  // is built once and every Execute may bind different values.

  /// col OP :param.
  template <typename T>
  SelectNode& CmpParam(ColumnRef col, CmpOp op, std::string param) {
    Consume(col);
    UseParam(param, !std::is_arithmetic_v<T>);
    Detail(ColName(col) + " " + plan_internal::CmpOpName(op) + " :" + param);
    steps_.push_back([col, op, param](const ExecContext& ctx,
                                      plan_internal::Workspace& ws) {
      return MakeSelCmp<T>(ctx, ws.slots[col.id], op,
                           plan_internal::ParamAs<T>(ws, param));
    });
    return *this;
  }

  /// :lo_param <= col <= :hi_param.
  template <typename T>
  SelectNode& BetweenParam(ColumnRef col, std::string lo_param,
                           std::string hi_param) {
    Consume(col);
    UseParam(lo_param, !std::is_arithmetic_v<T>);
    UseParam(hi_param, !std::is_arithmetic_v<T>);
    Detail(ColName(col) + " in [:" + lo_param + ", :" + hi_param + "]");
    steps_.push_back([col, lo_param, hi_param](
                         const ExecContext& ctx,
                         plan_internal::Workspace& ws) {
      return MakeSelBetween<T>(ctx, ws.slots[col.id],
                               plan_internal::ParamAs<T>(ws, lo_param),
                               plan_internal::ParamAs<T>(ws, hi_param));
    });
    return *this;
  }

  /// col == :a_param || col == :b_param.
  template <typename T>
  SelectNode& EqOr2Param(ColumnRef col, std::string a_param,
                         std::string b_param) {
    Consume(col);
    UseParam(a_param, !std::is_arithmetic_v<T>);
    UseParam(b_param, !std::is_arithmetic_v<T>);
    Detail(ColName(col) + " == :" + a_param + " || :" + b_param);
    steps_.push_back([col, a_param, b_param](const ExecContext&,
                                             plan_internal::Workspace& ws) {
      return MakeSelEqOr2<T>(ws.slots[col.id],
                             plan_internal::ParamAs<T>(ws, a_param),
                             plan_internal::ParamAs<T>(ws, b_param));
    });
    return *this;
  }

  /// Substring containment with the needle bound as :param.
  template <typename V>
  SelectNode& ContainsParam(ColumnRef col, std::string param) {
    Consume(col);
    UseParam(param, /*string_access=*/true);
    Detail(ColName(col) + " contains :" + param);
    steps_.push_back(
        [col, param](const ExecContext&, plan_internal::Workspace& ws) {
          return MakeSelContains<V>(ws.slots[col.id],
                                    plan_internal::Params(ws).Str(param));
        });
    return *this;
  }

  /// Column ids Build() derived for compaction registration (produced at or
  /// below this Select, consumed above it).
  const std::vector<uint32_t>& compaction_columns() const { return compact_; }

 private:
  friend class PlanBuilder;
  explicit SelectNode(PlanBuilder* builder)
      : PlanNode(builder, NodeKind::kSelect, "select") {}

  std::unique_ptr<Operator> Instantiate(
      plan_internal::Workspace& ws) const override;

  std::vector<
      std::function<SelStep(const ExecContext&, plan_internal::Workspace&)>>
      steps_;
  std::vector<uint32_t> compact_;  // derived by PlanBuilder::Build
};

// ---------------------------------------------------------------------------
// Map (projection)
// ---------------------------------------------------------------------------

class MapNode : public PlanNode {
 public:
  /// out = a * b.
  template <typename T>
  ColumnRef Mul(ColumnRef a, ColumnRef b, std::string name) {
    Consume(a);
    Consume(b);
    const ColumnRef out = Output<T>(std::move(name));
    Detail(ColName(out) + " = " + ColName(a) + " * " + ColName(b));
    steps_.push_back([a, b, id = out.id](Map& map,
                                         plan_internal::Workspace& ws) {
      Slot* slot = map.AddOutput<T>();
      ws.slots[id] = slot;
      map.AddStep(MakeMapMul<T>(ws.slots[a.id], ws.slots[b.id],
                                map.OutputData<T>(slot)));
    });
    return out;
  }

  /// out = a - b.
  template <typename T>
  ColumnRef Sub(ColumnRef a, ColumnRef b, std::string name) {
    Consume(a);
    Consume(b);
    const ColumnRef out = Output<T>(std::move(name));
    Detail(ColName(out) + " = " + ColName(a) + " - " + ColName(b));
    steps_.push_back([a, b, id = out.id](Map& map,
                                         plan_internal::Workspace& ws) {
      Slot* slot = map.AddOutput<T>();
      ws.slots[id] = slot;
      map.AddStep(MakeMapSub<T>(ws.slots[a.id], ws.slots[b.id],
                                map.OutputData<T>(slot)));
    });
    return out;
  }

  /// out = a + b.
  template <typename T>
  ColumnRef Add(ColumnRef a, ColumnRef b, std::string name) {
    Consume(a);
    Consume(b);
    const ColumnRef out = Output<T>(std::move(name));
    Detail(ColName(out) + " = " + ColName(a) + " + " + ColName(b));
    steps_.push_back([a, b, id = out.id](Map& map,
                                         plan_internal::Workspace& ws) {
      Slot* slot = map.AddOutput<T>();
      ws.slots[id] = slot;
      map.AddStep(MakeMapAdd<T>(ws.slots[a.id], ws.slots[b.id],
                                map.OutputData<T>(slot)));
    });
    return out;
  }

  /// out = a * konst.
  template <typename T>
  ColumnRef MulConst(ColumnRef a, T konst, std::string name) {
    Consume(a);
    const ColumnRef out = Output<T>(std::move(name));
    Detail(ColName(out) + " = " + ColName(a) + " * " +
           plan_internal::Display(konst));
    steps_.push_back([a, konst, id = out.id](Map& map,
                                             plan_internal::Workspace& ws) {
      Slot* slot = map.AddOutput<T>();
      ws.slots[id] = slot;
      map.AddStep(
          MakeMapMulConst<T>(ws.slots[a.id], konst, map.OutputData<T>(slot)));
    });
    return out;
  }

  /// out = (To)a — integer widening (e.g. int32 keys entering int64
  /// arithmetic or aggregation).
  template <typename From, typename To>
  ColumnRef Widen(ColumnRef a, std::string name) {
    Consume(a);
    const ColumnRef out = Output<To>(std::move(name));
    Detail(ColName(out) + " = widen(" + ColName(a) + ")");
    steps_.push_back([a, id = out.id](Map& map,
                                      plan_internal::Workspace& ws) {
      Slot* slot = map.AddOutput<To>();
      ws.slots[id] = slot;
      map.AddStep(
          MakeMapWiden<From, To>(ws.slots[a.id], map.OutputData<To>(slot)));
    });
    return out;
  }

  /// out = konst - a.
  template <typename T>
  ColumnRef RSubConst(T konst, ColumnRef a, std::string name) {
    Consume(a);
    const ColumnRef out = Output<T>(std::move(name));
    Detail(ColName(out) + " = " + plan_internal::Display(konst) + " - " +
           ColName(a));
    steps_.push_back([konst, a, id = out.id](Map& map,
                                             plan_internal::Workspace& ws) {
      Slot* slot = map.AddOutput<T>();
      ws.slots[id] = slot;
      map.AddStep(
          MakeMapRSubConst<T>(konst, ws.slots[a.id], map.OutputData<T>(slot)));
    });
    return out;
  }

  /// out = a * (konst - b); fused, the intermediate is never materialized.
  template <typename T>
  ColumnRef MulRSubConst(ColumnRef a, T konst, ColumnRef b,
                         std::string name) {
    Consume(a);
    Consume(b);
    const ColumnRef out = Output<T>(std::move(name));
    Detail(ColName(out) + " = " + ColName(a) + " * (" +
           plan_internal::Display(konst) + " - " + ColName(b) + ")");
    steps_.push_back([a, konst, b, id = out.id](
                         Map& map, plan_internal::Workspace& ws) {
      Slot* slot = map.AddOutput<T>();
      ws.slots[id] = slot;
      map.AddStep(MakeMapMulRSubConst<T>(ws.slots[a.id], konst,
                                         ws.slots[b.id],
                                         map.OutputData<T>(slot)));
    });
    return out;
  }

  /// out = a * (konst + b); fused, the intermediate is never materialized.
  template <typename T>
  ColumnRef MulAddConst(ColumnRef a, T konst, ColumnRef b, std::string name) {
    Consume(a);
    Consume(b);
    const ColumnRef out = Output<T>(std::move(name));
    Detail(ColName(out) + " = " + ColName(a) + " * (" +
           plan_internal::Display(konst) + " + " + ColName(b) + ")");
    steps_.push_back([a, konst, b, id = out.id](
                         Map& map, plan_internal::Workspace& ws) {
      Slot* slot = map.AddOutput<T>();
      ws.slots[id] = slot;
      map.AddStep(MakeMapMulAddConst<T>(ws.slots[a.id], konst,
                                        ws.slots[b.id],
                                        map.OutputData<T>(slot)));
    });
    return out;
  }

  /// out = konst + a.
  template <typename T>
  ColumnRef AddConst(T konst, ColumnRef a, std::string name) {
    Consume(a);
    const ColumnRef out = Output<T>(std::move(name));
    Detail(ColName(out) + " = " + plan_internal::Display(konst) + " + " +
           ColName(a));
    steps_.push_back([konst, a, id = out.id](Map& map,
                                             plan_internal::Workspace& ws) {
      Slot* slot = map.AddOutput<T>();
      ws.slots[id] = slot;
      map.AddStep(
          MakeMapAddConst<T>(konst, ws.slots[a.id], map.OutputData<T>(slot)));
    });
    return out;
  }

  /// out = calendar year of date column a.
  ColumnRef Year(ColumnRef a, std::string name) {
    Consume(a);
    const ColumnRef out = Output<int32_t>(std::move(name));
    Detail(ColName(out) + " = year(" + ColName(a) + ")");
    steps_.push_back([a, id = out.id](Map& map,
                                      plan_internal::Workspace& ws) {
      Slot* slot = map.AddOutput<int32_t>();
      ws.slots[id] = slot;
      map.AddStep(MakeMapYear(ws.slots[a.id], map.OutputData<int32_t>(slot)));
    });
    return out;
  }

 private:
  friend class PlanBuilder;
  explicit MapNode(PlanBuilder* builder)
      : PlanNode(builder, NodeKind::kMap, "map") {}

  template <typename T>
  ColumnRef Output(std::string name) {
    return Define(std::move(name), sizeof(T),
                  plan_internal::MakeRegistrar<T>());
  }

  std::unique_ptr<Operator> Instantiate(
      plan_internal::Workspace& ws) const override;

  std::vector<std::function<void(Map&, plan_internal::Workspace&)>> steps_;
};

// ---------------------------------------------------------------------------
// HashJoin (children: build, probe)
// ---------------------------------------------------------------------------

class JoinNode : public PlanNode {
 public:
  /// Adds an equi-join key column pair. The first key sets the hash
  /// expressions of both sides; later keys extend them (composite keys,
  /// paper Fig. 2b).
  template <typename T>
  JoinNode& Key(ColumnRef probe_col, ColumnRef build_col) {
    Consume(probe_col);
    Consume(build_col);
    Detail("key: " + ColName(probe_col) + " == " + ColName(build_col));
    const bool first = !has_key_;
    has_key_ = true;
    config_.push_back([probe_col, build_col, first](
                          const ExecContext& ctx, HashJoin& join,
                          plan_internal::Workspace& ws, FieldMap& fields) {
      Slot* build = ws.slots[build_col.id];
      const Slot* probe = ws.slots[probe_col.id];
      const auto it = fields.find(build_col.id);
      const size_t offset =
          it != fields.end() ? it->second : join.AddBuildField<T>(build);
      fields.emplace(build_col.id, offset);
      if (first) {
        join.SetBuildHash(MakeHash<T>(ctx, build));
        join.SetProbeHash(MakeHash<T>(ctx, probe));
      } else {
        join.AddBuildRehash(MakeRehash<T>(ctx, build));
        join.AddProbeRehash(MakeRehash<T>(ctx, probe));
      }
      join.AddKeyCompare<T>(probe, offset);
    });
    return *this;
  }

  /// Carries a build-side column across the join (entry field + gather
  /// into a dense output vector); key fields are reused, not duplicated.
  template <typename T>
  ColumnRef Build(ColumnRef build_col) {
    Consume(build_col);
    const ColumnRef out = Define(ColName(build_col), sizeof(T),
                                 plan_internal::MakeRegistrar<T>());
    Detail("build: " + ColName(build_col));
    config_.push_back([build_col, id = out.id](
                          const ExecContext&, HashJoin& join,
                          plan_internal::Workspace& ws, FieldMap& fields) {
      const auto it = fields.find(build_col.id);
      const size_t offset =
          it != fields.end() ? it->second
                             : join.AddBuildField<T>(ws.slots[build_col.id]);
      fields.emplace(build_col.id, offset);
      ws.slots[id] = join.AddBuildOutput<T>(offset);
    });
    return out;
  }

  /// Carries a probe-side column across the join (hit-position gather).
  template <typename T>
  ColumnRef Probe(ColumnRef probe_col) {
    Consume(probe_col);
    const ColumnRef out = Define(ColName(probe_col), sizeof(T),
                                 plan_internal::MakeRegistrar<T>());
    Detail("probe: " + ColName(probe_col));
    config_.push_back([probe_col, id = out.id](
                          const ExecContext&, HashJoin& join,
                          plan_internal::Workspace& ws, FieldMap&) {
      ws.slots[id] = join.AddProbeOutput<T>(ws.slots[probe_col.id]);
    });
    return out;
  }

 private:
  friend class PlanBuilder;
  /// Per-worker build-field offsets, keyed by build column id.
  using FieldMap = std::unordered_map<uint32_t, size_t>;

  explicit JoinNode(PlanBuilder* builder)
      : PlanNode(builder, NodeKind::kHashJoin, "hash-join") {}

  std::shared_ptr<void> MakeShared(
      const runtime::QueryOptions& opt) const override;
  std::unique_ptr<Operator> Instantiate(
      plan_internal::Workspace& ws) const override;

  bool has_key_ = false;
  std::vector<std::function<void(const ExecContext&, HashJoin&,
                                 plan_internal::Workspace&, FieldMap&)>>
      config_;
};

// ---------------------------------------------------------------------------
// HashGroup
// ---------------------------------------------------------------------------

class GroupNode : public PlanNode {
 public:
  /// Adds a grouping key; returns the key's output column. Keys and
  /// aggregates auto-register with the group's input compactor, so this
  /// compaction point needs no derived registration.
  template <typename T>
  ColumnRef Key(ColumnRef col) {
    Consume(col);
    const ColumnRef out = Define(ColName(col), sizeof(T),
                                 plan_internal::MakeRegistrar<T>());
    Detail("key: " + ColName(col));
    config_.push_back([col, id = out.id](HashGroup& group,
                                         plan_internal::Workspace& ws) {
      const size_t offset = group.AddKey<T>(ws.slots[col.id]);
      ws.slots[id] = group.AddOutput<T>(offset);
    });
    return out;
  }

  /// Adds sum(col) over an int64 column; returns the sum's output column.
  ColumnRef Sum(ColumnRef col);
  /// Adds count(*); returns its output column.
  ColumnRef Count();
  /// Adds min(col) over an int64 column; returns its output column.
  ColumnRef Min(ColumnRef col);
  /// Adds max(col) over an int64 column; returns its output column.
  ColumnRef Max(ColumnRef col);

 private:
  friend class PlanBuilder;
  explicit GroupNode(PlanBuilder* builder)
      : PlanNode(builder, NodeKind::kHashGroup, "hash-group") {}

  std::shared_ptr<void> MakeShared(
      const runtime::QueryOptions& opt) const override;
  std::unique_ptr<Operator> Instantiate(
      plan_internal::Workspace& ws) const override;

  std::vector<std::function<void(HashGroup&, plan_internal::Workspace&)>>
      config_;
};

// ---------------------------------------------------------------------------
// FixedAgg (group-less aggregation)
// ---------------------------------------------------------------------------

class FixedAggNode : public PlanNode {
 public:
  /// Adds sum(col) over an int64 column; the output column exposes the
  /// worker-local total in the single row this node emits.
  ColumnRef Sum(ColumnRef col, std::string name);
  /// Adds count(*); the output column exposes the worker-local row count.
  ColumnRef Count(std::string name);
  /// Adds min(col) over an int64 column (INT64_MAX identity on no rows).
  ColumnRef Min(ColumnRef col, std::string name);
  /// Adds max(col) over an int64 column (INT64_MIN identity on no rows).
  ColumnRef Max(ColumnRef col, std::string name);

 private:
  friend class PlanBuilder;
  explicit FixedAggNode(PlanBuilder* builder)
      : PlanNode(builder, NodeKind::kFixedAgg, "fixed-agg") {}

  std::unique_ptr<Operator> Instantiate(
      plan_internal::Workspace& ws) const override;

  struct AggDecl {
    uint32_t in;  // unused for count(*)
    uint32_t out;
    FixedAggregation::AggKind kind = FixedAggregation::AggKind::kSum;
    bool has_input = true;
  };
  std::vector<AggDecl> sums_;
};

// ---------------------------------------------------------------------------
// OrderedAgg (micro-adaptive ordered aggregation, paper §8.4)
// ---------------------------------------------------------------------------

class OrderedAggNode : public PlanNode {
 public:
  /// Adds a one-byte (Char<1>) grouping key; returns its output column.
  ColumnRef Key(ColumnRef col);
  /// Adds sum(col) over an int64 column; returns its output column.
  ColumnRef Sum(ColumnRef col);
  /// Adds count(*); returns its output column.
  ColumnRef Count();

 private:
  friend class PlanBuilder;
  OrderedAggNode(PlanBuilder* builder, size_t max_groups)
      : PlanNode(builder, NodeKind::kOrderedAgg, "ordered-agg"),
        max_groups_(max_groups) {}

  std::unique_ptr<Operator> Instantiate(
      plan_internal::Workspace& ws) const override;

  size_t max_groups_;
  struct KeyDecl {
    uint32_t in;
    uint32_t out;
  };
  struct AggDecl {
    ColumnRef in;  // invalid => count(*)
    uint32_t out;
  };
  std::vector<KeyDecl> keys_;
  std::vector<AggDecl> aggs_;
};

// ---------------------------------------------------------------------------
// Plan (the executable description)
// ---------------------------------------------------------------------------

class Plan {
 public:
  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;

  /// Read-only view of one root batch, passed to the Run collector. Only
  /// the plan's declared result columns are accessible: any other ref
  /// check-fails, because a slot produced below the root's rematerializing
  /// nodes holds pre-join/pre-compaction positions and would silently read
  /// the wrong rows.
  class Batch {
   public:
    Batch(const std::vector<Slot*>* slots, const std::vector<bool>* is_result,
          size_t count, const pos_t* sel)
        : slots_(slots), is_result_(is_result), count_(count), sel_(sel) {}

    size_t size() const { return count_; }
    const pos_t* sel() const { return sel_; }

    /// Base pointer of `ref`'s data for the current batch.
    template <typename T>
    const T* Column(ColumnRef ref) const {
      VCQ_CHECK_MSG(ref.valid() && (*is_result_)[ref.id],
                    "collector read a column that is not a declared result "
                    "column of the plan");
      return Get<T>((*slots_)[ref.id]);
    }
    /// Value of `ref` for the k-th active row (selection-vector aware).
    template <typename T>
    const T& Value(ColumnRef ref, size_t k) const {
      return Column<T>(ref)[sel_ ? sel_[k] : static_cast<pos_t>(k)];
    }

   private:
    const std::vector<Slot*>* slots_;
    const std::vector<bool>* is_result_;
    size_t count_;
    const pos_t* sel_;
  };
  using Collector = std::function<void(const Batch&)>;

  /// Executes the plan: creates per-run shared state, instantiates one
  /// operator tree per worker on the run's pool, drains the root on every
  /// worker and invokes `collect` for each non-empty root batch under an
  /// internal mutex. All mutable state is per-run, so concurrent Run calls
  /// on one Plan are safe — this is the prepare-once/execute-many split
  /// vcq::PreparedQuery builds on. `params` supplies the values of any
  /// parameterized predicates (CmpParam etc.); plans without parameters
  /// may use the two-argument overload.
  void Run(const runtime::QueryOptions& opt,
           const runtime::QueryParams& params, const Collector& collect) const;
  void Run(const runtime::QueryOptions& opt, const Collector& collect) const {
    Run(opt, runtime::QueryParams{}, collect);
  }

  /// EXPLAIN-style dump: nodes, steps, consumed columns, derived
  /// compaction registrations, result columns.
  std::string ToString() const;

  struct NodeInfo {
    NodeKind kind;
    std::string label;
    std::vector<uint32_t> children;
    std::vector<std::string> details;
    std::vector<std::string> consumes;
    /// Select nodes only: column names whose compaction registration was
    /// derived from slot usage.
    std::vector<std::string> compacts;
  };
  std::vector<NodeInfo> Describe() const;

  /// Index of the root node (the Describe() entry the collector drains).
  uint32_t root() const { return root_; }

  const std::string& name() const { return name_; }

  /// Every parameter read the plan's steps declared (in declaration
  /// order), for the prepare-time catalog cross-check
  /// (vcq::ValidatePlanParams).
  const std::vector<ParamUse>& param_uses() const { return param_uses_; }

  /// Total tuples across the plan's scans — the remaining-work hint the
  /// scheduler's shortest-remaining-region tie-break uses.
  size_t work_hint() const { return work_hint_; }

 private:
  friend class PlanBuilder;
  Plan() = default;

  std::string name_;
  std::vector<std::unique_ptr<PlanNode>> nodes_;
  std::vector<plan_internal::ColumnInfo> columns_;
  uint32_t root_ = 0;
  std::vector<uint32_t> result_;
  std::vector<ParamUse> param_uses_;
  size_t work_hint_ = 0;
};

/// EXPLAIN ANALYZE rendering: the plan's Describe() tree annotated with
/// the measured per-node stats a traced run recorded (runtime/trace.h) —
/// output rows, batches, inclusive and self ns/tuple, batch density,
/// join build/probe wall split (from the trace's embedded NodeTelemetry),
/// and spill bytes per node.
/// `vector_size` is the run's vector size (density denominator).
std::string ExplainAnalyzeTree(const Plan& plan,
                               const runtime::QueryTrace& trace,
                               size_t vector_size);

// ---------------------------------------------------------------------------
// PlanBuilder
// ---------------------------------------------------------------------------

class PlanBuilder {
 public:
  explicit PlanBuilder(std::string name) : name_(std::move(name)) {}

  ScanNode& Scan(const runtime::Relation& relation, std::string table);
  SelectNode& Select(PlanNode& child);
  MapNode& Map(PlanNode& child);
  JoinNode& HashJoin(PlanNode& build, PlanNode& probe);
  GroupNode& HashGroup(PlanNode& child);
  FixedAggNode& FixedAgg(PlanNode& child);
  OrderedAggNode& OrderedAgg(PlanNode& child, size_t max_groups = 16);

  /// Validates the DAG (single consumer per node, column visibility across
  /// rematerializing operators), derives every Select's compaction
  /// registrations from slot usage, and returns the executable Plan. The
  /// builder is consumed.
  ///
  /// By default the root must be a rematerializing node (join/group/
  /// aggregation), because most collectors read root batches densely via
  /// Batch::Column()[k]. A collector that reads exclusively through the
  /// selection-vector-aware Batch::Value may pass
  /// `selection_aware_collector = true` to allow streaming roots
  /// (scan/select/map) — e.g. a projection or a HAVING filter as the top
  /// operator.
  Plan Build(PlanNode& root, std::vector<ColumnRef> result_columns,
             bool selection_aware_collector = false);

 private:
  friend class PlanNode;

  ColumnRef AddColumn(plan_internal::ColumnInfo info);
  PlanNode& Register(std::unique_ptr<PlanNode> node,
                     std::initializer_list<PlanNode*> children);

  std::string name_;
  std::vector<std::unique_ptr<PlanNode>> nodes_;
  std::vector<plan_internal::ColumnInfo> columns_;
  std::vector<ParamUse> param_uses_;
};

}  // namespace vcq::tectorwise

#endif  // VCQ_TECTORWISE_PLAN_H_
