#include "tectorwise/plan.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <set>

#include "runtime/trace.h"
#include "runtime/worker_pool.h"

namespace vcq::tectorwise {

ExecContext MakeContext(const runtime::QueryOptions& opt) {
  ExecContext ctx;
  ctx.vector_size = opt.vector_size;
  ctx.use_simd = opt.simd;
  ctx.cancel = opt.cancel;
  ctx.ledger = opt.ledger;
  ctx.fault = opt.fault;
  ctx.spill = opt.spill_manager;
  ctx.trace = opt.trace_sink;
  return ctx;
}

namespace {

/// The plan context stamped with node `index` as its site on traced runs:
/// the node scope deep instrumentation points (per-node spill-byte
/// attribution in hash_join/hash_group) read. Untraced runs use the plan
/// context unchanged.
ExecContext NodeContext(const ExecContext& base, uint32_t index) {
  if (base.trace == nullptr) return base;
  ExecContext ctx = base;
  ctx.site = index;
  return ctx;
}

/// Transparent per-node timing shim (trace runs only): forwards Next()
/// and the selection vector unchanged, accumulating busy ns / rows /
/// batches, and records one span per node per worker when the stream
/// ends (or at destruction, for drains that never reach end-of-stream).
/// Results are untouched by construction — the shim owns no data path.
class TracedOperator : public Operator {
 public:
  TracedOperator(std::unique_ptr<Operator> inner,
                 runtime::QueryTrace* trace, uint32_t lane, uint32_t site,
                 std::string label)
      : inner_(std::move(inner)),
        trace_(trace),
        lane_(lane),
        site_(site),
        label_(std::move(label)) {}

  ~TracedOperator() override { Finish(runtime::QueryTrace::NowNs()); }

  size_t Next() override {
    const uint64_t t0 = runtime::QueryTrace::NowNs();
    if (first_ns_ == 0) first_ns_ = t0;
    const size_t n = inner_->Next();
    sel_ = inner_->sel();
    const uint64_t t1 = runtime::QueryTrace::NowNs();
    busy_ns_ += t1 - t0;
    if (n == kEndOfStream) {
      Finish(t1);
    } else if (n != 0) {
      rows_ += n;
      ++batches_;
    }
    return n;
  }

 private:
  void Finish(uint64_t end_ns) {
    if (finished_ || first_ns_ == 0) return;
    finished_ = true;
    runtime::TraceSpan span;
    span.cat = "operator";
    span.name = label_;
    span.start_ns = first_ns_;
    span.end_ns = end_ns;
    span.site = site_;
    span.tuples = rows_;
    span.calls = batches_;
    trace_->AddLaneSpan(lane_, std::move(span));
    trace_->RecordOperator(site_, busy_ns_, rows_, batches_);
  }

  std::unique_ptr<Operator> inner_;
  runtime::QueryTrace* trace_;
  uint32_t lane_;
  uint32_t site_;
  std::string label_;
  uint64_t first_ns_ = 0;
  uint64_t busy_ns_ = 0;
  uint64_t rows_ = 0;
  uint64_t batches_ = 0;
  bool finished_ = false;
};

}  // namespace

std::unique_ptr<Operator> PlanNode::InstantiateNode(
    const PlanNode& node, plan_internal::Workspace& ws) {
  std::unique_ptr<Operator> op = node.Instantiate(ws);
  if (ws.ctx.trace == nullptr) return op;
  return std::make_unique<TracedOperator>(
      std::move(op), ws.ctx.trace, static_cast<uint32_t>(ws.worker_id),
      node.index_, node.label_);
}

// ---------------------------------------------------------------------------
// PlanNode declaration helpers
// ---------------------------------------------------------------------------

ColumnRef PlanNode::Define(std::string name, size_t elem_size,
                           plan_internal::CompactRegistrar registrar) {
  VCQ_CHECK_MSG(builder_ != nullptr,
                "plan node declared after Build() consumed its builder");
  return builder_->AddColumn(plan_internal::ColumnInfo{
      std::move(name), index_, elem_size, std::move(registrar)});
}

void PlanNode::Consume(ColumnRef ref) {
  VCQ_CHECK_MSG(builder_ != nullptr,
                "plan node declared after Build() consumed its builder");
  VCQ_CHECK_MSG(ref.valid(), "consumed column ref is not initialized");
  consumed_.push_back(ref.id);
}

void PlanNode::UseParam(std::string name, bool string_access) {
  VCQ_CHECK_MSG(builder_ != nullptr,
                "plan node declared after Build() consumed its builder");
  builder_->param_uses_.push_back(ParamUse{std::move(name), string_access});
}

std::string PlanNode::ColName(ColumnRef ref) const {
  VCQ_CHECK_MSG(builder_ != nullptr,
                "plan node declared after Build() consumed its builder");
  VCQ_CHECK_MSG(ref.valid(), "column ref is not initialized");
  return builder_->columns_[ref.id].name;
}

// ---------------------------------------------------------------------------
// Node instantiation
// ---------------------------------------------------------------------------

std::shared_ptr<void> ScanNode::MakeShared(
    const runtime::QueryOptions& opt) const {
  return std::make_shared<Scan::Shared>(relation_->tuple_count(),
                                        opt.morsel_grain);
}

std::unique_ptr<Operator> ScanNode::Instantiate(
    plan_internal::Workspace& ws) const {
  auto* shared = static_cast<Scan::Shared*>((*ws.shared)[index_].get());
  auto scan = std::make_unique<Scan>(shared, relation_, ws.ctx.vector_size,
                                     ws.ctx.cancel, ws.ctx.fault);
  for (const auto& add : cols_) add(*scan, ws);
  return scan;
}

std::unique_ptr<Operator> SelectNode::Instantiate(
    plan_internal::Workspace& ws) const {
  const ExecContext ctx = NodeContext(ws.ctx, index_);
  auto select = std::make_unique<Select>(InstantiateNode(*children_[0], ws),
                                         ctx.vector_size);
  for (const auto& make : steps_) select->AddStep(make(ctx, ws));
  // The derived compaction registrations: every column produced at or
  // below this Select and consumed above it.
  for (const uint32_t id : compact_) {
    (*ws.columns)[id].compact(ctx, select->compactor(), ws.slots[id]);
  }
  return select;
}

std::unique_ptr<Operator> MapNode::Instantiate(
    plan_internal::Workspace& ws) const {
  auto map = std::make_unique<::vcq::tectorwise::Map>(
      InstantiateNode(*children_[0], ws), ws.ctx.vector_size);
  for (const auto& add : steps_) add(*map, ws);
  return map;
}

std::shared_ptr<void> JoinNode::MakeShared(
    const runtime::QueryOptions& opt) const {
  // On traced runs the build's wall span is recorded under this node's
  // index (EXPLAIN ANALYZE's build/probe split).
  return std::make_shared<HashJoin::Shared>(
      opt.threads, runtime::JoinBuildEnv{opt.cancel, opt.fault, opt.ledger,
                                         opt.trace_sink, index_});
}

std::unique_ptr<Operator> JoinNode::Instantiate(
    plan_internal::Workspace& ws) const {
  const ExecContext ctx = NodeContext(ws.ctx, index_);
  auto build = InstantiateNode(*children_[0], ws);
  auto probe = InstantiateNode(*children_[1], ws);
  auto* shared = static_cast<HashJoin::Shared*>((*ws.shared)[index_].get());
  auto join = std::make_unique<HashJoin>(shared, std::move(build),
                                         std::move(probe), ctx);
  FieldMap fields;
  for (const auto& configure : config_)
    configure(ctx, *join, ws, fields);
  return join;
}

std::shared_ptr<void> GroupNode::MakeShared(
    const runtime::QueryOptions& opt) const {
  return std::make_shared<HashGroup::Shared>(opt.threads);
}

std::unique_ptr<Operator> GroupNode::Instantiate(
    plan_internal::Workspace& ws) const {
  const ExecContext ctx = NodeContext(ws.ctx, index_);
  auto* shared = static_cast<HashGroup::Shared*>((*ws.shared)[index_].get());
  auto group = std::make_unique<HashGroup>(shared, ws.worker_id,
                                           ws.worker_count,
                                           InstantiateNode(*children_[0], ws),
                                           ctx);
  for (const auto& configure : config_) configure(*group, ws);
  return group;
}

ColumnRef GroupNode::Sum(ColumnRef col) {
  Consume(col);
  const ColumnRef out = Define("sum(" + ColName(col) + ")", sizeof(int64_t),
                               plan_internal::MakeRegistrar<int64_t>());
  Detail("agg: sum(" + ColName(col) + ")");
  config_.push_back([col, id = out.id](HashGroup& group,
                                       plan_internal::Workspace& ws) {
    const size_t offset = group.AddSumAgg(ws.slots[col.id]);
    ws.slots[id] = group.AddOutput<int64_t>(offset);
  });
  return out;
}

ColumnRef GroupNode::Count() {
  const ColumnRef out = Define("count(*)", sizeof(int64_t),
                               plan_internal::MakeRegistrar<int64_t>());
  Detail("agg: count(*)");
  config_.push_back(
      [id = out.id](HashGroup& group, plan_internal::Workspace& ws) {
        const size_t offset = group.AddCountAgg();
        ws.slots[id] = group.AddOutput<int64_t>(offset);
      });
  return out;
}

ColumnRef GroupNode::Min(ColumnRef col) {
  Consume(col);
  const ColumnRef out = Define("min(" + ColName(col) + ")", sizeof(int64_t),
                               plan_internal::MakeRegistrar<int64_t>());
  Detail("agg: min(" + ColName(col) + ")");
  config_.push_back([col, id = out.id](HashGroup& group,
                                       plan_internal::Workspace& ws) {
    const size_t offset = group.AddMinAgg(ws.slots[col.id]);
    ws.slots[id] = group.AddOutput<int64_t>(offset);
  });
  return out;
}

ColumnRef GroupNode::Max(ColumnRef col) {
  Consume(col);
  const ColumnRef out = Define("max(" + ColName(col) + ")", sizeof(int64_t),
                               plan_internal::MakeRegistrar<int64_t>());
  Detail("agg: max(" + ColName(col) + ")");
  config_.push_back([col, id = out.id](HashGroup& group,
                                       plan_internal::Workspace& ws) {
    const size_t offset = group.AddMaxAgg(ws.slots[col.id]);
    ws.slots[id] = group.AddOutput<int64_t>(offset);
  });
  return out;
}

ColumnRef FixedAggNode::Sum(ColumnRef col, std::string name) {
  Consume(col);
  const ColumnRef out = Define(std::move(name), sizeof(int64_t),
                               plan_internal::MakeRegistrar<int64_t>());
  Detail("agg: sum(" + ColName(col) + ")");
  sums_.push_back(
      AggDecl{col.id, out.id, FixedAggregation::AggKind::kSum, true});
  return out;
}

ColumnRef FixedAggNode::Count(std::string name) {
  const ColumnRef out = Define(std::move(name), sizeof(int64_t),
                               plan_internal::MakeRegistrar<int64_t>());
  Detail("agg: count(*)");
  sums_.push_back(AggDecl{0, out.id, FixedAggregation::AggKind::kCount, false});
  return out;
}

ColumnRef FixedAggNode::Min(ColumnRef col, std::string name) {
  Consume(col);
  const ColumnRef out = Define(std::move(name), sizeof(int64_t),
                               plan_internal::MakeRegistrar<int64_t>());
  Detail("agg: min(" + ColName(col) + ")");
  sums_.push_back(
      AggDecl{col.id, out.id, FixedAggregation::AggKind::kMin, true});
  return out;
}

ColumnRef FixedAggNode::Max(ColumnRef col, std::string name) {
  Consume(col);
  const ColumnRef out = Define(std::move(name), sizeof(int64_t),
                               plan_internal::MakeRegistrar<int64_t>());
  Detail("agg: max(" + ColName(col) + ")");
  sums_.push_back(
      AggDecl{col.id, out.id, FixedAggregation::AggKind::kMax, true});
  return out;
}

std::unique_ptr<Operator> FixedAggNode::Instantiate(
    plan_internal::Workspace& ws) const {
  auto agg =
      std::make_unique<FixedAggregation>(InstantiateNode(*children_[0], ws));
  for (const AggDecl& decl : sums_) {
    switch (decl.kind) {
      case FixedAggregation::AggKind::kSum:
        ws.slots[decl.out] = agg->AddSumI64(ws.slots[decl.in]);
        break;
      case FixedAggregation::AggKind::kCount:
        ws.slots[decl.out] = agg->AddCount();
        break;
      case FixedAggregation::AggKind::kMin:
        ws.slots[decl.out] = agg->AddMinI64(ws.slots[decl.in]);
        break;
      case FixedAggregation::AggKind::kMax:
        ws.slots[decl.out] = agg->AddMaxI64(ws.slots[decl.in]);
        break;
    }
  }
  return agg;
}

ColumnRef OrderedAggNode::Key(ColumnRef col) {
  Consume(col);
  const ColumnRef out = Define(ColName(col), 1,
                               plan_internal::MakeRegistrar<runtime::Char<1>>());
  Detail("key: " + ColName(col));
  keys_.push_back(KeyDecl{col.id, out.id});
  return out;
}

ColumnRef OrderedAggNode::Sum(ColumnRef col) {
  Consume(col);
  const ColumnRef out = Define("sum(" + ColName(col) + ")", sizeof(int64_t),
                               plan_internal::MakeRegistrar<int64_t>());
  Detail("agg: sum(" + ColName(col) + ")");
  aggs_.push_back(AggDecl{col, out.id});
  return out;
}

ColumnRef OrderedAggNode::Count() {
  const ColumnRef out = Define("count(*)", sizeof(int64_t),
                               plan_internal::MakeRegistrar<int64_t>());
  Detail("agg: count(*)");
  aggs_.push_back(AggDecl{ColumnRef{}, out.id});
  return out;
}

std::unique_ptr<Operator> OrderedAggNode::Instantiate(
    plan_internal::Workspace& ws) const {
  auto agg = std::make_unique<OrderedAggregation>(
      InstantiateNode(*children_[0], ws), ws.ctx, max_groups_);
  for (const KeyDecl& key : keys_)
    ws.slots[key.out] = agg->AddKeyChar1(ws.slots[key.in]);
  for (const AggDecl& decl : aggs_) {
    ws.slots[decl.out] = decl.in.valid()
                             ? agg->AddSumI64(ws.slots[decl.in.id])
                             : agg->AddCount();
  }
  return agg;
}

// ---------------------------------------------------------------------------
// PlanBuilder
// ---------------------------------------------------------------------------

ColumnRef PlanBuilder::AddColumn(plan_internal::ColumnInfo info) {
  columns_.push_back(std::move(info));
  return ColumnRef{static_cast<uint32_t>(columns_.size() - 1)};
}

PlanNode& PlanBuilder::Register(std::unique_ptr<PlanNode> node,
                                std::initializer_list<PlanNode*> children) {
  node->index_ = static_cast<uint32_t>(nodes_.size());
  for (PlanNode* child : children) {
    VCQ_CHECK_MSG(child->builder_ == this,
                  "child node belongs to another builder");
    VCQ_CHECK_MSG(child->parent_ == -1,
                  "plan node already consumed by another parent");
    child->parent_ = static_cast<int>(node->index_);
    node->children_.push_back(child);
  }
  nodes_.push_back(std::move(node));
  return *nodes_.back();
}

ScanNode& PlanBuilder::Scan(const runtime::Relation& relation,
                            std::string table) {
  auto node = std::unique_ptr<ScanNode>(
      new ScanNode(this, &relation, std::move(table)));
  return static_cast<ScanNode&>(Register(std::move(node), {}));
}

SelectNode& PlanBuilder::Select(PlanNode& child) {
  auto node = std::unique_ptr<SelectNode>(new SelectNode(this));
  return static_cast<SelectNode&>(Register(std::move(node), {&child}));
}

MapNode& PlanBuilder::Map(PlanNode& child) {
  auto node = std::unique_ptr<MapNode>(new MapNode(this));
  return static_cast<MapNode&>(Register(std::move(node), {&child}));
}

JoinNode& PlanBuilder::HashJoin(PlanNode& build, PlanNode& probe) {
  auto node = std::unique_ptr<JoinNode>(new JoinNode(this));
  return static_cast<JoinNode&>(Register(std::move(node), {&build, &probe}));
}

GroupNode& PlanBuilder::HashGroup(PlanNode& child) {
  auto node = std::unique_ptr<GroupNode>(new GroupNode(this));
  return static_cast<GroupNode&>(Register(std::move(node), {&child}));
}

FixedAggNode& PlanBuilder::FixedAgg(PlanNode& child) {
  auto node = std::unique_ptr<FixedAggNode>(new FixedAggNode(this));
  return static_cast<FixedAggNode&>(Register(std::move(node), {&child}));
}

OrderedAggNode& PlanBuilder::OrderedAgg(PlanNode& child, size_t max_groups) {
  auto node =
      std::unique_ptr<OrderedAggNode>(new OrderedAggNode(this, max_groups));
  return static_cast<OrderedAggNode&>(Register(std::move(node), {&child}));
}

namespace {

/// True when batches flow through `node` with positions intact (same
/// underlying column buffers, possibly narrowed by a selection vector).
bool IsPassThrough(NodeKind kind) {
  return kind == NodeKind::kSelect || kind == NodeKind::kMap;
}

}  // namespace

Plan PlanBuilder::Build(PlanNode& root, std::vector<ColumnRef> result,
                        bool selection_aware_collector) {
  VCQ_CHECK_MSG(root.builder_ == this, "root belongs to another builder");
  VCQ_CHECK_MSG(root.parent_ == -1, "root is consumed by another node");

  // Every declared node must be reachable from the root.
  std::vector<bool> reachable(nodes_.size(), false);
  std::vector<const PlanNode*> stack = {&root};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    reachable[node->index_] = true;
    for (const PlanNode* child : node->children_) stack.push_back(child);
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    VCQ_CHECK_MSG(reachable[i], "plan node is not reachable from the root");
  }
  for (const auto& node : nodes_) {
    if (node->kind_ == NodeKind::kHashJoin) {
      VCQ_CHECK_MSG(static_cast<JoinNode*>(node.get())->has_key_,
                    "hash-join node declares no Key()");
    }
  }
  // Collectors reading root batches densely (Batch::Column()[k]) would
  // silently misread a Select/Map root that emits selection vectors;
  // rematerializing roots always publish dense batches. Collectors that go
  // through Batch::Value exclusively opt out (Run hands them the root's
  // selection vector).
  if (!selection_aware_collector) {
    VCQ_CHECK_MSG(!IsPassThrough(root.kind_) && root.kind_ != NodeKind::kScan,
                  "plan root must be a join/group/aggregation node (dense "
                  "batches); wrap streaming roots in an aggregation or pass "
                  "selection_aware_collector");
  }

  // Column visibility: a consumed column must come from the consumer's own
  // subtree, and every operator strictly between producer and consumer must
  // preserve batch positions (Select/Map). Reading e.g. a scan column above
  // a join would silently misalign positions — the builder rejects it.
  const auto parent = [&](const PlanNode* node) -> const PlanNode* {
    return node->parent_ >= 0 ? nodes_[node->parent_].get() : nullptr;
  };
  const auto check_flow = [&](uint32_t col, const PlanNode* consumer) {
    // consumer == nullptr denotes the result sink above the root.
    const PlanNode* producer = nodes_[columns_[col].producer].get();
    if (producer == consumer) return;
    for (const PlanNode* node = parent(producer); node != consumer;
         node = parent(node)) {
      VCQ_CHECK_MSG(node != nullptr,
                    "column is not visible to its consumer (crosses the "
                    "plan root)");
      VCQ_CHECK_MSG(IsPassThrough(node->kind_),
                    "column consumed across a rematerializing operator; "
                    "re-emit it as a join/group output");
    }
  };
  for (const auto& node : nodes_) {
    for (const uint32_t col : node->consumed_) check_flow(col, node.get());
  }
  for (const ColumnRef ref : result) {
    VCQ_CHECK_MSG(ref.valid(), "result column ref is not initialized");
    check_flow(ref.id, nullptr);
  }

  // Derive each Select's compaction registrations from slot usage.
  for (const auto& node : nodes_) {
    if (node->kind_ != NodeKind::kSelect) continue;
    auto* select = static_cast<SelectNode*>(node.get());
    std::set<uint32_t> needed;
    for (const PlanNode* a = parent(select); a != nullptr; a = parent(a)) {
      needed.insert(a->consumed_.begin(), a->consumed_.end());
    }
    for (const ColumnRef ref : result) needed.insert(ref.id);

    std::vector<bool> below(nodes_.size(), false);
    stack = {select};
    while (!stack.empty()) {
      const PlanNode* n = stack.back();
      stack.pop_back();
      below[n->index_] = true;
      for (const PlanNode* child : n->children_) stack.push_back(child);
    }
    select->compact_.clear();
    for (const uint32_t id : needed) {
      if (below[columns_[id].producer]) select->compact_.push_back(id);
    }
  }

  Plan plan;
  plan.name_ = std::move(name_);
  plan.nodes_ = std::move(nodes_);
  plan.columns_ = std::move(columns_);
  plan.root_ = root.index_;
  plan.result_.reserve(result.size());
  for (const ColumnRef ref : result) plan.result_.push_back(ref.id);
  plan.param_uses_ = std::move(param_uses_);
  // The scheduler's shortest-remaining-region hint: total scan input.
  for (const auto& node : plan.nodes_) {
    if (node->kind_ == NodeKind::kScan) {
      plan.work_hint_ +=
          static_cast<const ScanNode*>(node.get())->relation_->tuple_count();
    }
  }
  // The builder is consumed; declaration calls on retained node references
  // must fail cleanly instead of dereferencing a dead builder.
  for (const auto& node : plan.nodes_) node->builder_ = nullptr;
  return plan;
}

// ---------------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------------

void Plan::Run(const runtime::QueryOptions& opt,
               const runtime::QueryParams& params,
               const Collector& collect) const {
  const ExecContext ctx = MakeContext(opt);
  std::vector<std::shared_ptr<void>> shared(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    shared[i] = nodes_[i]->MakeShared(opt);
  }

  std::vector<bool> is_result(columns_.size(), false);
  for (const uint32_t id : result_) is_result[id] = true;

  std::mutex mu;
  // Trees stay alive until every worker has finished, also when a worker
  // fails: probe pipelines and the group merge read entries owned by other
  // workers' operators.
  std::vector<std::unique_ptr<Operator>> roots(opt.threads);
  runtime::PoolFor(opt).Run(opt, work_hint_, [&](size_t wid) {
    plan_internal::Workspace ws{ctx,     wid,     opt.threads, &columns_,
                                &shared, &params, {}};
    ws.slots.resize(columns_.size(), nullptr);
    // Through the dispatcher so the root is traced like every other node.
    roots[wid] = PlanNode::InstantiateNode(*nodes_[root_], ws);
    Operator& root = *roots[wid];
    size_t n;
    while ((n = root.Next()) != kEndOfStream) {
      if (n == 0) continue;
      const Batch batch(&ws.slots, &is_result, n, root.sel());
      std::lock_guard<std::mutex> lock(mu);
      collect(batch);
    }
  });
  roots.clear();
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

std::vector<Plan::NodeInfo> Plan::Describe() const {
  std::vector<NodeInfo> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    NodeInfo info;
    info.kind = node->kind_;
    info.label = node->label_;
    for (const PlanNode* child : node->children_)
      info.children.push_back(child->index_);
    info.details = node->details_;
    std::set<uint32_t> seen;
    for (const uint32_t id : node->consumed_) {
      if (seen.insert(id).second) info.consumes.push_back(columns_[id].name);
    }
    if (node->kind_ == NodeKind::kSelect) {
      const auto* select = static_cast<const SelectNode*>(node.get());
      for (const uint32_t id : select->compaction_columns())
        info.compacts.push_back(columns_[id].name);
    }
    out.push_back(std::move(info));
  }
  return out;
}

std::string Plan::ToString() const {
  const auto join_names = [](const std::vector<std::string>& names) {
    std::string out;
    for (const std::string& name : names) {
      if (!out.empty()) out += ", ";
      out += name;
    }
    return out;
  };

  std::string out = "plan " + name_ + " (tectorwise)\n";
  const std::vector<NodeInfo> infos = Describe();
  for (size_t i = 0; i < infos.size(); ++i) {
    const NodeInfo& info = infos[i];
    out += "  #" + std::to_string(i) + " " + info.label;
    if (info.kind == NodeKind::kHashJoin) {
      out += " build=#" + std::to_string(info.children[0]) + " probe=#" +
             std::to_string(info.children[1]);
    } else if (!info.children.empty()) {
      out += " <- #" + std::to_string(info.children[0]);
    }
    out += "\n";
    for (const std::string& detail : info.details) {
      out += "       " + detail + "\n";
    }
    if (!info.consumes.empty()) {
      out += "       consumes: " + join_names(info.consumes) + "\n";
    }
    if (info.kind == NodeKind::kSelect) {
      out += "       compacts: " +
             (info.compacts.empty() ? std::string("(none)")
                                    : join_names(info.compacts)) +
             "\n";
    }
  }
  std::vector<std::string> result_names;
  for (const uint32_t id : result_) result_names.push_back(columns_[id].name);
  out += "  result: " + join_names(result_names) + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

namespace {

std::string FmtMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

std::string ExplainAnalyzeTree(const Plan& plan,
                               const runtime::QueryTrace& trace,
                               size_t vector_size) {
  const std::vector<Plan::NodeInfo> infos = plan.Describe();
  if (vector_size == 0) vector_size = kDefaultVectorSize;
  const std::vector<runtime::TraceSpan> spans = trace.Spans();

  std::string out;
  // Depth-first from the root; self time = inclusive busy ns minus the
  // children's inclusive busy ns (a pull pipeline nests child work inside
  // the parent's Next).
  const std::function<void(uint32_t, size_t, const char*)> render =
      [&](uint32_t index, size_t depth, const char* role) {
        const Plan::NodeInfo& info = infos[index];
        const runtime::QueryTrace::OperatorStats stats =
            trace.OperatorAt(index);
        uint64_t children_ns = 0;
        for (const uint32_t child : info.children)
          children_ns += trace.OperatorAt(child).ns;
        const uint64_t self_ns =
            stats.ns > children_ns ? stats.ns - children_ns : 0;

        out += "  ";
        out.append(depth * 2, ' ');
        out += "#" + std::to_string(index) + " " + info.label;
        if (role[0] != '\0') out += std::string(" [") + role + "]";
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "  rows=%llu batches=%llu self=%s (%.1f ns/tuple)",
                      static_cast<unsigned long long>(stats.rows),
                      static_cast<unsigned long long>(stats.batches),
                      FmtMs(self_ns).c_str(),
                      static_cast<double>(self_ns) /
                          static_cast<double>(std::max<uint64_t>(1,
                                                                 stats.rows)));
        out += buf;
        if (stats.batches > 0) {
          std::snprintf(buf, sizeof(buf), " density=%.2f",
                        static_cast<double>(stats.rows) /
                            static_cast<double>(stats.batches * vector_size));
          out += buf;
        }
        // The join build's wall span arrives through the trace's embedded
        // NodeTelemetry (runtime/hashmap.h records it once).
        const runtime::NodeTelemetry& telemetry = trace.node_telemetry();
        if (info.kind == NodeKind::kHashJoin && telemetry.HasSpan(index)) {
          const uint64_t build_ns = telemetry.SpanNs(index);
          const uint64_t probe_ns =
              self_ns > build_ns ? self_ns - build_ns : 0;
          out += " build=" + FmtMs(build_ns) + " probe=" + FmtMs(probe_ns);
        }
        // A group-by's merge span: rows in -> flushed rows -> groups out.
        if (info.kind == NodeKind::kHashGroup) {
          uint64_t merge_ns = 0;
          uint64_t flushed = 0;
          for (const runtime::TraceSpan& span : spans) {
            if (span.site != index || span.name != "group.merge") continue;
            merge_ns += span.duration_ns();
            flushed += span.tuples;
          }
          std::snprintf(buf, sizeof(buf), " flushed=%llu merge=%s",
                        static_cast<unsigned long long>(flushed),
                        FmtMs(merge_ns).c_str());
          out += buf;
        }
        if (const uint64_t spilled = trace.SpillBytesAt(index);
            spilled != 0) {
          std::snprintf(buf, sizeof(buf), " spill=%llukB",
                        static_cast<unsigned long long>(spilled / 1024));
          out += buf;
        }
        out += "\n";

        if (info.kind == NodeKind::kHashJoin && info.children.size() == 2) {
          render(info.children[0], depth + 1, "build");
          render(info.children[1], depth + 1, "probe");
        } else {
          for (const uint32_t child : info.children)
            render(child, depth + 1, "");
        }
      };
  render(plan.root(), 0, "");
  return out;
}

}  // namespace vcq::tectorwise
