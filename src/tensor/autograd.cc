#include "tensor/autograd.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "tensor/workspace.h"

namespace darec::tensor {
namespace {

std::atomic<int64_t> g_next_node_id{0};

thread_local GraphContext* t_current_context = nullptr;

thread_local GradSink* t_current_sink = nullptr;

}  // namespace

Node::Node(Matrix value, bool requires_grad)
    : value_(std::move(value)),
      requires_grad_(requires_grad),
      id_(g_next_node_id.fetch_add(1)) {}

void Node::AccumulateGrad(const Matrix& g) {
  DARE_CHECK(g.rows() == value_.rows() && g.cols() == value_.cols())
      << "gradient shape " << g.rows() << "x" << g.cols() << " vs value "
      << value_.rows() << "x" << value_.cols();
  if (GradSink::MaybeDivert(this, g)) return;
  if (grad_.empty()) {
    // Bitwise copy, not add-into-zeros: 0.0f + (-0.0f) would flip the sign
    // bit of negative zeros. CopyFrom reuses the capacity ClearGrad kept.
    grad_.CopyFrom(g);
  } else {
    grad_.AddInPlace(g);
  }
}

void GradSink::Register(const std::vector<Variable>& params) {
  DARE_CHECK(buffers_.empty()) << "GradSink registered twice";
  buffers_.resize(params.size());
  index_.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    index_.emplace(params[i].node().get(), i);
  }
}

void GradSink::Clear() {
  for (Matrix& b : buffers_) b.ClearKeepCapacity();
}

bool GradSink::MaybeDivert(Node* node, const Matrix& g) {
  GradSink* sink = t_current_sink;
  if (sink == nullptr) return false;
  const auto it = sink->index_.find(node);
  if (it == sink->index_.end()) return false;
  Matrix& buf = sink->buffers_[it->second];
  // Same bitwise protocol as Node gradients: first touch copies (preserving
  // negative zeros), later touches add. Draining the buffer through
  // AccumulateGrad then reproduces exactly what a serial run accumulates.
  if (buf.empty()) {
    buf.CopyFrom(g);
  } else {
    buf.AddInPlace(g);
  }
  return true;
}

GradSink::Scope::Scope(GradSink* sink) {
  DARE_CHECK(t_current_sink == nullptr) << "GradSink scopes don't nest";
  t_current_sink = sink;
}

GradSink::Scope::~Scope() { t_current_sink = nullptr; }

void Node::ReinitForReuse(bool requires_grad) {
  requires_grad_ = requires_grad;
  pooled_ = true;
  id_ = g_next_node_id.fetch_add(1);
  grad_.ClearKeepCapacity();
}

std::shared_ptr<Node> GraphContext::TakeSlot(bool requires_grad) {
  if (used_ == slots_.size()) {
    slots_.push_back(std::make_shared<Node>(Matrix(), requires_grad));
    ++stats_.slot_allocs;
  } else {
    ++stats_.slot_reuses;
  }
  std::shared_ptr<Node> node = slots_[used_++];
  node->ReinitForReuse(requires_grad);
  return node;
}

std::shared_ptr<Node> GraphContext::NewNode(int64_t rows, int64_t cols,
                                            bool requires_grad) {
  std::shared_ptr<Node> node = TakeSlot(requires_grad);
  Matrix& v = node->mutable_value();
  const int64_t need = rows * cols;
  if (v.capacity() < need) {
    // Slot buffer too small (or released during the last Backward): swap it
    // for a pooled one.
    Workspace& ws = Workspace::Global();
    if (v.capacity() > 0) ws.Release(std::move(v));
    v = ws.AcquireFor(need);
  }
  v.ResetShape(rows, cols);
  return node;
}

std::shared_ptr<Node> GraphContext::AdoptNode(Matrix value, bool requires_grad) {
  std::shared_ptr<Node> node = TakeSlot(requires_grad);
  Matrix& v = node->mutable_value();
  if (v.capacity() > 0) Workspace::Global().Release(std::move(v));
  v = std::move(value);
  return node;
}

void GraphContext::Reset() {
  // Pass 1: sever the graph. Dropping closures returns their captured
  // scratch to the Workspace; dropping parent edges releases the shared_ptr
  // web so use_count below reflects external holders only.
  for (size_t i = 0; i < used_; ++i) slots_[i]->ClearEdges();
  // Pass 2: slots still referenced outside the arena are handed off — the
  // holder keeps a valid (detached, no longer pooled) node and the arena
  // takes a fresh slot.
  for (size_t i = 0; i < used_; ++i) {
    if (slots_[i].use_count() > 1) {
      slots_[i] = std::make_shared<Node>(Matrix(), /*requires_grad=*/false);
      ++stats_.evictions;
    }
  }
  used_ = 0;
  ++stats_.resets;
}

GraphContext* GraphContext::Current() { return t_current_context; }

GraphContext::Scope::Scope(GraphContext* ctx) : prev_(t_current_context) {
  t_current_context = ctx;
}

GraphContext::Scope::~Scope() { t_current_context = prev_; }

Variable::Variable(Matrix value, bool requires_grad) {
  GraphContext* ctx = GraphContext::Current();
  if (ctx != nullptr && !requires_grad) {
    node_ = ctx->AdoptNode(std::move(value), requires_grad);
  } else {
    node_ = std::make_shared<Node>(std::move(value), requires_grad);
  }
}

void Backward(const Variable& root) {
  DARE_CHECK(!root.IsNull());
  DARE_CHECK(root.rows() == 1 && root.cols() == 1)
      << "Backward root must be a 1x1 scalar, got " << root.rows() << "x"
      << root.cols();
  static const Matrix kSeedOne = Matrix::Full(1, 1, 1.0f);
  Backward(root, kSeedOne);
}

void Backward(const Variable& root, const Matrix& seed) {
  DARE_CHECK(!root.IsNull());
  DARE_CHECK(seed.SameShape(root.value()))
      << "Backward seed shape " << seed.rows() << "x" << seed.cols()
      << " vs root " << root.rows() << "x" << root.cols();

  // Collect all reachable nodes (iterative DFS over parent edges).
  std::vector<std::shared_ptr<Node>> reachable;
  std::unordered_set<Node*> seen;
  std::vector<std::shared_ptr<Node>> stack{root.node()};
  seen.insert(root.node().get());
  while (!stack.empty()) {
    std::shared_ptr<Node> node = std::move(stack.back());
    stack.pop_back();
    for (const std::shared_ptr<Node>& parent : node->parents()) {
      if (seen.insert(parent.get()).second) stack.push_back(parent);
    }
    reachable.push_back(std::move(node));
  }

  // Node ids increase in creation order and every parent is created before
  // its children, so descending-id order is a reverse topological order.
  std::sort(reachable.begin(), reachable.end(),
            [](const std::shared_ptr<Node>& a, const std::shared_ptr<Node>& b) {
              return a->id() > b->id();
            });

  root.node()->AccumulateGrad(seed);
  Workspace& ws = Workspace::Global();
  Node* const root_node = root.node().get();
  for (const std::shared_ptr<Node>& node : reachable) {
    if (!node->grad().empty()) node->RunBackward();
    // A pooled node's value is dead from here on: its own backward just ran
    // (or was skipped), its children (higher ids) already ran theirs, and
    // only children/self read it. Recirculate the buffer so backward scratch
    // and later steps reuse it. Root and parameter values stay readable.
    if (node->pooled() && !node->requires_grad() && node.get() != root_node) {
      Matrix& v = node->mutable_value();
      if (v.capacity() > 0) ws.Release(std::move(v));
    }
  }
}

}  // namespace darec::tensor
