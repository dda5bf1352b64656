#ifndef DAREC_TENSOR_AUTOGRAD_H_
#define DAREC_TENSOR_AUTOGRAD_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "tensor/matrix.h"

namespace darec::tensor {

class Node;

/// Move-only type-erased backward closure. std::function requires copyable
/// callables, which would forbid capturing pooled ScratchMatrix buffers
/// (forward-pass byproducts like dropout masks or softmax tables) by move.
class BackwardFn {
 public:
  BackwardFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, BackwardFn>>>
  BackwardFn(F f) : impl_(std::make_unique<Impl<F>>(std::move(f))) {}

  BackwardFn(const BackwardFn&) = delete;
  BackwardFn& operator=(const BackwardFn&) = delete;
  BackwardFn(BackwardFn&&) noexcept = default;
  BackwardFn& operator=(BackwardFn&&) noexcept = default;

  explicit operator bool() const { return impl_ != nullptr; }
  void operator()(Node& node) const { impl_->Run(node); }
  /// Destroys the closure (releasing any captured scratch buffers).
  void Reset() { impl_.reset(); }

 private:
  struct Base {
    virtual ~Base() = default;
    virtual void Run(Node& node) = 0;
  };
  template <typename F>
  struct Impl final : Base {
    explicit Impl(F f) : f(std::move(f)) {}
    void Run(Node& node) override { f(node); }
    F f;
  };
  std::unique_ptr<Base> impl_;
};

/// One node in the dynamically built computation graph.
///
/// Nodes are created by the ops in ops.h; user code holds them through
/// Variable handles. A node owns its forward value, its (lazily allocated)
/// gradient, edges to its parents, and a closure that pushes its gradient
/// into the parents. Node ids increase in creation order, which makes
/// reverse-creation order a valid reverse topological order for backward.
///
/// Inside a GraphContext (the training hot path) nodes live in a
/// reset-don't-free arena: the context recycles the node object, its value
/// buffer, and its gradient capacity across steps instead of re-allocating
/// per op.
class Node {
 public:
  Node(Matrix value, bool requires_grad);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const Matrix& value() const { return value_; }
  Matrix& mutable_value() { return value_; }

  /// The accumulated gradient. Zero-sized until the first accumulation.
  const Matrix& grad() const { return grad_; }
  Matrix& mutable_grad() { return grad_; }

  bool requires_grad() const { return requires_grad_; }
  int64_t id() const { return id_; }

  /// grad += g; the first accumulation bitwise-copies into kept capacity.
  void AccumulateGrad(const Matrix& g);

  /// Empties the gradient but keeps its heap capacity, so the next
  /// accumulation reuses the buffer. grad().empty() stays true until
  /// gradient flows again — optimizers rely on that to skip untouched
  /// parameters.
  void ClearGrad() { grad_.ClearKeepCapacity(); }

  const std::vector<std::shared_ptr<Node>>& parents() const { return parents_; }

  // Wiring used by ops (ops.h) when constructing the graph.
  void set_parents(std::vector<std::shared_ptr<Node>> parents) {
    parents_ = std::move(parents);
  }
  void set_backward(BackwardFn fn) { backward_fn_ = std::move(fn); }
  bool has_backward() const { return static_cast<bool>(backward_fn_); }
  void RunBackward() {
    if (backward_fn_) backward_fn_(*this);
  }

  /// True when this node lives in a GraphContext arena slot, meaning
  /// Backward may return its value buffer to the Workspace once dead.
  bool pooled() const { return pooled_; }

  // --- GraphContext wiring (not for op/user code) ---

  /// Re-initializes an arena slot for a new step graph: fresh id (keeping
  /// reverse-creation order a valid reverse topological order), cleared
  /// gradient (capacity kept), pooled flag set. Value/edges are handled by
  /// the context.
  void ReinitForReuse(bool requires_grad);
  /// Drops parent edges (capacity kept) and the backward closure, releasing
  /// whatever scratch the closure captured.
  void ClearEdges() {
    parents_.clear();
    backward_fn_.Reset();
  }

 private:
  Matrix value_;
  Matrix grad_;
  bool requires_grad_;
  bool pooled_ = false;
  int64_t id_;
  std::vector<std::shared_ptr<Node>> parents_;
  BackwardFn backward_fn_;
};

/// Per-step arena that owns a step graph's nodes and value buffers.
///
/// While a context is current (see Scope), every op result and every
/// non-parameter Variable construction takes a recycled node slot instead of
/// make_shared, and value storage comes from the global Workspace. Reset()
/// ends the step: edges and closures are dropped (returning captured scratch
/// to the pool), slot buffers stay put, and the slot cursor rewinds — the
/// next step rebuilds its graph over the same memory. Backward() additionally
/// releases each pooled intermediate's value buffer as soon as it is dead, so
/// buffers recirculate *within* a step too.
///
/// One step graph and one Backward per Reset cycle; a Variable held across
/// Reset gets its slot evicted (handed off) rather than recycled, so stale
/// external handles stay valid — they just stop being pooled.
///
/// Not thread-safe; one context per training thread (Current() is
/// thread-local).
class GraphContext {
 public:
  struct Stats {
    int64_t resets = 0;
    int64_t slot_allocs = 0;   // new arena slots (warm-up / graph growth)
    int64_t slot_reuses = 0;   // recycled slots (steady state)
    int64_t evictions = 0;     // slots handed off to external holders
    int64_t fused_ops = 0;     // fused-traversal nodes recorded (expr fusion)
  };

  GraphContext() = default;
  GraphContext(const GraphContext&) = delete;
  GraphContext& operator=(const GraphContext&) = delete;

  /// A node with a zero-filled rows x cols value (pooled capacity).
  std::shared_ptr<Node> NewNode(int64_t rows, int64_t cols, bool requires_grad);
  /// A node adopting `value` as-is (the slot's previous buffer is pooled).
  std::shared_ptr<Node> AdoptNode(Matrix value, bool requires_grad);

  /// Ends the step: see class comment. Call after the step's Variables are
  /// out of scope (live external handles get evicted, which allocates).
  void Reset();

  /// Slots handed out since the last Reset.
  size_t live_nodes() const { return used_; }
  const Stats& stats() const { return stats_; }

  /// Bumps stats().fused_ops — called by the fused ops in ops.cc so arena
  /// telemetry shows how much of a step graph ran through fused traversals.
  void NoteFusedOp() { ++stats_.fused_ops; }

  /// The context new Variables/ops route through, or null (legacy
  /// make_shared path). Thread-local.
  static GraphContext* Current();

  /// RAII Current() switch; pass nullptr to force the legacy path.
  class Scope {
   public:
    explicit Scope(GraphContext* ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    GraphContext* prev_;
  };

 private:
  std::shared_ptr<Node> TakeSlot(bool requires_grad);

  std::vector<std::shared_ptr<Node>> slots_;
  size_t used_ = 0;
  Stats stats_;
};

/// A cheap shared handle to a graph Node — the public face of autograd.
///
/// Typical lifecycle: parameters are long-lived Variables created with
/// Variable::Parameter(); each training step builds a fresh graph of
/// intermediate Variables by calling ops, runs Backward() on the scalar
/// loss, lets the optimizer consume parameter gradients, and drops the
/// intermediates (arena slots inside a GraphContext, shared_ptr reclaim
/// otherwise).
class Variable {
 public:
  /// Null handle; most APIs require a non-null Variable.
  Variable() = default;

  /// Wraps a value. requires_grad marks the node as a gradient sink.
  /// Non-parameter nodes route through GraphContext::Current() when one is
  /// active; parameters always get their own heap node.
  explicit Variable(Matrix value, bool requires_grad = false);

  /// Wraps an existing node (ops and GraphContext plumbing).
  explicit Variable(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  /// A trainable leaf (gradient sink).
  static Variable Parameter(Matrix value) { return Variable(std::move(value), true); }
  /// A non-trainable input.
  static Variable Constant(Matrix value) { return Variable(std::move(value), false); }

  bool IsNull() const { return node_ == nullptr; }

  const Matrix& value() const { return node_->value(); }
  Matrix& mutable_value() { return node_->mutable_value(); }
  const Matrix& grad() const { return node_->grad(); }
  bool requires_grad() const { return node_->requires_grad(); }
  void ClearGrad() { node_->ClearGrad(); }

  int64_t rows() const { return node_->value().rows(); }
  int64_t cols() const { return node_->value().cols(); }

  /// Scalar accessor; requires a 1x1 value (losses).
  float scalar() const {
    DARE_CHECK(rows() == 1 && cols() == 1) << "scalar() on " << rows() << "x" << cols();
    return value()(0, 0);
  }

  std::shared_ptr<Node> node() const { return node_; }

 private:
  std::shared_ptr<Node> node_;
};

/// Thread-local diversion of parameter-gradient accumulation, the building
/// block of data-parallel training (pipeline::ParallelStepExecutor).
///
/// A worker running backward for its batch slot installs a Scope; while it
/// is active, Node::AccumulateGrad on a *registered* node lands in the
/// sink's per-parameter buffer instead of the shared node — concurrent
/// workers never touch the same memory. Unregistered nodes (the step's
/// intermediates, which are per-worker anyway) accumulate normally.
///
/// Buffers mimic Node gradients bitwise: the first accumulation copies
/// (preserving negative zeros), later ones AddInPlace. After the workers
/// join, the executor drains each sink in a fixed slot order via
/// Node::AccumulateGrad(sink.buffer(i)) — no Scope active — which makes the
/// cross-slot reduction order worker-count independent.
///
/// Not thread-safe; one sink per worker, registered once, Clear()ed between
/// super-steps (buffer capacity is kept, so steady state allocates nothing).
class GradSink {
 public:
  GradSink() = default;
  GradSink(const GradSink&) = delete;
  GradSink& operator=(const GradSink&) = delete;

  /// Registers the parameters whose gradients this sink captures, in the
  /// reduction order. Call once, before the first Scope.
  void Register(const std::vector<Variable>& params);

  size_t size() const { return buffers_.size(); }
  /// Captured gradient for the i-th registered parameter; empty when no
  /// gradient flowed into it during the sink's Scopes.
  const Matrix& buffer(size_t i) const { return buffers_[i]; }

  /// Empties every buffer, keeping capacity.
  void Clear();

  /// True (after accumulating into the buffer) when `node` is registered
  /// with the sink currently installed on this thread. Called by
  /// Node::AccumulateGrad.
  static bool MaybeDivert(Node* node, const Matrix& g);

  /// RAII install on the current thread. Scopes don't nest.
  class Scope {
   public:
    explicit Scope(GradSink* sink);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

 private:
  std::unordered_map<const Node*, size_t> index_;
  std::vector<Matrix> buffers_;
};

/// Runs reverse-mode differentiation from `root` (must be 1x1). Seeds the
/// root gradient with 1 and accumulates into every reachable node that
/// requires (or leads to a node that requires) gradients. Parameter
/// gradients accumulate across calls until ClearGrad()/optimizer ZeroGrad().
///
/// Pooled intermediates (GraphContext nodes) have their value buffers
/// returned to the Workspace in visit order: a node's value is dead once its
/// own backward has run, because closures only read their own node's and
/// their parents' values, and parents (lower ids) are visited later. The
/// root's value and parameter values are never released.
void Backward(const Variable& root);

/// Vector-Jacobian product: the same traversal, with `root` of any shape and
/// its gradient seeded by `seed` (root's shape, CHECKed) instead of 1. For a
/// constant G, Backward(root, G) accumulates the parameter gradients of
/// Sum(Mul(root, Constant(G))) bit for bit, without building that graph —
/// the data-parallel executor back-propagates a super-step's summed dL/dE
/// through one shared propagation this way.
void Backward(const Variable& root, const Matrix& seed);

}  // namespace darec::tensor

#endif  // DAREC_TENSOR_AUTOGRAD_H_
