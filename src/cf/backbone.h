#ifndef DAREC_CF_BACKBONE_H_
#define DAREC_CF_BACKBONE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "graph/bipartite.h"
#include "tensor/autograd.h"
#include "tensor/csr.h"
#include "tensor/matrix.h"

namespace darec::cf {

/// Hyper-parameters shared by all collaborative-filtering backbones.
struct BackboneOptions {
  int64_t embedding_dim = 32;
  int64_t num_layers = 3;
  /// L2 regularization weight on the batch's initial embeddings.
  float l2_reg = 1e-4f;

  // Self-supervised extras (used by the backbones that define an SSL view).
  /// Weight of the auxiliary self-supervised loss. Note: the BPR base loss
  /// uses mean reduction over the batch, so this weight is ~batch_size
  /// smaller than the 0.1 used by sum-reduction reference implementations.
  float ssl_weight = 0.002f;
  /// InfoNCE temperature.
  float ssl_temperature = 0.2f;
  /// Nodes subsampled per step for contrastive terms (keeps O(B²) small).
  int64_t ssl_batch = 256;
  /// SGL: edge dropout probability for view generation.
  float edge_drop_prob = 0.2f;
  /// SimGCL: magnitude of the embedding noise perturbation.
  float noise_magnitude = 0.1f;
  /// DCCF: number of latent intent prototypes.
  int64_t num_intents = 8;
  /// AutoCF: fraction of edges masked for reconstruction.
  float mask_ratio = 0.2f;

  uint64_t seed = 1;
};

/// Base class for graph collaborative-filtering backbones.
///
/// All backbones share one trainable node embedding table (users first,
/// then items) and produce final node representations by propagating it
/// over the normalized interaction graph. Subclasses choose the
/// propagation rule and, optionally, a self-supervised auxiliary loss.
class GraphBackbone {
 public:
  /// `graph` must outlive the backbone.
  GraphBackbone(const graph::BipartiteGraph* graph, const BackboneOptions& options);

  GraphBackbone(const GraphBackbone&) = delete;
  GraphBackbone& operator=(const GraphBackbone&) = delete;

  virtual ~GraphBackbone() = default;

  /// Registry name ("lightgcn", "sgl", ...).
  virtual std::string name() const = 0;

  /// Builds the forward graph and returns final node embeddings
  /// [(num_users + num_items) x dim]. With training == true, backbones that
  /// use stochastic views (AutoCF's edge masking) sample them here.
  virtual tensor::Variable Forward(bool training, core::Rng& rng) = 0;

  /// Auxiliary self-supervised loss for the current step, or a null
  /// Variable when the backbone has none. `nodes` is the result of the
  /// latest Forward(true, ...) call.
  virtual tensor::Variable SslLoss(const tensor::Variable& nodes, core::Rng& rng);

  /// All trainable parameters.
  virtual std::vector<tensor::Variable> Params();

  /// True when the training forward is the same in every batch slot of a
  /// data-parallel super-step (pipeline::ParallelStepExecutor):
  ///  * Forward(true, rng) reads no rng and writes no member, so it is a
  ///    pure function of the parameters;
  ///  * SslLoss() reads nothing Forward produced except its `nodes`
  ///    argument, and writes no member.
  /// The executor then runs Forward once per super-step and every slot's
  /// losses on that one node matrix, on concurrent workers. Backbones that
  /// draw a view in Forward (AutoCF) or stash per-step views for SslLoss
  /// (NCL, DCCF) override to false: each slot runs its own Forward, on one
  /// worker. backbone_test enforces the contract for every backbone that
  /// declares it.
  virtual bool SupportsConcurrentForward() const { return true; }

  /// Final node embeddings for evaluation (no augmentation, no gradient
  /// bookkeeping kept).
  tensor::Matrix InferenceEmbeddings();

  const graph::BipartiteGraph& graph() const { return *graph_; }
  const BackboneOptions& options() const { return options_; }

  /// The trainable initial embedding table (for batch L2 regularization).
  tensor::Variable initial_embeddings() { return embedding_; }

 protected:
  /// LightGCN-style propagation: E_l = Â E_{l-1}; returns mean(E_0..E_L).
  tensor::Variable PropagateMean(std::shared_ptr<const tensor::CsrMatrix> adjacency,
                                 const tensor::Variable& e0, int64_t layers) const;

  /// Uniformly samples `count` node indices (without replacement when count
  /// <= num_nodes, else clamped).
  std::vector<int64_t> SampleNodes(int64_t count, core::Rng& rng) const;

  /// Contrastive loss between two views, computed separately over sampled
  /// user nodes and item nodes and summed — per SGL, users and items are
  /// never each other's in-batch negatives (that would directly repel the
  /// user–item pairs BPR pulls together).
  tensor::Variable TwoSidedInfoNce(const tensor::Variable& view1,
                                   const tensor::Variable& view2,
                                   core::Rng& rng) const;

  const graph::BipartiteGraph* graph_;
  BackboneOptions options_;
  tensor::Variable embedding_;
};

}  // namespace darec::cf

#endif  // DAREC_CF_BACKBONE_H_
