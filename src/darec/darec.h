#ifndef DAREC_DAREC_DAREC_H_
#define DAREC_DAREC_DAREC_H_

#include <memory>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "darec/losses.h"
#include "tensor/matrix.h"
#include "tensor/mlp.h"

namespace darec::model {

/// Hyper-parameters of the DaRec framework (paper §III, Eq. 11).
struct DaRecOptions {
  /// Trade-off λ between the base loss and the four alignment losses.
  /// The paper uses 0.1 against a sum-reduction base loss; with our
  /// mean-reduction BPR the calibrated plateau is [0.1, 1.0] (Fig. 5) and
  /// benches default to 0.5.
  float lambda = 0.5f;
  /// N̂: nodes sampled per step for the alignment losses (paper §III-D).
  int64_t sample_size = 512;
  /// Rows used for the O(m²) uniformity term (a prefix of the N̂ sample).
  int64_t uniformity_sample = 256;
  /// K: number of preference centers (paper Fig. 4 sweeps this).
  int64_t num_clusters = 4;
  /// Width of the shared/specific projector outputs.
  int64_t projection_dim = 32;
  /// Hidden width of the projector MLPs (used when projector_layers == 2).
  int64_t hidden_dim = 64;
  /// 1 = single affine layer, 2 = one hidden layer. A shallow CF-side
  /// projector lets the structure-alignment gradient reach the backbone
  /// instead of being absorbed by the head; the deeper LLM-side projector
  /// absorbs the absolute-direction constraints of the local loss
  /// (DESIGN.md §5).
  int64_t projector_layers = 1;
  int64_t llm_projector_layers = 1;
  /// Lloyd iterations inside the local loss.
  int64_t kmeans_iterations = 15;
  MatchingStrategy matching = MatchingStrategy::kGreedy;
  /// Temperature for the sharpened (relational-distillation) form of the
  /// global structure loss; 0 selects the plain Frobenius form of Eq. 5.
  float global_softmax_tau = 0.5f;

  // Ablation toggles (paper Fig. 3: w/o or, w/o uni, w/o glo, w/o loc).
  bool enable_orthogonality = true;
  bool enable_uniformity = true;
  bool enable_global = true;
  bool enable_local = true;

  uint64_t seed = 1337;
};

/// Node-level shared/specific projections for both modalities (Eq. 1).
struct DisentangledViews {
  tensor::Variable cf_shared;
  tensor::Variable cf_specific;
  tensor::Variable llm_shared;
  tensor::Variable llm_specific;
};

/// DaRec: the paper's disentangled alignment framework, packaged as a
/// plug-and-play Aligner over any GraphBackbone.
///
/// Per step it samples N̂ nodes, projects the CF and frozen LLM
/// representations into shared and specific components with four MLPs
/// (Eq. 1), and adds λ (L_or + L_uni + L_glo + L_loc) to the objective
/// (Eq. 2–11).
class DaRecAligner final : public align::Aligner {
 public:
  /// `llm_embeddings` is the frozen (num_nodes x llm_dim) matrix E^L;
  /// `cf_dim` the backbone embedding width.
  DaRecAligner(tensor::Matrix llm_embeddings, int64_t cf_dim,
               const DaRecOptions& options);

  std::string name() const override { return "darec"; }

  tensor::Variable Loss(const tensor::Variable& nodes, core::Rng& rng) override;

  /// Data-parallel form: the k-means warm-start centers are read from and
  /// written to `state` ({cf_centers, llm_centers}) instead of the member,
  /// leaving `local_state_` untouched.
  tensor::Variable LossWithState(const tensor::Variable& nodes, core::Rng& rng,
                                 std::vector<tensor::Matrix>* state) override;

  std::vector<tensor::Variable> Params() override;

  /// Warm-start k-means centers of the local structure loss (Eq. 6): they
  /// evolve across steps outside the optimizer, so checkpoints must carry
  /// them for bit-identical resume.
  std::vector<tensor::Matrix> MutableState() const override {
    return {local_state_.cf_centers, local_state_.llm_centers};
  }
  core::Status RestoreMutableState(std::vector<tensor::Matrix> state) override {
    if (state.size() != 2) {
      return core::Status::FailedPrecondition(
          "darec aligner state needs 2 matrices, got " +
          std::to_string(state.size()));
    }
    local_state_.cf_centers = std::move(state[0]);
    local_state_.llm_centers = std::move(state[1]);
    return core::Status::Ok();
  }
  void CopyMutableStateInto(std::vector<tensor::Matrix>* out) const override {
    out->resize(2);
    (*out)[0].CopyFrom(local_state_.cf_centers);
    (*out)[1].CopyFrom(local_state_.llm_centers);
  }
  core::Status CopyMutableStateFrom(
      const std::vector<tensor::Matrix>& state) override {
    if (state.size() != 2) {
      return core::Status::FailedPrecondition(
          "darec aligner state needs 2 matrices, got " +
          std::to_string(state.size()));
    }
    local_state_.cf_centers.CopyFrom(state[0]);
    local_state_.llm_centers.CopyFrom(state[1]);
    return core::Status::Ok();
  }

  /// Projects the given rows (all nodes when `sample` is empty) through the
  /// four projectors without recording gradients — used by the t-SNE /
  /// preference-center analyses (paper Fig. 6).
  DisentangledViews Project(const tensor::Matrix& cf_nodes,
                            const std::vector<int64_t>& sample = {}) const;

  const DaRecOptions& options() const { return options_; }

 private:
  tensor::Variable LossImpl(const tensor::Variable& nodes, core::Rng& rng,
                            LocalAlignState* state);

  DaRecOptions options_;
  tensor::Variable llm_;  // Constant, row-normalized.
  LocalAlignState local_state_;
  std::unique_ptr<tensor::Mlp> cf_shared_proj_;
  std::unique_ptr<tensor::Mlp> cf_specific_proj_;
  std::unique_ptr<tensor::Mlp> llm_shared_proj_;
  std::unique_ptr<tensor::Mlp> llm_specific_proj_;
};

}  // namespace darec::model

#endif  // DAREC_DAREC_DAREC_H_
