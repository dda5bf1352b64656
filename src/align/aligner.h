#ifndef DAREC_ALIGN_ALIGNER_H_
#define DAREC_ALIGN_ALIGNER_H_

#include <string>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "core/status.h"
#include "tensor/autograd.h"
#include "tensor/matrix.h"

namespace darec::align {

/// Plug-and-play hook that transfers LLM knowledge into a CF backbone.
///
/// An aligner can contribute in two ways, matching the two families in the
/// paper's evaluation:
///  - an auxiliary training loss over the backbone's node embeddings
///    (RLMRec-Con, RLMRec-Gen, DaRec), and/or
///  - an augmentation of the node embeddings used for scoring (KAR).
/// The trainer calls AugmentNodes() on every forward (training and
/// inference) and adds Loss() to the objective during training.
class Aligner {
 public:
  virtual ~Aligner() = default;

  virtual std::string name() const = 0;

  /// Extra loss term for this step; a null Variable means "none".
  /// `nodes` are the backbone's final node embeddings (users then items).
  virtual tensor::Variable Loss(const tensor::Variable& nodes, core::Rng& rng) = 0;

  /// Like Loss(), but reading/writing the caller-supplied mutable-state
  /// snapshot (MutableState() layout) instead of the aligner's own — the
  /// hook data-parallel workers use so concurrent slots never share state
  /// (pipeline::ParallelStepExecutor gives each batch slot a copy and
  /// adopts the last align slot's afterwards). The default forwards to
  /// Loss() and insists on an empty snapshot, which is correct for every
  /// stateless aligner.
  virtual tensor::Variable LossWithState(const tensor::Variable& nodes,
                                         core::Rng& rng,
                                         std::vector<tensor::Matrix>* state) {
    DARE_CHECK(state != nullptr && state->empty())
        << name() << " aligner carries no mutable state";
    return Loss(nodes, rng);
  }

  /// Optional embedding augmentation applied before scoring.
  virtual tensor::Variable AugmentNodes(const tensor::Variable& nodes) {
    return nodes;
  }

  /// Trainable parameters owned by the aligner.
  virtual std::vector<tensor::Variable> Params() = 0;

  /// Mutable non-parameter state carried across steps (e.g. warm-start
  /// k-means centers). The trainer serializes it into checkpoints so a
  /// resumed run replays bit-identically; stateless aligners return {}.
  virtual std::vector<tensor::Matrix> MutableState() const { return {}; }

  /// Restores what MutableState() returned. FailedPrecondition if the
  /// entry count does not match this aligner's layout.
  virtual core::Status RestoreMutableState(std::vector<tensor::Matrix> state) {
    if (!state.empty()) {
      return core::Status::FailedPrecondition(
          name() + " aligner carries no mutable state");
    }
    return core::Status::Ok();
  }

  /// MutableState() copied into `out`, and RestoreMutableState() from a
  /// copy of `state`. Stateful aligners override both to copy into the
  /// capacity the destination matrices already hold, so the data-parallel
  /// executor's per-slot snapshots and their adoption allocate nothing.
  virtual void CopyMutableStateInto(std::vector<tensor::Matrix>* out) const {
    *out = MutableState();
  }
  virtual core::Status CopyMutableStateFrom(
      const std::vector<tensor::Matrix>& state) {
    return RestoreMutableState(state);
  }
};

/// The "Baseline" variant: no LLM knowledge at all.
class NullAligner final : public Aligner {
 public:
  std::string name() const override { return "baseline"; }
  tensor::Variable Loss(const tensor::Variable& nodes, core::Rng& rng) override {
    (void)nodes;
    (void)rng;
    return tensor::Variable();
  }
  std::vector<tensor::Variable> Params() override { return {}; }
};

}  // namespace darec::align

#endif  // DAREC_ALIGN_ALIGNER_H_
