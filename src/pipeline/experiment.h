#ifndef DAREC_PIPELINE_EXPERIMENT_H_
#define DAREC_PIPELINE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "align/kar.h"
#include "align/rlmrec.h"
#include "cf/backbone.h"
#include "core/statusor.h"
#include "darec/darec.h"
#include "data/dataset.h"
#include "graph/bipartite.h"
#include "llm/encoder.h"
#include "pipeline/train_loop.h"

namespace darec::pipeline {

/// Full description of one table/figure cell: dataset x backbone x variant
/// plus every component's hyper-parameters.
struct ExperimentSpec {
  std::string dataset = "amazon-book-small";
  /// One of cf::BackboneNames().
  std::string backbone = "lightgcn";
  /// One of VariantNames(): "baseline", "rlmrec-con", "rlmrec-gen", "kar",
  /// "darec".
  std::string variant = "baseline";

  cf::BackboneOptions backbone_options;
  TrainOptions train_options;
  llm::SimulatedLlmOptions llm_options;
  align::RlmrecOptions rlmrec_options;
  align::KarOptions kar_options;
  model::DaRecOptions darec_options;
};

/// Names of the plug-in variants compared in Tables III/IV.
std::vector<std::string> VariantNames();

/// VariantNames() plus the extra direct-alignment baselines this library
/// implements beyond the paper's tables (ControlRec, CTRL).
std::vector<std::string> ExtendedVariantNames();

/// One assembled experiment: synthetic dataset, interaction graph, frozen
/// LLM embeddings, backbone, and aligner, ready to train. Keeps all parts
/// alive for post-hoc analysis (t-SNE, preference centers).
class Experiment {
 public:
  /// Materializes every component of `spec`. Fails on unknown dataset /
  /// backbone / variant names.
  static core::StatusOr<std::unique_ptr<Experiment>> Create(
      const ExperimentSpec& spec);

  /// Trains and evaluates. An optional observer taps the staged train loop
  /// (progress, metrics); it is attached for the experiment's lifetime and
  /// must outlive it. Observers never change numerics.
  TrainResult Run(TrainObserver* observer = nullptr) {
    if (observer != nullptr) trainer_->AddObserver(observer);
    return trainer_->Run();
  }

  const ExperimentSpec& spec() const { return spec_; }
  const data::Dataset& dataset() const { return *dataset_; }
  const graph::BipartiteGraph& graph() const { return *graph_; }
  const tensor::Matrix& llm_embeddings() const { return llm_embeddings_; }
  cf::GraphBackbone& backbone() { return *backbone_; }
  /// Null for the "baseline" variant.
  align::Aligner* aligner() { return aligner_.get(); }
  Trainer& trainer() { return *trainer_; }

  /// The DaRec aligner, or null if the variant is not "darec".
  model::DaRecAligner* darec() { return darec_; }

 private:
  Experiment() = default;

  ExperimentSpec spec_;
  std::unique_ptr<data::Dataset> dataset_;
  std::unique_ptr<graph::BipartiteGraph> graph_;
  tensor::Matrix llm_embeddings_;
  std::unique_ptr<cf::GraphBackbone> backbone_;
  std::unique_ptr<align::Aligner> aligner_;
  model::DaRecAligner* darec_ = nullptr;
  std::unique_ptr<Trainer> trainer_;
};

/// Convenience wrapper: Create + Run.
core::StatusOr<TrainResult> RunExperiment(const ExperimentSpec& spec);

}  // namespace darec::pipeline

#endif  // DAREC_PIPELINE_EXPERIMENT_H_
