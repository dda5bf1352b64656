#include "cf/backbone.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "cf/autocf.h"
#include "cf/dccf.h"
#include "cf/lightgcl.h"
#include "cf/ncl.h"
#include "cf/registry.h"
#include "core/rng.h"
#include "data/presets.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"

namespace darec::cf {
namespace {

struct Fixture {
  Fixture() {
    auto ds = data::LoadPresetDataset("tiny");
    DARE_CHECK(ds.ok());
    dataset = std::make_unique<data::Dataset>(std::move(ds).value());
    graph = std::make_unique<graph::BipartiteGraph>(*dataset);
  }
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<graph::BipartiteGraph> graph;
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

BackboneOptions SmallOptions() {
  BackboneOptions options;
  options.embedding_dim = 8;
  options.num_layers = 2;
  options.ssl_batch = 32;
  return options;
}

/// Property sweep: every registered backbone satisfies the GraphBackbone
/// contract (shapes, gradients, determinism of inference).
class BackboneContractTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllBackbones, BackboneContractTest,
                         ::testing::ValuesIn(BackboneNames()),
                         [](const auto& info) { return info.param; });

TEST_P(BackboneContractTest, CreatesWithRegistryName) {
  Fixture& f = SharedFixture();
  auto backbone = CreateBackbone(GetParam(), f.graph.get(), SmallOptions());
  ASSERT_TRUE(backbone.ok());
  EXPECT_EQ((*backbone)->name(), GetParam());
}

TEST_P(BackboneContractTest, ForwardShape) {
  Fixture& f = SharedFixture();
  auto backbone = CreateBackbone(GetParam(), f.graph.get(), SmallOptions());
  ASSERT_TRUE(backbone.ok());
  core::Rng rng(1);
  tensor::Variable nodes = (*backbone)->Forward(true, rng);
  EXPECT_EQ(nodes.rows(), f.graph->num_nodes());
  EXPECT_EQ(nodes.cols(), 8);
}

TEST_P(BackboneContractTest, GradientsReachEmbeddings) {
  Fixture& f = SharedFixture();
  auto backbone = CreateBackbone(GetParam(), f.graph.get(), SmallOptions());
  ASSERT_TRUE(backbone.ok());
  core::Rng rng(2);
  tensor::Variable nodes = (*backbone)->Forward(true, rng);
  tensor::Variable loss = tensor::SumSquares(nodes);
  tensor::Variable ssl = (*backbone)->SslLoss(nodes, rng);
  if (!ssl.IsNull()) loss = tensor::Add(loss, ssl);
  Backward(loss);
  for (tensor::Variable& p : (*backbone)->Params()) {
    EXPECT_FALSE(p.grad().empty()) << "parameter missing gradient";
  }
}

TEST_P(BackboneContractTest, InferenceIsDeterministic) {
  Fixture& f = SharedFixture();
  auto backbone = CreateBackbone(GetParam(), f.graph.get(), SmallOptions());
  ASSERT_TRUE(backbone.ok());
  tensor::Matrix a = (*backbone)->InferenceEmbeddings();
  tensor::Matrix b = (*backbone)->InferenceEmbeddings();
  EXPECT_TRUE(tensor::AllClose(a, b));
}

TEST_P(BackboneContractTest, SslLossIsFiniteWhenPresent) {
  Fixture& f = SharedFixture();
  auto backbone = CreateBackbone(GetParam(), f.graph.get(), SmallOptions());
  ASSERT_TRUE(backbone.ok());
  core::Rng rng(3);
  tensor::Variable nodes = (*backbone)->Forward(true, rng);
  tensor::Variable ssl = (*backbone)->SslLoss(nodes, rng);
  if (!ssl.IsNull()) {
    EXPECT_TRUE(std::isfinite(ssl.scalar()));
    EXPECT_GE(ssl.scalar(), 0.0f);
  }
}

/// The shared-forward contract (GraphBackbone::SupportsConcurrentForward)
/// the data-parallel executor relies on to run one Forward per super-step:
/// the training forward reads no rng and is a pure function of the
/// parameters, and SslLoss reads nothing Forward produced except `nodes`.
TEST_P(BackboneContractTest, SharedForwardContractHolds) {
  Fixture& f = SharedFixture();
  auto backbone = CreateBackbone(GetParam(), f.graph.get(), SmallOptions());
  ASSERT_TRUE(backbone.ok());
  if (!(*backbone)->SupportsConcurrentForward()) {
    GTEST_SKIP() << GetParam() << " runs one Forward per batch slot";
  }
  core::Rng rng_a(11);
  core::Rng rng_b(12);
  const tensor::Matrix a = (*backbone)->Forward(true, rng_a).value();
  const tensor::Matrix b = (*backbone)->Forward(true, rng_b).value();
  ASSERT_TRUE(a.SameShape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * a.size()), 0)
      << "training forward depends on its rng";
  EXPECT_EQ(rng_a.NextUint64(), core::Rng(11).NextUint64())
      << "training forward drew from its rng";
  EXPECT_EQ(rng_b.NextUint64(), core::Rng(12).NextUint64())
      << "training forward drew from its rng";

  // A twin that never ran Forward computes the same SSL loss from the same
  // nodes and rng.
  auto twin = CreateBackbone(GetParam(), f.graph.get(), SmallOptions());
  ASSERT_TRUE(twin.ok());
  const tensor::Variable nodes = tensor::Variable::Constant(a);
  core::Rng ssl_rng(13);
  core::Rng twin_rng(13);
  const tensor::Variable ssl = (*backbone)->SslLoss(nodes, ssl_rng);
  const tensor::Variable twin_ssl = (*twin)->SslLoss(nodes, twin_rng);
  ASSERT_EQ(ssl.IsNull(), twin_ssl.IsNull());
  if (!ssl.IsNull()) {
    const float got = ssl.scalar();
    const float want = twin_ssl.scalar();
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
        << "SslLoss read state Forward left behind";
  }
}

TEST(BackboneRegistryTest, UnknownNameFails) {
  Fixture& f = SharedFixture();
  EXPECT_FALSE(CreateBackbone("svd++", f.graph.get(), SmallOptions()).ok());
}

TEST(BackboneRegistryTest, NamesLeadWithPaperOrder) {
  std::vector<std::string> names = BackboneNames();
  ASSERT_GE(names.size(), 6u);
  // The paper's Table III backbones come first, in the paper's order.
  const std::vector<std::string> paper{"gccf", "lightgcn", "sgl",
                                       "simgcl", "dccf", "autocf"};
  for (size_t i = 0; i < paper.size(); ++i) EXPECT_EQ(names[i], paper[i]);
  // The extension backbones are present too.
  for (const std::string extra : {"mf", "ngcf", "ncl", "lightgcl"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), extra), names.end()) << extra;
  }
}

TEST(LightGcnTest, PropagationSmoothsNeighbors) {
  // After propagation, connected nodes move toward each other relative to
  // their initial embeddings (graph smoothing).
  Fixture& f = SharedFixture();
  auto backbone = CreateBackbone("lightgcn", f.graph.get(), SmallOptions());
  ASSERT_TRUE(backbone.ok());
  core::Rng rng(4);
  tensor::Matrix e0 = (*backbone)->initial_embeddings().value();
  tensor::Matrix out = (*backbone)->Forward(false, rng).value();

  const data::Interaction& edge = f.graph->edges()[0];
  const int64_t u = f.graph->UserNode(edge.user);
  const int64_t i = f.graph->ItemNode(edge.item);
  auto row_dist = [](const tensor::Matrix& m, int64_t a, int64_t b) {
    double acc = 0.0;
    for (int64_t c = 0; c < m.cols(); ++c) {
      const double diff = double(m(a, c)) - m(b, c);
      acc += diff * diff;
    }
    return acc;
  };
  EXPECT_LT(row_dist(out, u, i), row_dist(e0, u, i));
}

TEST(AutoCfTest, TrainingForwardMasksEdges) {
  Fixture& f = SharedFixture();
  BackboneOptions options = SmallOptions();
  options.mask_ratio = 0.3f;
  AutoCf autocf(f.graph.get(), options);
  core::Rng rng(5);
  autocf.Forward(true, rng);
  const int64_t expected =
      static_cast<int64_t>(0.3 * static_cast<double>(f.graph->num_edges()));
  EXPECT_EQ(static_cast<int64_t>(autocf.masked_edges().size()), expected);
  // Inference clears the mask.
  autocf.Forward(false, rng);
  EXPECT_TRUE(autocf.masked_edges().empty());
}

TEST(AutoCfTest, SslLossNullWithoutMask) {
  Fixture& f = SharedFixture();
  AutoCf autocf(f.graph.get(), SmallOptions());
  core::Rng rng(6);
  tensor::Variable nodes = autocf.Forward(false, rng);
  EXPECT_TRUE(autocf.SslLoss(nodes, rng).IsNull());
}

TEST(MfTest, ForwardIsRawEmbeddingTable) {
  Fixture& f = SharedFixture();
  auto backbone = CreateBackbone("mf", f.graph.get(), SmallOptions());
  ASSERT_TRUE(backbone.ok());
  core::Rng rng(7);
  tensor::Variable nodes = (*backbone)->Forward(true, rng);
  EXPECT_TRUE(tensor::AllClose(nodes.value(),
                               (*backbone)->initial_embeddings().value()));
}

TEST(NgcfTest, HasPerLayerTransformWeights) {
  Fixture& f = SharedFixture();
  BackboneOptions options = SmallOptions();
  options.num_layers = 3;
  auto backbone = CreateBackbone("ngcf", f.graph.get(), options);
  ASSERT_TRUE(backbone.ok());
  // Embedding table + (W1, W2) per layer.
  EXPECT_EQ((*backbone)->Params().size(), 1u + 2u * 3u);
}

TEST(NgcfTest, NonlinearityChangesPropagation) {
  // NGCF output must differ from LightGCN's on the same seed (feature
  // transforms + bi-interaction are real).
  Fixture& f = SharedFixture();
  auto ngcf = CreateBackbone("ngcf", f.graph.get(), SmallOptions());
  auto lightgcn = CreateBackbone("lightgcn", f.graph.get(), SmallOptions());
  ASSERT_TRUE(ngcf.ok());
  ASSERT_TRUE(lightgcn.ok());
  core::Rng rng(8);
  EXPECT_FALSE(tensor::AllClose((*ngcf)->Forward(false, rng).value(),
                                (*lightgcn)->Forward(false, rng).value()));
}

TEST(LightGclTest, SvdViewDiffersFromMainView) {
  Fixture& f = SharedFixture();
  LightGcl lightgcl(f.graph.get(), SmallOptions(), /*svd_rank=*/3);
  core::Rng rng(9);
  tensor::Variable nodes = lightgcl.Forward(true, rng);
  tensor::Variable ssl = lightgcl.SslLoss(nodes, rng);
  ASSERT_FALSE(ssl.IsNull());
  // A rank-3 summary cannot equal the full graph: the contrastive loss is
  // strictly positive.
  EXPECT_GT(ssl.scalar(), 0.0f);
}

TEST(NclTest, SslCombinesStructureAndPrototypes) {
  Fixture& f = SharedFixture();
  BackboneOptions options = SmallOptions();
  options.num_intents = 4;
  Ncl ncl(f.graph.get(), options);
  core::Rng rng(10);
  tensor::Variable nodes = ncl.Forward(true, rng);
  tensor::Variable ssl = ncl.SslLoss(nodes, rng);
  ASSERT_FALSE(ssl.IsNull());
  EXPECT_TRUE(std::isfinite(ssl.scalar()));
  // Both components are non-negative, so the sum is too.
  EXPECT_GE(ssl.scalar(), 0.0f);
}

TEST(DccfTest, HasIntentParameters) {
  Fixture& f = SharedFixture();
  BackboneOptions options = SmallOptions();
  options.num_intents = 5;
  Dccf dccf(f.graph.get(), options);
  EXPECT_EQ(dccf.Params().size(), 2u);
  EXPECT_EQ(dccf.intents().rows(), 5);
  EXPECT_EQ(dccf.intents().cols(), options.embedding_dim);
}

}  // namespace
}  // namespace darec::cf
