// Inference fast-path suite (`ctest -L infer`): the f32 SIMD kernels
// against double references, runtime ISA dispatch, the CSR adjacency,
// the InferenceBackend contract (f64ref bit-exactness, f32simd argmax
// agreement >= 99.9% with a logit-MAE bound across apps), the
// readys(backend=...) registry spec, and RunConfig's inference_backend
// field.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cluster/register.hpp"
#include "core/run_config.hpp"
#include "dag/cholesky.hpp"
#include "dag/lu.hpp"
#include "dag/qr.hpp"
#include "nn/gcn.hpp"
#include "rl/env.hpp"
#include "rl/inference.hpp"
#include "rl/policy_net.hpp"
#include "rl/readys_scheduler.hpp"
#include "sched/scheduler.hpp"
#include "sched/spec.hpp"
#include "sim/simulator.hpp"
#include "tensor/arena.hpp"
#include "tensor/f32.hpp"
#include "util/rng.hpp"

namespace rd = readys::dag;
namespace rn = readys::nn;
namespace rr = readys::rl;
namespace rs = readys::sim;
namespace rt = readys::tensor;
namespace rx = readys::sched;
namespace f32 = readys::tensor::f32;

namespace {

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  readys::util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  return v;
}

/// Double-precision reference for matmul_bias over the same floats.
std::vector<double> matmul_ref(const std::vector<float>& a, std::size_t m,
                               std::size_t k, const std::vector<float>& b,
                               std::size_t n, const float* bias) {
  std::vector<double> c(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = bias != nullptr ? static_cast<double>(bias[j]) : 0.0;
      for (std::size_t l = 0; l < k; ++l) {
        acc += static_cast<double>(a[i * k + l]) *
               static_cast<double>(b[l * n + j]);
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

rr::PolicyNet make_net(int hidden, std::uint64_t seed,
                       int window = 2) {
  rr::AgentConfig cfg;
  cfg.hidden = hidden;
  cfg.seed = seed;
  cfg.window = window;
  return rr::PolicyNet(rr::StateEncoder::node_feature_width(4),
                       rr::StateEncoder::kResourceFeatureWidth, cfg);
}

/// Harvests observations from a uniformly random rollout.
std::vector<rr::Observation> harvest(const rd::TaskGraph& graph,
                                     std::uint64_t seed, int window = 2) {
  const auto platform = rs::Platform::hybrid(2, 2);
  const auto costs = rs::CostModel::cholesky();
  rr::SchedulingEnv env(graph, platform, costs, {0.3, window, seed});
  readys::util::Rng rng(seed * 7919 + 13);
  env.reset(seed);
  std::vector<rr::Observation> out;
  bool done = env.done();
  while (!done) {
    const rr::Observation& obs = env.observation();
    out.push_back(obs);
    done = env.step(rng.uniform_index(obs.num_actions())).done;
  }
  return out;
}

}  // namespace

// --- f32 kernels ----------------------------------------------------------

TEST(F32Kernels, MatmulBiasMatchesDoubleReference) {
  const std::size_t m = 13, k = 17, n = 19;
  const auto a = random_floats(m * k, 1);
  const auto b = random_floats(k * n, 2);
  const auto bias = random_floats(n, 3);
  std::vector<float> c(m * n);
  f32::matmul_bias(a.data(), m, k, b.data(), n, bias.data(), c.data());
  const auto ref = matmul_ref(a, m, k, b, n, bias.data());
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(static_cast<double>(c[i]), ref[i], 1e-4) << "at " << i;
  }
}

TEST(F32Kernels, MatmulNoBiasAndZeroRowsSkipConsistently) {
  const std::size_t m = 9, k = 24, n = 16;
  auto a = random_floats(m * k, 4);
  for (std::size_t i = 0; i < m * k; i += 3) a[i] = 0.0f;  // sparsify
  const auto b = random_floats(k * n, 5);
  std::vector<float> c(m * n);
  f32::matmul_bias(a.data(), m, k, b.data(), n, nullptr, c.data());
  const auto ref = matmul_ref(a, m, k, b, n, nullptr);
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(static_cast<double>(c[i]), ref[i], 1e-4);
  }
}

TEST(F32Kernels, SpmmMatchesDenseMatmulBitForBit) {
  // A 6-node path graph's normalized adjacency, densified by hand: the
  // CSR product must reproduce the zero-skipping dense product exactly
  // (same terms, same ascending order).
  const std::size_t n = 6, h = 11;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  const rt::Tensor dense = rn::normalized_adjacency(n, edges);
  rt::SparseAdj csr;
  rn::normalized_adjacency_csr(n, edges, csr);

  std::vector<float> dense_f(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    dense_f[i] = static_cast<float>(dense[i]);
  }
  const auto x = random_floats(n * h, 6);
  const auto bias = random_floats(h, 7);
  std::vector<float> c_dense(n * h), c_csr(n * h);
  f32::matmul_bias(dense_f.data(), n, n, x.data(), h, bias.data(),
                   c_dense.data());
  f32::spmm_bias(csr.row_ptr.data(), csr.col.data(), csr.val.data(), n,
                 x.data(), h, bias.data(), c_csr.data());
  for (std::size_t i = 0; i < n * h; ++i) {
    EXPECT_EQ(c_csr[i], c_dense[i]) << "at " << i;
  }
}

TEST(F32Kernels, PoolingAndDotKnownAnswers) {
  const float x[6] = {1.0f, -2.0f, 3.0f, 5.0f, 4.0f, -6.0f};  // 2 x 3
  float mean[3], mx[3];
  f32::mean_cols(x, 2, 3, mean);
  f32::max_cols(x, 2, 3, mx);
  EXPECT_FLOAT_EQ(mean[0], 3.0f);
  EXPECT_FLOAT_EQ(mean[1], 1.0f);
  EXPECT_FLOAT_EQ(mean[2], -1.5f);
  EXPECT_FLOAT_EQ(mx[0], 5.0f);
  EXPECT_FLOAT_EQ(mx[1], 4.0f);
  EXPECT_FLOAT_EQ(mx[2], 3.0f);

  const float a[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const float b[4] = {4.0f, 3.0f, 2.0f, 1.0f};
  EXPECT_FLOAT_EQ(f32::dot(a, b, 4), 20.0f);

  float r[4] = {-1.0f, 0.0f, 2.0f, -0.5f};
  f32::relu_inplace(r, 4);
  EXPECT_FLOAT_EQ(r[0], 0.0f);
  EXPECT_FLOAT_EQ(r[2], 2.0f);
  EXPECT_FLOAT_EQ(r[3], 0.0f);
}

// --- ISA dispatch ---------------------------------------------------------

TEST(F32Dispatch, IsaQueriesAreCoherent) {
  if (!f32::avx2_compiled()) {
    EXPECT_FALSE(f32::avx2_available());
    EXPECT_EQ(f32::active_isa(), f32::Isa::kScalar);
  }
  if (!f32::avx2_available()) {
    EXPECT_EQ(f32::active_isa(), f32::Isa::kScalar);
  }
  EXPECT_STREQ(f32::isa_name(f32::Isa::kScalar), "scalar");
  EXPECT_STREQ(f32::isa_name(f32::Isa::kAvx2), "avx2");
}

TEST(F32Dispatch, ForceScalarTakesEffectAndAgreesWithSimd) {
  // Whatever the host supports, both paths must run without faulting and
  // agree to FMA-contraction tolerance. On a non-AVX2 host this
  // degenerates to scalar twice — still a valid dispatch check.
  const std::size_t m = 7, k = 33, n = 12;
  const auto a = random_floats(m * k, 8);
  const auto b = random_floats(k * n, 9);
  std::vector<float> c_auto(m * n), c_scalar(m * n);

  f32::matmul_bias(a.data(), m, k, b.data(), n, nullptr, c_auto.data());
  f32::force_scalar(true);
  EXPECT_EQ(f32::active_isa(), f32::Isa::kScalar);
  f32::matmul_bias(a.data(), m, k, b.data(), n, nullptr, c_scalar.data());
  f32::force_scalar(false);
  if (f32::avx2_available()) {
    EXPECT_EQ(f32::active_isa(), f32::Isa::kAvx2);
  }
  for (std::size_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c_auto[i], c_scalar[i], 1e-4f);
  }
}

// --- CSR adjacency --------------------------------------------------------

TEST(SparseAdj, CsrMatchesDenseBitForBitWithAscendingColumns) {
  const auto graph = rd::cholesky_graph(4);
  const auto obs_list = harvest(graph, 3);
  ASSERT_FALSE(obs_list.empty());
  for (const rr::Observation& obs : obs_list) {
    const std::size_t n = obs.window.size();
    const rt::Tensor dense = rn::normalized_adjacency(n, obs.window.edges);
    ASSERT_EQ(obs.ahat_csr.rows(), n);
    std::size_t nnz = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t prev_col = 0;
      bool first = true;
      for (std::size_t p = obs.ahat_csr.row_ptr[i];
           p < obs.ahat_csr.row_ptr[i + 1]; ++p) {
        const std::size_t j = obs.ahat_csr.col[p];
        if (!first) EXPECT_GT(j, prev_col) << "columns must ascend";
        first = false;
        prev_col = j;
        // Stored value is the dense entry, bit for bit.
        EXPECT_EQ(obs.ahat_csr.val[p], dense.at(i, j));
        EXPECT_NE(dense.at(i, j), 0.0);
        ++nnz;
      }
    }
    // Every dense nonzero is present: counts must match.
    std::size_t dense_nnz = 0;
    for (std::size_t i = 0; i < n * n; ++i) {
      if (dense[i] != 0.0) ++dense_nnz;
    }
    EXPECT_EQ(nnz, dense_nnz);
  }
}

// --- choose_action ----------------------------------------------------------

TEST(ChooseAction, GreedyPicksArgmax) {
  const std::vector<double> p{0.1, 0.7, 0.2};
  EXPECT_EQ(rr::choose_action(p, nullptr), 1u);
}

TEST(ChooseAction, GreedyTieGoesToLowestIndex) {
  EXPECT_EQ(rr::choose_action(std::vector<double>{0.1, 0.45, 0.45}, nullptr),
            1u);
  EXPECT_EQ(rr::choose_action(std::vector<double>{0.5, 0.5}, nullptr), 0u);
}

TEST(ChooseAction, SamplingMatchesDistribution) {
  const std::vector<double> p{0.25, 0.75};
  readys::util::Rng rng(2);
  int count1 = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (rr::choose_action(p, &rng) == 1u) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.03);
}

TEST(ChooseAction, NonFiniteEntryThrowsNamingIndexBeforeAnyDraw) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const std::vector<double> p{0.5, 0.0, bad};
    readys::util::Rng rng(3);
    const readys::util::Rng::State before = rng.state();
    try {
      rr::choose_action(p, &rng);
      FAIL() << "expected runtime_error for " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("at action 2"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(rng.state(), before);  // nothing drawn
    EXPECT_THROW(rr::choose_action(p, nullptr), std::runtime_error);
  }
}

// --- backend construction and parsing -------------------------------------

TEST(InferenceBackend, ParseAndNameRoundTrip) {
  EXPECT_EQ(rr::parse_inference_backend("f64ref"),
            rr::InferenceBackendKind::kF64Ref);
  EXPECT_EQ(rr::parse_inference_backend("f32simd"),
            rr::InferenceBackendKind::kF32Simd);
  EXPECT_STREQ(rr::inference_backend_name(rr::InferenceBackendKind::kF64Ref),
               "f64ref");
  EXPECT_STREQ(rr::inference_backend_name(rr::InferenceBackendKind::kF32Simd),
               "f32simd");
  try {
    rr::parse_inference_backend("f16");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("f64ref, f32simd"),
              std::string::npos);
  }
}

TEST(InferenceBackend, SnapshotDescribesTheArchitecture) {
  const auto net = make_net(16, 11);
  const auto w = rr::InferenceWeights::snapshot(net);
  EXPECT_EQ(w.hidden, 16);
  EXPECT_EQ(w.node_features, rr::StateEncoder::node_feature_width(4));
  EXPECT_EQ(w.resource_features, rr::StateEncoder::kResourceFeatureWidth);
  ASSERT_EQ(w.gcn_w.size(), w.gcn_in.size());
  ASSERT_FALSE(w.gcn_w.empty());
  EXPECT_EQ(w.gcn_in.front(), static_cast<std::size_t>(w.node_features));
  for (std::size_t l = 0; l < w.gcn_w.size(); ++l) {
    EXPECT_EQ(w.gcn_w[l].size(), w.gcn_in[l] * 16u);
    EXPECT_EQ(w.gcn_b[l].size(), 16u);
  }
  EXPECT_EQ(w.actor_w.size(), 16u);
  EXPECT_EQ(w.idle_w.size(), 32u);
  // Weight snapshots freeze at construction: the f32 backend keeps its
  // own copy of the parameters, independent of the source net.
  const rr::F32SimdBackend backend{rr::InferenceWeights::snapshot(net)};
  EXPECT_EQ(backend.weights().hidden, 16);
}

TEST(InferenceBackend, F64RefIsBitExactWithPolicyNetForward) {
  const auto net = make_net(24, 5);
  const auto backend = net.make_inference(rr::InferenceBackendKind::kF64Ref);
  EXPECT_STREQ(backend->name(), "f64ref");
  const auto obs_list = harvest(rd::cholesky_graph(4), 2);
  rr::InferenceOutput out;
  for (const rr::Observation& obs : obs_list) {
    backend->forward(obs, out);
    const auto ref = net.forward(obs);
    const rt::Tensor& p = ref.probs.value();
    const rt::Tensor& lp = ref.log_probs.value();
    ASSERT_EQ(out.probs.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(out.probs[i], p[i]);
      EXPECT_EQ(out.log_probs[i], lp[i]);
    }
    EXPECT_EQ(out.value, ref.value.value().item());
  }
}

TEST(InferenceBackend, F32SimdAgreesWithReferenceWithinTolerance) {
  const auto net = make_net(32, 7);
  const auto f64 = net.make_inference(rr::InferenceBackendKind::kF64Ref);
  const auto f32b = net.make_inference(rr::InferenceBackendKind::kF32Simd);
  EXPECT_STREQ(f32b->name(), "f32simd");
  const auto obs_list = harvest(rd::cholesky_graph(5), 4);
  rr::InferenceOutput a, b;
  for (const rr::Observation& obs : obs_list) {
    f64->forward(obs, a);
    f32b->forward(obs, b);
    ASSERT_EQ(a.probs.size(), b.probs.size());
    double psum = 0.0;
    for (std::size_t i = 0; i < a.probs.size(); ++i) {
      EXPECT_NEAR(a.probs[i], b.probs[i], 1e-4);
      EXPECT_NEAR(a.log_probs[i], b.log_probs[i], 1e-3);
      psum += b.probs[i];
    }
    EXPECT_NEAR(psum, 1.0, 1e-9);  // softmax normalizes in double
    EXPECT_NEAR(a.value, b.value, 1e-3);
  }
}

TEST(InferenceBackend, ArgmaxAgreementAndLogitMaePinnedAcrossApps) {
  // The acceptance pin: >= 99.9% same-argmax decisions and a bounded
  // mean absolute log-prob gap, across Cholesky / LU / QR windows and
  // several weight seeds.
  std::size_t decisions = 0, agreed = 0;
  double abs_gap = 0.0;
  std::size_t gap_terms = 0;
  const rd::TaskGraph graphs[] = {rd::cholesky_graph(5), rd::lu_graph(5),
                                  rd::qr_graph(4)};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto net = make_net(32, seed * 101);
    const auto f64 = net.make_inference(rr::InferenceBackendKind::kF64Ref);
    const auto f32b = net.make_inference(rr::InferenceBackendKind::kF32Simd);
    rr::InferenceOutput a, b;
    for (const auto& graph : graphs) {
      for (const rr::Observation& obs : harvest(graph, seed)) {
        f64->forward(obs, a);
        f32b->forward(obs, b);
        std::size_t ia = 0, ib = 0;
        for (std::size_t i = 1; i < a.probs.size(); ++i) {
          if (a.probs[i] > a.probs[ia]) ia = i;
          if (b.probs[i] > b.probs[ib]) ib = i;
        }
        ++decisions;
        if (ia == ib) ++agreed;
        for (std::size_t i = 0; i < a.log_probs.size(); ++i) {
          abs_gap += std::abs(a.log_probs[i] - b.log_probs[i]);
          ++gap_terms;
        }
      }
    }
  }
  ASSERT_GT(decisions, 500u) << "harvest too small to pin 99.9%";
  const double agreement =
      static_cast<double>(agreed) / static_cast<double>(decisions);
  EXPECT_GE(agreement, 0.999) << agreed << "/" << decisions;
  EXPECT_LT(abs_gap / static_cast<double>(gap_terms), 1e-4);
}

TEST(InferenceBackend, BatchedMatchesSingleBitForBit) {
  const auto net = make_net(16, 9);
  const auto obs_list = harvest(rd::cholesky_graph(4), 6);
  ASSERT_GE(obs_list.size(), 4u);
  std::vector<const rr::Observation*> batch;
  for (std::size_t i = 0; i < 4; ++i) batch.push_back(&obs_list[i]);
  for (const auto kind : {rr::InferenceBackendKind::kF64Ref,
                          rr::InferenceBackendKind::kF32Simd}) {
    const auto backend = net.make_inference(kind);
    std::vector<rr::InferenceOutput> outs;
    backend->forward_batched(batch, outs);
    ASSERT_EQ(outs.size(), batch.size());
    rr::InferenceOutput single;
    for (std::size_t g = 0; g < batch.size(); ++g) {
      backend->forward(*batch[g], single);
      ASSERT_EQ(outs[g].probs.size(), single.probs.size());
      for (std::size_t i = 0; i < single.probs.size(); ++i) {
        EXPECT_EQ(outs[g].probs[i], single.probs[i]);
        EXPECT_EQ(outs[g].log_probs[i], single.log_probs[i]);
      }
      EXPECT_EQ(outs[g].value, single.value);
    }
  }
}

TEST(InferenceBackend, RejectsDegenerateObservations) {
  const auto net = make_net(16, 3);
  rr::InferenceOutput out;
  for (const auto kind : {rr::InferenceBackendKind::kF64Ref,
                          rr::InferenceBackendKind::kF32Simd}) {
    const auto backend = net.make_inference(kind);
    rr::Observation empty;
    EXPECT_THROW(backend->forward(empty, out), std::invalid_argument);
    std::vector<const rr::Observation*> none;
    std::vector<rr::InferenceOutput> outs;
    EXPECT_THROW(backend->forward_batched(none, outs), std::invalid_argument);
  }
  // Wrong feature width: an observation from a different encoder config.
  const auto obs_list = harvest(rd::cholesky_graph(4), 1);
  rr::Observation bad = obs_list.front();
  bad.features = rt::Tensor(bad.window.size(), 3);
  const auto f32b = net.make_inference(rr::InferenceBackendKind::kF32Simd);
  EXPECT_THROW(f32b->forward(bad, out), std::invalid_argument);
  // Â is stored only as CSR: every backend rejects an observation
  // without one, or with one sized for another window.
  rr::Observation no_csr = obs_list.front();
  no_csr.ahat_csr = {};
  rr::Observation wrong_csr = obs_list.front();
  rn::normalized_adjacency_csr(wrong_csr.window.size() + 1, {},
                               wrong_csr.ahat_csr);
  for (const auto kind : {rr::InferenceBackendKind::kF64Ref,
                          rr::InferenceBackendKind::kF32Simd}) {
    const auto backend = net.make_inference(kind);
    EXPECT_THROW(backend->forward(no_csr, out), std::invalid_argument)
        << backend->name();
    EXPECT_THROW(backend->forward(wrong_csr, out), std::invalid_argument)
        << backend->name();
    std::vector<rr::InferenceOutput> outs;
    EXPECT_THROW(backend->forward_batched({&obs_list.front(), &no_csr}, outs),
                 std::invalid_argument)
        << backend->name();
  }
}

// --- arena ----------------------------------------------------------------

TEST(Arena, ReusesCapacityAcrossResets) {
  rt::Arena arena;
  float* a = arena.alloc_f32(1000);
  ASSERT_NE(a, nullptr);
  a[999] = 1.0f;
  arena.reset();
  float* b = arena.alloc_f32(1000);
  EXPECT_EQ(a, b) << "reset must keep capacity, not free it";
  // Alignment suitable for 8-wide AVX2 loads.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 32u, 0u);
}

// --- registry spec --------------------------------------------------------

TEST(BaseSpec, GrammarMatchesAndRejects) {
  auto p = rx::parse_base_spec("readys", "readys");
  EXPECT_TRUE(p.matched);
  EXPECT_TRUE(p.error.empty());
  EXPECT_TRUE(p.spec.items.empty());
  EXPECT_TRUE(p.spec.inner.empty());

  // The grammar is key-agnostic: unknown keys are the registry's call.
  p = rx::parse_base_spec("readys(backend=f32simd,other=0)", "readys");
  ASSERT_TRUE(p.matched);
  EXPECT_TRUE(p.error.empty());
  ASSERT_EQ(p.spec.items.size(), 2u);
  EXPECT_EQ(p.spec.items[0].first, "backend");
  EXPECT_EQ(p.spec.items[0].second, "f32simd");
  EXPECT_EQ(p.spec.items[1].first, "other");

  EXPECT_FALSE(rx::parse_base_spec("readysx", "readys").matched);
  EXPECT_FALSE(rx::parse_base_spec("heft", "readys").matched);
  EXPECT_FALSE(rx::parse_base_spec("read", "readys").matched);

  p = rx::parse_base_spec("readys(backend=f32simd", "readys");
  EXPECT_TRUE(p.matched);
  EXPECT_FALSE(p.error.empty()) << "missing ')' must be a syntax error";

  p = rx::parse_base_spec("readys(a=1)junk", "readys");
  EXPECT_TRUE(p.matched);
  EXPECT_FALSE(p.error.empty()) << "trailing characters must be an error";
}

TEST(ReadysSpec, RegistryResolvesBackendsAndComposesWithPrefixes) {
  const auto net = make_net(16, 21);
  rr::register_readys_scheduler(net, /*window=*/1);
  auto& reg = rx::registry();
  EXPECT_TRUE(reg.contains("readys"));
  EXPECT_TRUE(reg.contains("readys(backend=f32simd)"));
  EXPECT_TRUE(reg.contains("readys(backend=f64ref)"));
  EXPECT_FALSE(reg.contains("readys(backend=f16)"));
  EXPECT_FALSE(reg.contains("readys(bogus=1)"));
  EXPECT_TRUE(reg.contains("guarded:readys"));
  readys::cluster::register_cluster_scheduler();
  EXPECT_TRUE(reg.contains("shard(shards=2):readys(backend=f32simd)"));

  const auto names = reg.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "readys"), names.end());

  // An unknown key, `incremental` included (the encoder is not
  // selectable), is rejected naming the known set.
  for (const char* spec : {"readys(bogus=1)", "readys(incremental=1)"}) {
    try {
      (void)reg.make(spec);
      FAIL() << "expected invalid_argument for " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("(known: backend)"),
                std::string::npos)
          << e.what();
    }
  }

  // Spec-configured construction runs end to end.
  const auto graph = rd::cholesky_graph(4);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(2, 2);
  auto ref = reg.make("readys(backend=f64ref)", {.seed = 3});
  EXPECT_GT(rs::simulate_makespan(graph, platform, costs, *ref, 0.2, 11), 0.0);

  auto fast = reg.make("readys(backend=f32simd)", {.seed = 3});
  const double mk_fast =
      rs::simulate_makespan(graph, platform, costs, *fast, 0.2, 11);
  EXPECT_TRUE(std::isfinite(mk_fast));
  EXPECT_GT(mk_fast, 0.0);
}

TEST(ReadysSpec, DefaultsThreadThroughPlainName) {
  const auto net = make_net(16, 22);
  rr::ReadysOptions defaults;
  defaults.backend = rr::InferenceBackendKind::kF32Simd;
  rr::register_readys_scheduler(net, /*window=*/1, defaults);
  // Plain "readys" now runs the f32 backend; it must still schedule.
  auto s = rx::make_scheduler("readys", {.seed = 1});
  const auto graph = rd::cholesky_graph(3);
  const double mk = rs::simulate_makespan(graph, rs::Platform::hybrid(2, 2),
                                          rs::CostModel::cholesky(), *s, 0.0,
                                          1);
  EXPECT_GT(mk, 0.0);
  // Restore the f64ref default for any test running after this one.
  rr::register_readys_scheduler(net, /*window=*/1);
}

// --- RunConfig ------------------------------------------------------------

TEST(RunConfigInference, RoundTripValidateAndEnvOverlay) {
  readys::core::RunConfig cfg;
  EXPECT_EQ(cfg.inference_backend, "f64ref");
  cfg.inference_backend = "f32simd";
  cfg.validate();
  const auto back = readys::core::RunConfig::from_json(cfg.to_json());
  EXPECT_EQ(back.inference_backend, "f32simd");

  readys::core::RunConfig bad;
  bad.inference_backend = "f128";
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  ::setenv("READYS_INFERENCE_BACKEND", "f32simd", 1);
  const auto env_cfg = readys::core::RunConfig::from_env();
  ::unsetenv("READYS_INFERENCE_BACKEND");
  EXPECT_EQ(env_cfg.inference_backend, "f32simd");
}

// --- Snapshot reuse -------------------------------------------------------

// ReadysScheduler::reset() runs once per episode; a kF32Simd scheduler
// must NOT refreeze the weight snapshot every episode. The frozen
// InferenceWeights is rebuilt only when the net's weight version moves —
// optimizer step, deserialize_parameters, or copy_parameters_from.
TEST(InferenceBackend, SnapshotReusedAcrossResetsUntilWeightsChange) {
  auto net = make_net(16, 31);
  rr::ReadysOptions opts;
  opts.backend = rr::InferenceBackendKind::kF32Simd;
  opts.seed = 7;
  rr::ReadysScheduler sched(net, /*window=*/2, opts);
  const auto graph = rd::cholesky_graph(4);
  const auto platform = rs::Platform::hybrid(2, 2);
  const auto costs = rs::CostModel::cholesky();

  const std::uint64_t before = rr::InferenceWeights::snapshot_builds();
  (void)rs::simulate_makespan(graph, platform, costs, sched, 0.0, 1);
  EXPECT_EQ(rr::InferenceWeights::snapshot_builds(), before + 1);

  // Unchanged weights: later episodes reuse the frozen snapshot.
  (void)rs::simulate_makespan(graph, platform, costs, sched, 0.0, 1);
  (void)rs::simulate_makespan(graph, platform, costs, sched, 0.0, 1);
  EXPECT_EQ(rr::InferenceWeights::snapshot_builds(), before + 1);

  // A weight-version bump (what every mutation path performs) makes the
  // next reset refreeze exactly once.
  net.bump_weight_version();
  (void)rs::simulate_makespan(graph, platform, costs, sched, 0.0, 1);
  (void)rs::simulate_makespan(graph, platform, costs, sched, 0.0, 1);
  EXPECT_EQ(rr::InferenceWeights::snapshot_builds(), before + 2);

  // copy_parameters_from is one of those mutation paths.
  const auto donor = make_net(16, 32);
  net.copy_parameters_from(donor);
  (void)rs::simulate_makespan(graph, platform, costs, sched, 0.0, 1);
  EXPECT_EQ(rr::InferenceWeights::snapshot_builds(), before + 3);
}
