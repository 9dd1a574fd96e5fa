// google-benchmark microbenchmarks of the library's building blocks:
// tensor ops, GCN forward/backward, DAG generation, window extraction,
// HEFT computation, and full simulator executions of the baselines.

#include <benchmark/benchmark.h>

#include "core/readys.hpp"

using namespace readys;

namespace {

void BM_TensorMatmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const auto a = tensor::Tensor::randn(n, n, rng);
  const auto b = tensor::Tensor::randn(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul_value(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_TensorMatmul)->Arg(16)->Arg(64)->Arg(128);

void BM_AutogradBackward(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  tensor::Var w(tensor::Tensor::randn(n, n, rng), true);
  tensor::Var x(tensor::Tensor::randn(n, n, rng));
  for (auto _ : state) {
    w.zero_grad();
    auto loss = tensor::mean_all(
        tensor::square(tensor::relu(tensor::matmul(x, w))));
    loss.backward();
    benchmark::DoNotOptimize(w.grad());
  }
}
BENCHMARK(BM_AutogradBackward)->Arg(16)->Arg(64);

void BM_GcnForward(benchmark::State& state) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  nn::GCNLayer layer(14, 64, rng);
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t i = 0; i + 1 < nodes; ++i) edges.emplace_back(i, i + 1);
  tensor::SparseAdj ahat;
  nn::normalized_adjacency_csr(nodes, edges, ahat);
  const tensor::Var h(tensor::Tensor::randn(nodes, 14, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(ahat, h));
  }
}
BENCHMARK(BM_GcnForward)->Arg(16)->Arg(45)->Arg(128);

void BM_DagGeneration(benchmark::State& state) {
  const int tiles = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag::cholesky_graph(tiles));
  }
}
BENCHMARK(BM_DagGeneration)->Arg(8)->Arg(16)->Arg(32);

void BM_StaticFeatures(benchmark::State& state) {
  const auto g = dag::cholesky_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag::StaticFeatures(g));
  }
}
BENCHMARK(BM_StaticFeatures)->Arg(8)->Arg(16);

void BM_WindowExtraction(benchmark::State& state) {
  const auto g = dag::cholesky_graph(12);
  const auto seeds = g.sources();
  const int w = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dag::extract_window(g, seeds, w));
  }
}
BENCHMARK(BM_WindowExtraction)->Arg(1)->Arg(2)->Arg(3);

void BM_HeftCompute(benchmark::State& state) {
  const auto g = dag::cholesky_graph(static_cast<int>(state.range(0)));
  const auto p = sim::Platform::hybrid(2, 2);
  const auto c = sim::CostModel::cholesky();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::compute_heft(g, p, c));
  }
}
BENCHMARK(BM_HeftCompute)->Arg(8)->Arg(12)->Arg(16);

void BM_SimulateMct(benchmark::State& state) {
  const auto g = dag::cholesky_graph(static_cast<int>(state.range(0)));
  const auto p = sim::Platform::hybrid(2, 2);
  const auto c = sim::CostModel::cholesky();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sched::MctScheduler sched;
    sim::Simulator sim(g, p, c, {0.3, ++seed});
    benchmark::DoNotOptimize(sim.run(sched).makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_tasks()));
}
BENCHMARK(BM_SimulateMct)->Arg(8)->Arg(12);

void BM_SimulateHeft(benchmark::State& state) {
  const auto g = dag::cholesky_graph(static_cast<int>(state.range(0)));
  const auto p = sim::Platform::hybrid(2, 2);
  const auto c = sim::CostModel::cholesky();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sched::HeftScheduler sched;
    sim::Simulator sim(g, p, c, {0.3, ++seed});
    benchmark::DoNotOptimize(sim.run(sched).makespan);
  }
}
BENCHMARK(BM_SimulateHeft)->Arg(8)->Arg(12);

void BM_PolicyForward(benchmark::State& state) {
  const auto g = dag::cholesky_graph(static_cast<int>(state.range(0)));
  const auto p = sim::Platform::hybrid(2, 2);
  const auto c = sim::CostModel::cholesky();
  rl::AgentConfig cfg;
  rl::PolicyNet net(rl::StateEncoder::node_feature_width(4),
                    rl::StateEncoder::kResourceFeatureWidth, cfg);
  sim::SimEngine engine(g, p, c, 0.0, 1);
  rl::IncrementalEncoder enc(g, c, cfg.window);
  const rl::Observation& obs = enc.encode(engine, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(obs));
  }
}
BENCHMARK(BM_PolicyForward)->Arg(6)->Arg(10);

void BM_EnvEpisodeRandomPolicy(benchmark::State& state) {
  const auto g = dag::cholesky_graph(static_cast<int>(state.range(0)));
  const auto p = sim::Platform::hybrid(2, 2);
  const auto c = sim::CostModel::cholesky();
  rl::SchedulingEnv env(g, p, c, {0.2, 1, 1});
  util::Rng rng(5);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    env.reset(++seed);
    bool done = env.done();
    while (!done) {
      done = env.step(rng.uniform_index(env.observation().num_actions()))
                 .done;
    }
    benchmark::DoNotOptimize(env.makespan());
  }
}
BENCHMARK(BM_EnvEpisodeRandomPolicy)->Arg(6)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
