// Hot weight reload suite: PolicyStore validation gate (no-op detection,
// NaN / truncated / legacy-v1 candidate rejection with rollback to
// last-good), DecisionService reload edges (rejected while draining,
// bit-identical decisions after a rejected reload, per-decision weight
// version recording), and the one-snapshot-per-version sharing pin that
// closes the inference-backend follow-up.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/readys.hpp"
#include "nn/serialize.hpp"
#include "rl/checkpoint.hpp"

namespace rc = readys::core;
namespace rr = readys::rl;
namespace rv = readys::serve;

namespace {

rr::AgentConfig small_agent(std::uint64_t seed = 3) {
  rr::AgentConfig cfg;
  cfg.hidden = 8;
  cfg.gcn_layers = 1;
  cfg.window = 1;
  cfg.seed = seed;
  return cfg;
}

rr::PolicyNet small_net(const rr::AgentConfig& cfg) {
  return rr::PolicyNet(rr::StateEncoder::node_feature_width(4),
                       rr::StateEncoder::kResourceFeatureWidth, cfg);
}

rv::PolicyStoreConfig fast_probe() {
  rv::PolicyStoreConfig cfg;
  cfg.probe_tiles = 3;
  cfg.probe_cpus = 2;
  cfg.probe_gpus = 2;
  // The 3-tile probe keeps the gate fast, but its golden MCT is so
  // small that the production 10x bound can trip on a random-init net.
  // Rejection paths under test here (NaN, architecture, parse) don't
  // ride the makespan bound, so widen it for valid-weight publishes.
  cfg.max_makespan_factor = 30.0;
  return cfg;
}

rv::SessionSpec spec_for(rc::App app, int tiles, std::uint64_t seed) {
  rv::SessionSpec s;
  s.app = app;
  s.tiles = tiles;
  s.seed = seed;
  s.deadline_us = -1.0;
  return s;
}

void pump_dry(rv::DecisionService& svc) {
  for (int guard = 0; guard < 100000; ++guard) {
    if (svc.pump() == 0 && svc.queue_depth() == 0) return;
  }
  FAIL() << "service did not drain in 100k rounds";
}

/// Writes `blob` to a fresh temp file and returns its path.
std::string write_temp(const std::string& name, const std::string& blob) {
  const std::string path =
      ::testing::TempDir() + "readys_reload_" + name + ".txt";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << blob;
  return path;
}

std::string checkpoint_blob(const rr::PolicyNet& net) {
  rr::CheckpointData data;
  data.trainer = "a2c";
  return rr::serialize_checkpoint(net, data);
}

}  // namespace

TEST(PolicyStore, PublishesConstructionWeightsAsVersionOne) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::PolicyStore store(net, agent, fast_probe());
  EXPECT_EQ(store.active_version(), 1u);
  const auto snap = store.current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 1u);
  ASSERT_NE(snap->net, nullptr);
  ASSERT_NE(snap->f32, nullptr);
}

TEST(PolicyStore, IdenticalWeightsReloadIsNoOp) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::PolicyStore store(net, agent, fast_probe());
  const rv::ReloadResult r = store.reload_from_net(net);
  EXPECT_EQ(r.status, rv::ReloadStatus::kNoOp);
  EXPECT_EQ(r.version, 1u);
  EXPECT_NE(r.reason.find("identical"), std::string::npos);
  EXPECT_EQ(store.active_version(), 1u);
  EXPECT_EQ(store.counters().noops, 1u);
  EXPECT_EQ(store.counters().published, 0u);
}

// No-op detection compares every weight bit for bit: a candidate one
// ulp away in a single weight is new weights.
TEST(PolicyStore, OneUlpApartWeightsPublish) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::PolicyStore store(net, agent, fast_probe());
  auto nudged = small_net(agent);
  nudged.copy_parameters_from(net);
  auto first = nudged.named_parameters().front().second;
  double& w = first.mutable_value().data()[0];
  w = std::nextafter(w, std::numeric_limits<double>::infinity());
  const rv::ReloadResult r = store.reload_from_net(nudged);
  EXPECT_EQ(r.status, rv::ReloadStatus::kPublished);
  EXPECT_EQ(r.version, 2u);
  EXPECT_EQ(store.counters().noops, 0u);
  EXPECT_EQ(store.counters().published, 1u);
}

TEST(PolicyStore, ForceRepublishesIdenticalWeightsAsNewVersion) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::PolicyStore store(net, agent, fast_probe());
  const rv::ReloadResult r = store.reload_from_net(net, /*force=*/true);
  EXPECT_EQ(r.status, rv::ReloadStatus::kPublished);
  EXPECT_EQ(r.version, 2u);
  EXPECT_EQ(store.active_version(), 2u);
}

TEST(PolicyStore, DifferentValidWeightsPublish) {
  const auto agent = small_agent(3);
  const auto net = small_net(agent);
  rv::PolicyStore store(net, agent, fast_probe());
  const auto other = small_net(small_agent(99));  // same arch, new init
  const rv::ReloadResult r = store.reload_from_net(other);
  EXPECT_EQ(r.status, rv::ReloadStatus::kPublished);
  EXPECT_EQ(r.version, 2u);
  EXPECT_EQ(store.counters().published, 1u);
}

TEST(PolicyStore, NanCandidateIsRejectedAndLastGoodStaysActive) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::PolicyStore store(net, agent, fast_probe());
  const auto before = store.current();

  auto poisoned = small_net(agent);
  poisoned.parameters()[0].mutable_value().data()[0] =
      std::numeric_limits<double>::quiet_NaN();
  const rv::ReloadResult r = store.reload_from_net(poisoned);
  EXPECT_EQ(r.status, rv::ReloadStatus::kRejected);
  EXPECT_EQ(r.version, 1u);
  EXPECT_NE(r.reason.find("non-finite"), std::string::npos) << r.reason;
  EXPECT_EQ(store.counters().rejected, 1u);
  // Rollback semantics: the active snapshot is the same object.
  EXPECT_EQ(store.current(), before);
  EXPECT_EQ(store.last_reject_reason(), r.reason);
}

TEST(PolicyStore, ArchitectureMismatchIsRejected) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::PolicyStore store(net, agent, fast_probe());
  auto bigger = small_agent();
  bigger.hidden = 16;
  const auto wrong = small_net(bigger);
  const rv::ReloadResult r = store.reload_from_net(wrong);
  EXPECT_EQ(r.status, rv::ReloadStatus::kRejected);
  EXPECT_NE(r.reason.find("architecture mismatch"), std::string::npos)
      << r.reason;
  EXPECT_EQ(store.active_version(), 1u);
}

TEST(PolicyStore, ReloadFromCheckpointFilePublishes) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::PolicyStore store(net, agent, fast_probe());
  const auto other = small_net(small_agent(1234));
  const std::string path = write_temp("good", checkpoint_blob(other));
  const rv::ReloadResult r = store.reload_from_file(path);
  EXPECT_EQ(r.status, rv::ReloadStatus::kPublished);
  EXPECT_EQ(r.version, 2u);
  std::remove(path.c_str());
}

TEST(PolicyStore, TruncatedCheckpointRejectsWithRollback) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::PolicyStore store(net, agent, fast_probe());
  const std::string blob = checkpoint_blob(small_net(small_agent(1234)));
  const std::string path =
      write_temp("truncated", blob.substr(0, blob.size() / 2));
  const rv::ReloadResult r = store.reload_from_file(path);
  EXPECT_EQ(r.status, rv::ReloadStatus::kRejected);
  EXPECT_NE(r.reason.find("failed to parse"), std::string::npos) << r.reason;
  EXPECT_EQ(store.active_version(), 1u);
  std::remove(path.c_str());
}

TEST(PolicyStore, LegacyV1CheckpointRejectsWithTypedReason) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::PolicyStore store(net, agent, fast_probe());
  const std::string path = write_temp(
      "v1", "readys-checkpoint v1\nepisode 5\nweights 0\n");
  const rv::ReloadResult r = store.reload_from_file(path);
  EXPECT_EQ(r.status, rv::ReloadStatus::kRejected);
  EXPECT_NE(r.reason.find("legacy v1"), std::string::npos) << r.reason;
  EXPECT_NE(r.reason.find("readys-ckpt/2"), std::string::npos) << r.reason;
  EXPECT_EQ(store.active_version(), 1u);
  std::remove(path.c_str());
}

TEST(PolicyStore, MissingFileRejects) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::PolicyStore store(net, agent, fast_probe());
  const rv::ReloadResult r =
      store.reload_from_file("/nonexistent/readys.ckpt");
  EXPECT_EQ(r.status, rv::ReloadStatus::kRejected);
  EXPECT_NE(r.reason.find("cannot read"), std::string::npos) << r.reason;
}

TEST(ServeReload, RejectedWhileDraining) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 0;
  rv::DecisionService svc(net, agent, sc);
  svc.drain();
  const rv::ReloadResult r = svc.reload(net, /*force=*/true);
  EXPECT_EQ(r.status, rv::ReloadStatus::kRejected);
  EXPECT_NE(r.reason.find("draining"), std::string::npos) << r.reason;
  EXPECT_EQ(svc.counters().reload_rejects, 1u);
  EXPECT_EQ(svc.active_weight_version(), 1u);
}

TEST(ServeReload, RejectedReloadKeepsDecisionsBitIdentical) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  auto poisoned = small_net(agent);
  poisoned.parameters()[0].mutable_value().data()[0] =
      std::numeric_limits<double>::quiet_NaN();

  // Sampling mode so any probability drift would change the trace.
  auto run = [&](bool attempt_reload) {
    rv::ServiceConfig sc;
    sc.workers = 0;
    sc.record_actions = true;
    sc.greedy = false;
    rv::DecisionService svc(net, agent, sc);
    for (std::uint64_t s = 1; s <= 3; ++s) {
      svc.submit(spec_for(rc::App::kCholesky, 3, s));
    }
    for (int round = 0; round < 4; ++round) svc.pump();
    if (attempt_reload) {
      const rv::ReloadResult r = svc.reload(poisoned);
      EXPECT_EQ(r.status, rv::ReloadStatus::kRejected);
    }
    pump_dry(svc);
    svc.shutdown();
    return svc.results();
  };

  const auto baseline = run(false);
  const auto with_reject = run(true);
  ASSERT_EQ(baseline.size(), with_reject.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].actions, with_reject[i].actions)
        << "trace diverged for session " << i;
    // Every decision on both sides ran against version 1.
    for (const std::uint64_t v : with_reject[i].weight_versions) {
      EXPECT_EQ(v, 1u);
    }
  }
}

TEST(ServeReload, PublishedReloadShowsUpInWeightVersions) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 0;
  sc.record_actions = true;
  rv::DecisionService svc(net, agent, sc);
  svc.submit(spec_for(rc::App::kCholesky, 4, 7));
  for (int round = 0; round < 5; ++round) svc.pump();
  const rv::ReloadResult r = svc.reload(net, /*force=*/true);
  ASSERT_EQ(r.status, rv::ReloadStatus::kPublished);
  EXPECT_EQ(r.version, 2u);
  EXPECT_EQ(svc.counters().reloads, 1u);
  pump_dry(svc);
  svc.shutdown();

  const auto results = svc.results();
  ASSERT_EQ(results.size(), 1u);
  const auto& versions = results[0].weight_versions;
  ASSERT_EQ(versions.size(), results[0].actions.size());
  // Monotone, starts at 1, ends at 2: the swap happened exactly once at
  // a round boundary and every decision names the version it ran on.
  EXPECT_EQ(versions.front(), 1u);
  EXPECT_EQ(versions.back(), 2u);
  for (std::size_t i = 1; i < versions.size(); ++i) {
    EXPECT_LE(versions[i - 1], versions[i]);
  }
}

TEST(ServeReload, OneSnapshotBuildPerVersionAcrossWorkers) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 4;
  sc.inference_backend = rr::InferenceBackendKind::kF32Simd;
  const std::uint64_t before = rr::InferenceWeights::snapshot_builds();
  rv::DecisionService svc(net, agent, sc);
  for (std::uint64_t s = 1; s <= 8; ++s) {
    svc.submit(spec_for(rc::App::kCholesky, 3, s));
  }
  svc.drain();
  svc.wait_idle();
  const rv::ReloadResult r = svc.reload(net, /*force=*/true);
  // Reload after drain is rejected — the snapshot count must not move.
  EXPECT_EQ(r.status, rv::ReloadStatus::kRejected);
  svc.shutdown();
  // Exactly one f32 snapshot was built (version 1 at construction),
  // shared by all 4 workers; adopting never re-snapshots.
  EXPECT_EQ(rr::InferenceWeights::snapshot_builds() - before, 1u);
}

TEST(ServeReload, ReloadUnderWorkerLoadCompletesEverySession) {
  const auto agent = small_agent();
  const auto net = small_net(agent);
  rv::ServiceConfig sc;
  sc.workers = 2;
  sc.record_actions = true;
  rv::DecisionService svc(net, agent, sc);
  std::uint64_t published = 0;
  for (std::uint64_t s = 1; s <= 12; ++s) {
    svc.submit(spec_for(rc::App::kCholesky, 3, s));
    const rv::ReloadResult r = svc.reload(net, /*force=*/true);
    if (r.status == rv::ReloadStatus::kPublished) ++published;
  }
  svc.drain();
  svc.wait_idle();
  svc.shutdown();
  EXPECT_EQ(published, 12u);
  EXPECT_EQ(svc.counters().completed, 12u);
  // Every decision names exactly one published version, monotone per
  // session (workers adopt at round boundaries, never mid-round).
  for (const auto& res : svc.results()) {
    ASSERT_EQ(res.weight_versions.size(), res.actions.size());
    for (std::size_t i = 1; i < res.weight_versions.size(); ++i) {
      EXPECT_LE(res.weight_versions[i - 1], res.weight_versions[i]);
    }
    if (!res.weight_versions.empty()) {
      EXPECT_GE(res.weight_versions.front(), 1u);
      EXPECT_LE(res.weight_versions.back(), 13u);
    }
  }
}
