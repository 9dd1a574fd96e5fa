#include "serve/policy_store.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "rl/checkpoint.hpp"
#include "rl/env.hpp"
#include "sched/mct.hpp"
#include "sim/simulator.hpp"
#include "util/logging.hpp"

namespace readys::serve {

namespace {

constexpr const char* kV1Magic = "readys-checkpoint v1";

/// True when both nets hold the same parameters bit for bit: names,
/// shapes and the bits of every value, so NaN payloads and the sign of
/// zero count.
bool identical_weights(const rl::PolicyNet& a, const rl::PolicyNet& b) {
  const auto pa = a.named_parameters();
  const auto pb = b.named_parameters();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const tensor::Tensor& x = pa[i].second.value();
    const tensor::Tensor& y = pb[i].second.value();
    if (pa[i].first != pb[i].first || !x.same_shape(y) ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* reload_status_name(ReloadStatus s) {
  switch (s) {
    case ReloadStatus::kPublished:
      return "published";
    case ReloadStatus::kNoOp:
      return "no-op";
    case ReloadStatus::kRejected:
      return "rejected";
  }
  return "unknown";
}

PolicyStore::PolicyStore(const rl::PolicyNet& initial, rl::AgentConfig agent,
                         PolicyStoreConfig cfg)
    : agent_(std::move(agent)),
      cfg_(cfg),
      node_features_(initial.node_features()),
      resource_features_(initial.resource_features()),
      probe_platform_(sim::Platform::hybrid(
          std::max(1, cfg.probe_cpus > 0 ? cfg.probe_cpus : 2),
          std::max(0, cfg.probe_cpus > 0 ? cfg.probe_gpus : 2))) {
  cfg_.probe_tiles = std::max(1, cfg_.probe_tiles);
  probe_graph_ = std::make_shared<const dag::TaskGraph>(
      core::make_graph(cfg_.probe_app, cfg_.probe_tiles));
  // Golden sanity bound: the deterministic one-shot-MCT makespan on the
  // probe instance. Any candidate whose greedy makespan lands beyond
  // max_makespan_factor of this is worse than the zero-learning
  // heuristic by an order of magnitude — not a policy to swap in live.
  sched::MctScheduler mct;
  golden_mct_makespan_ = sim::simulate_makespan(
      *probe_graph_, probe_platform_, core::make_costs(cfg_.probe_app), mct,
      /*sigma=*/0.0, cfg_.probe_seed);

  // Version 1: the construction weights, published unvalidated (they are
  // the only weights there are — rejecting them would leave nothing).
  std::unique_ptr<rl::PolicyNet> net = clone_arch();
  net->copy_parameters_from(initial);
  auto snap = std::make_shared<Snapshot>();
  snap->version = 1;
  snap->f32 = std::make_shared<const rl::InferenceWeights>(
      rl::InferenceWeights::snapshot(*net));
  snap->net = std::shared_ptr<const rl::PolicyNet>(std::move(net));
  current_ = std::move(snap);
  if (obs::Telemetry* t = obs::telemetry()) {
    t->serve_active_weight_version.set(1.0);
  }
}

std::unique_ptr<rl::PolicyNet> PolicyStore::clone_arch() const {
  return std::make_unique<rl::PolicyNet>(node_features_, resource_features_,
                                         agent_);
}

std::shared_ptr<const PolicyStore::Snapshot> PolicyStore::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::uint64_t PolicyStore::active_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_->version;
}

std::string PolicyStore::validate_candidate(
    const rl::PolicyNet& candidate) const {
  // Shadow evaluation on the pinned probe: a greedy episode, every
  // decision vetted for finiteness, bounded in length, and the final
  // makespan held against the golden MCT bound. Deterministic — same
  // candidate, same verdict.
  try {
    rl::SchedulingEnv::Config ec;
    ec.sigma = 0.0;
    ec.window = agent_.window;
    ec.seed = cfg_.probe_seed;
    rl::SchedulingEnv env(*probe_graph_, probe_platform_,
                          core::make_costs(cfg_.probe_app), ec);
    env.reset();
    std::unique_ptr<rl::InferenceBackend> backend =
        candidate.make_inference(rl::InferenceBackendKind::kF64Ref);
    rl::InferenceOutput out;
    const std::size_t cap = 16 * probe_graph_->num_tasks() + 64;
    std::size_t decisions = 0;
    bool done = false;
    while (!done) {
      if (++decisions > cap) {
        return "probe episode exceeded " + std::to_string(cap) +
               " decisions (policy livelocks the probe DAG)";
      }
      const rl::Observation& obs = env.observation();
      backend->forward(obs, out);
      if (!std::isfinite(out.value)) {
        return "non-finite value estimate on probe decision " +
               std::to_string(decisions);
      }
      for (std::size_t i = 0; i < obs.num_actions(); ++i) {
        if (!std::isfinite(out.log_probs[i])) {
          return "non-finite policy probability on probe decision " +
                 std::to_string(decisions);
        }
      }
      done = env.step(rl::choose_action(out.probs, nullptr)).done;
    }
    const double makespan = env.makespan();
    const double bound = cfg_.max_makespan_factor * golden_mct_makespan_;
    if (!std::isfinite(makespan) || makespan > bound) {
      std::ostringstream os;
      os << "probe makespan " << makespan << " exceeds MCT-sanity bound "
         << bound << " (" << cfg_.max_makespan_factor << " x golden MCT "
         << golden_mct_makespan_ << ")";
      return os.str();
    }
  } catch (const std::exception& e) {
    return std::string("probe evaluation threw: ") + e.what();
  }
  return "";
}

ReloadResult PolicyStore::reject(const std::string& reason) {
  ReloadResult r;
  r.status = ReloadStatus::kRejected;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.rejected;
    last_reject_ = reason;
    r.version = current_->version;
  }
  r.reason = reason;
  if (obs::Telemetry* t = obs::telemetry()) t->serve_reload_rejects.add();
  util::log_warn() << "PolicyStore: reload rejected, keeping version "
                   << r.version << ": " << reason;
  return r;
}

ReloadResult PolicyStore::publish_or_reject(
    std::unique_ptr<rl::PolicyNet> candidate, bool force, const char* origin) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!force && identical_weights(*candidate, *current_->net)) {
      ++counters_.noops;
      ReloadResult r;
      r.status = ReloadStatus::kNoOp;
      r.version = current_->version;
      r.reason = "weights identical to active version " +
                 std::to_string(current_->version);
      return r;
    }
  }
  if (cfg_.validate) {
    const std::string why = validate_candidate(*candidate);
    if (!why.empty()) return reject(why);
  }
  auto snap = std::make_shared<Snapshot>();
  snap->f32 = std::make_shared<const rl::InferenceWeights>(
      rl::InferenceWeights::snapshot(*candidate));
  snap->net = std::shared_ptr<const rl::PolicyNet>(std::move(candidate));
  ReloadResult r;
  r.status = ReloadStatus::kPublished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snap->version = current_->version + 1;
    current_ = snap;
    ++counters_.published;
    r.version = snap->version;
  }
  if (obs::Telemetry* t = obs::telemetry()) {
    t->serve_reloads.add();
    t->serve_active_weight_version.set(static_cast<double>(r.version));
  }
  util::log_info() << "PolicyStore: published weight version " << r.version
                   << " (" << origin << ")";
  return r;
}

ReloadResult PolicyStore::reload_from_net(const rl::PolicyNet& candidate,
                                          bool force) {
  std::unique_ptr<rl::PolicyNet> copy = clone_arch();
  try {
    copy->copy_parameters_from(candidate);
  } catch (const std::exception& e) {
    return reject(std::string("candidate architecture mismatch: ") + e.what());
  }
  return publish_or_reject(std::move(copy), force, "reload_from_net");
}

ReloadResult PolicyStore::reload_from_file(const std::string& path,
                                           bool force) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return reject("cannot read checkpoint file " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string blob = buf.str();
  if (blob.compare(0, std::char_traits<char>::length(kV1Magic), kV1Magic) ==
      0) {
    return reject("legacy v1 checkpoint (" + path +
                  "): no integrity footer, not reloadable live — retrain or "
                  "re-save as readys-ckpt/2");
  }
  std::unique_ptr<rl::PolicyNet> copy = clone_arch();
  rl::CheckpointData data;
  try {
    // Fully validated (header, CRC footer, weights payload) before the
    // scratch net is touched; any corruption — truncation, bit flips,
    // shape mismatches — throws and the active snapshot stays.
    rl::deserialize_checkpoint(*copy, data, blob);
  } catch (const std::exception& e) {
    return reject("checkpoint " + path + " failed to parse: " + e.what());
  }
  return publish_or_reject(std::move(copy), force, path.c_str());
}

PolicyStore::Counters PolicyStore::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::string PolicyStore::last_reject_reason() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_reject_;
}

}  // namespace readys::serve
