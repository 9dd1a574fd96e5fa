#include "cluster/shard_sched.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace readys::cluster {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Per-shard queue-depth gauges are registered for at most this many
/// shards — beyond that the metric surface would outgrow its usefulness.
constexpr int kMaxDepthGauges = 32;
}  // namespace

ShardScheduler::ShardScheduler(
    std::vector<std::unique_ptr<sim::Scheduler>> inners, Options opts,
    std::string inner_label)
    : inners_(std::move(inners)),
      opts_(opts),
      inner_label_(std::move(inner_label)) {
  if (inners_.empty()) {
    throw std::invalid_argument(
        "ShardScheduler: needs at least one inner scheduler");
  }
  opts_.shards = std::max(1, opts_.shards);
  opts_.hb_suspect = std::max(1, opts_.hb_suspect);
  opts_.hb_dead = std::max(opts_.hb_suspect, opts_.hb_dead);
}

std::string ShardScheduler::name() const {
  return "shard(" + std::to_string(opts_.shards) + "x" + inner_label_ + ")";
}

bool ShardScheduler::shard_believed_alive(int s) const {
  for (const sim::ResourceId r : shards_[static_cast<std::size_t>(s)].members) {
    if (monitor_.believed_alive(static_cast<std::size_t>(r))) return true;
  }
  return false;
}

void ShardScheduler::bind_scoped_states() {
  for (Shard& shard : shards_) {
    sim::EngineState& st = shard.state;
    st.graph = &base_view_->graph();
    st.platform = &base_view_->platform();
    st.costs = &base_view_->costs();
    st.comm = base_view_->comm_model();
    st.resources = &shard.members;
    st.ready = &shard.ready;
    st.ready_log = &shard.ready_log;
    st.running = &shard.running;
    st.up = &shard.up;
    st.avail = &shard.avail;
    // is_ready() answers from the base view: readiness is a global DAG
    // fact, and a guard wrapped around the inner (guarded:<inner>) must
    // not count a stolen-away task — which is still genuinely ready — as
    // an inner failure. Ownership is enforced by the coordinator's own
    // drop check instead.
    st.base = &*base_view_;
  }
}

void ShardScheduler::reset(const sim::EngineView& view) {
  const auto p = static_cast<std::size_t>(view.platform().size());
  const std::size_t n = view.graph().num_tasks();
  const int k = static_cast<int>(
      std::min({static_cast<std::size_t>(opts_.shards), p, inners_.size()}));
  partition_ = Partition::by_type_round_robin(view.platform(), k);
  base_view_.emplace(view);

  shards_.clear();
  shards_.resize(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    shard.inner = inners_[static_cast<std::size_t>(s)].get();
    shard.members = partition_.members[static_cast<std::size_t>(s)];
    shard.in_ready.assign(n, 0);
    shard.up.assign(p, 0);
    shard.avail.assign(p, kInf);
  }
  bind_scoped_states();

  HeartbeatMonitor::Config hb;
  hb.period_ms = opts_.hb_period_ms;
  hb.suspect_after = opts_.hb_suspect;
  hb.dead_after = opts_.hb_dead;
  hb.seed = opts_.seed;
  monitor_ = HeartbeatMonitor(hb);
  monitor_.reset(p, view.now());
  hb_transitions_seen_ = 0;

  owner_.assign(n, -1);
  log_cursor_ = 0;
  used_scratch_.assign(p, 0);
  invoked_.clear();
  invoked_.reserve(static_cast<std::size_t>(k));
  batches_.assign(static_cast<std::size_t>(k), {});
  directory_.assign(static_cast<std::size_t>(k), {});
  directory_at_ = view.now();
  directory_fresh_ = false;

  if (opts_.parallel > 0 && !pool_) {
    pool_ = std::make_unique<util::ThreadPool>(static_cast<std::size_t>(
        std::min(opts_.parallel, k)));
  }
  depth_gauges_.clear();
  if (obs::Telemetry* t = obs::telemetry()) {
    for (int s = 0; s < std::min(k, kMaxDepthGauges); ++s) {
      depth_gauges_.push_back(&t->registry().gauge(
          "cluster.shard" + std::to_string(s) + ".queue_depth"));
    }
  }

  // Inners reset on their (still empty) scoped views; ownership of the
  // initial sources lands at the first decide() via the ready log.
  refresh_scoped(view);
  for (Shard& shard : shards_) {
    shard.inner->reset(sim::EngineView(shard.state));
  }
}

void ShardScheduler::insert_owned(int s, dag::TaskId t) {
  Shard& shard = shards_[static_cast<std::size_t>(s)];
  shard.ready.insert(
      std::lower_bound(shard.ready.begin(), shard.ready.end(), t), t);
  shard.in_ready[t] = 1;
  shard.ready_log.push_back(t);
  owner_[t] = s;
}

void ShardScheduler::remove_owned(dag::TaskId t) {
  const int s = owner_[t];
  if (s < 0) return;
  Shard& shard = shards_[static_cast<std::size_t>(s)];
  const auto it =
      std::lower_bound(shard.ready.begin(), shard.ready.end(), t);
  if (it != shard.ready.end() && *it == t) shard.ready.erase(it);
  shard.in_ready[t] = 0;
  owner_[t] = -1;
}

void ShardScheduler::sync_ownership(const sim::EngineView& view) {
  const auto& log = view.ready_log();
  const auto& graph = view.graph();
  for (; log_cursor_ < log.size(); ++log_cursor_) {
    const dag::TaskId t = log[log_cursor_];
    if (!view.is_ready(t)) continue;  // started before we saw the entry
    if (owner_[t] >= 0) continue;     // duplicate log entry, already placed
    int s;
    if (graph.in_degree(t) > 0) {
      // Data locality: follow the first input home. Its producer is
      // known because a ready task's predecessors all completed.
      const sim::ResourceId pr = view.producer_of(graph.predecessors(t)[0]);
      s = pr >= 0 ? partition_.shard(pr)
                  : static_cast<int>(t % static_cast<dag::TaskId>(
                                             shards_.size()));
    } else {
      s = static_cast<int>(t % static_cast<dag::TaskId>(shards_.size()));
    }
    insert_owned(s, t);
  }
}

void ShardScheduler::refresh_scoped(const sim::EngineView& view) {
  // Pass 1: liveness and idleness for every member (cheap bitmap-level
  // queries); a shard with no up-and-idle member cannot bind anything
  // this round, so the expensive per-resource refreshes below are
  // reserved for shards that will actually be woken.
  for (Shard& shard : shards_) {
    shard.has_idle = false;
    // Local facts are fresh — a shard always knows its own resources.
    for (const sim::ResourceId r : shard.members) {
      const auto ri = static_cast<std::size_t>(r);
      const bool up = view.is_up(r);
      shard.up[ri] = up ? 1 : 0;
      if (up && view.is_idle(r)) shard.has_idle = true;
    }
    sim::EngineState& st = shard.state;
    st.now = view.now();
    st.any_running = view.any_running();
    // Always on: remote resources read as "down", which routes every
    // inner's existing fault-tolerance path (drain dead queues, steal
    // from dead plans) into cross-shard behavior for free.
    st.fault_enabled = true;
  }
  // Pass 2: full scoped state, only where an inner will look at it.
  for (Shard& shard : shards_) {
    if (!shard.has_idle) continue;
    shard.running.clear();
    for (const sim::ResourceId r : shard.members) {
      const auto ri = static_cast<std::size_t>(r);
      shard.avail[ri] =
          shard.up[ri] != 0 ? view.expected_available_at(r) : kInf;
    }
  }
  for (const sim::RunningInfo& info : view.running()) {
    Shard& shard =
        shards_[static_cast<std::size_t>(partition_.shard(info.resource))];
    if (shard.has_idle) shard.running.push_back(info);
  }
}

void ShardScheduler::refresh_directory(const sim::EngineView& view) {
  const double now = view.now();
  if (directory_fresh_ && now - directory_at_ < opts_.stale_ms) return;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    directory_[s].depth = shards_[s].ready.size();
    directory_[s].alive = shard_believed_alive(static_cast<int>(s));
  }
  directory_at_ = now;
  directory_fresh_ = true;
}

void ShardScheduler::try_steal(const sim::EngineView& view) {
  obs::Telemetry* tel = obs::telemetry();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& thief = shards_[s];
    if (!thief.ready.empty()) continue;
    if (!thief.has_idle) continue;  // computed by refresh_scoped
    // Victim selection runs on the bounded-stale directory (this is the
    // only cross-shard information a shard consults); the transfer
    // itself is a live exchange with the chosen victim.
    const double age = view.now() - directory_at_;
    if (tel) tel->cluster_stale_age.observe(age);
    int victim = -1;
    std::size_t best_depth = 0;
    for (std::size_t v = 0; v < shards_.size(); ++v) {
      if (v == s || !directory_[v].alive) continue;
      if (directory_[v].depth > best_depth) {
        best_depth = directory_[v].depth;
        victim = static_cast<int>(v);
      }
    }
    if (victim < 0) continue;
    auto& vq = shards_[static_cast<std::size_t>(victim)].ready;
    if (vq.empty()) {
      // The directory lied (stale); remember the truth locally so the
      // same empty victim is not re-picked until the next refresh.
      directory_[static_cast<std::size_t>(victim)].depth = 0;
      continue;
    }
    const std::size_t take = std::max<std::size_t>(1, vq.size() / 2);
    // Steal from the back: highest ids are the victim's freshest work,
    // least likely to be mid-flight in its inner's private queues.
    std::vector<dag::TaskId> moved(vq.end() - static_cast<std::ptrdiff_t>(take),
                                   vq.end());
    for (const dag::TaskId t : moved) {
      remove_owned(t);
      insert_owned(static_cast<int>(s), t);
    }
    directory_[static_cast<std::size_t>(victim)].depth = vq.size();
    ++steals_;
    stolen_tasks_ += take;
    if (tel) {
      tel->cluster_steals.add();
      tel->cluster_stolen.add(take);
    }
  }
}

std::vector<sim::Assignment> ShardScheduler::decide(
    const sim::EngineView& view) {
  obs::Telemetry* tel = obs::telemetry();
  base_view_.emplace(view);  // stable address: scoped states point here

  // 1. Failure detection: feed current liveness into the heartbeat
  // machine; schedulers downstream only see its *beliefs*. The monitor
  // is event-driven and queries ground truth only for resources whose
  // wake time has arrived.
  const auto p = static_cast<std::size_t>(view.platform().size());
  monitor_.observe(view.now(), [&view](std::size_t r) {
    return view.is_up(static_cast<sim::ResourceId>(r));
  });
  if (tel && monitor_.total_transitions() != hb_transitions_seen_) {
    tel->cluster_hb_transitions.add(monitor_.total_transitions() -
                                    hb_transitions_seen_);
  }
  hb_transitions_seen_ = monitor_.total_transitions();

  // 2. Ownership, scoped state, stale directory, stealing.
  sync_ownership(view);
  refresh_scoped(view);
  refresh_directory(view);
  if (opts_.steal) try_steal(view);

  // 3. Event-driven activation: only shards with an up-and-idle member
  // can bind work this round, so only their inners are woken. Scopes
  // are disjoint, so the parallel path and the serial path produce the
  // same batches; results always apply in shard order.
  invoked_.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].has_idle) invoked_.push_back(static_cast<std::uint32_t>(s));
  }
  if (pool_ && invoked_.size() > 1) {
    pool_->parallel_for(invoked_.size(), [&](std::size_t i) {
      const std::size_t s = invoked_[i];
      batches_[s] =
          shards_[s].inner->decide(sim::EngineView(shards_[s].state));
    });
  } else {
    for (const std::uint32_t s : invoked_) {
      batches_[s] =
          shards_[s].inner->decide(sim::EngineView(shards_[s].state));
    }
  }

  std::vector<sim::Assignment> out;
  std::fill(used_scratch_.begin(), used_scratch_.end(), 0);
  std::vector<std::uint8_t>& used_res = used_scratch_;
  for (const std::uint32_t s : invoked_) {
    for (const sim::Assignment& a : batches_[s]) {
      const auto ri = static_cast<std::size_t>(a.resource);
      // An inner can lag its shard's truth (e.g. its private queue
      // still holds a task that was stolen away); such proposals are
      // dropped and the inner self-heals on its next decide.
      const bool ok = a.task < owner_.size() && a.resource >= 0 &&
                      ri < p &&
                      shards_[s].in_ready[a.task] != 0 &&
                      view.is_ready(a.task) &&
                      partition_.shard(a.resource) == static_cast<int>(s) &&
                      view.is_up(a.resource) && view.is_idle(a.resource) &&
                      used_res[ri] == 0;
      if (!ok) {
        ++dropped_;
        if (tel) tel->cluster_dropped.add();
        continue;
      }
      used_res[ri] = 1;
      remove_owned(a.task);
      out.push_back(a);
    }
  }

  // 4. Liveness rescue: if no shard bound anything and nothing runs,
  // the simulator would declare a stall. One full-view MCT shot keeps
  // the episode alive (e.g. all ready work owned by shards whose
  // resources are down, with stealing disabled).
  if (out.empty() && !view.any_running() && !view.ready().empty()) {
    const auto rescue = sched::one_shot_mct(rescue_scratch_, view);
    for (const sim::Assignment& a : rescue) {
      const auto ri = static_cast<std::size_t>(a.resource);
      if (!view.is_ready(a.task) || !view.is_up(a.resource) ||
          !view.is_idle(a.resource) || used_res[ri] != 0) {
        continue;
      }
      used_res[ri] = 1;
      remove_owned(a.task);
      out.push_back(a);
    }
    if (!out.empty()) {
      ++rescues_;
      if (tel) tel->cluster_rescues.add();
    }
  }

  for (std::size_t s = 0; s < depth_gauges_.size(); ++s) {
    depth_gauges_[s]->set(static_cast<double>(shards_[s].ready.size()));
  }
  return out;
}

}  // namespace readys::cluster
