#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "util/logging.hpp"

namespace readys::serve {

DecisionService::DecisionService(const rl::PolicyNet& net,
                                 const rl::AgentConfig& agent,
                                 ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      agent_(agent),
      platform_(sim::Platform::hybrid(std::max(1, cfg_.cpus),
                                      std::max(0, cfg_.gpus))),
      sup_(cfg_.supervise,
           std::max<std::size_t>(1, static_cast<std::size_t>(
                                        std::max(0, cfg_.workers)))) {
  if (!cfg_.incremental_encoding) {
    throw std::invalid_argument(
        "ServiceConfig::incremental_encoding=false is no longer supported "
        "(the IncrementalEncoder is the only encoder)");
  }
  cfg_.queue_capacity = std::max<std::size_t>(1, cfg_.queue_capacity);
  cfg_.max_active = std::max<std::size_t>(1, cfg_.max_active);
  cfg_.workers = std::max(0, cfg_.workers);
  cfg_.max_retries = std::max(0, cfg_.max_retries);
  if (cfg_.reload.probe_cpus <= 0) {
    cfg_.reload.probe_cpus = std::max(1, cfg_.cpus);
    cfg_.reload.probe_gpus = std::max(0, cfg_.gpus);
  }

  // Version 1 of the policy: the construction weights, published into
  // the store every worker adopts snapshots from.
  store_ = std::make_unique<PolicyStore>(net, agent_, cfg_.reload);

  // Per-slot adopted policy (slot 0 doubles as the pump-mode slot).
  // Adopted eagerly so the first round never pays the build inside a
  // latency-sensitive path.
  const std::size_t n_slots =
      std::max<std::size_t>(1, static_cast<std::size_t>(cfg_.workers));
  slots_.resize(n_slots);
  for (auto& wp : slots_) adopt_policy(wp);

  dead_.assign(n_slots, 0);
  restart_at_.assign(n_slots, Clock::time_point{});
  for (std::size_t w = 0; w < n_slots; ++w) {
    beats_.push_back(std::make_unique<WorkerBeat>());
  }
  workers_.resize(static_cast<std::size_t>(cfg_.workers));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int w = 0; w < cfg_.workers; ++w) {
      spawn_worker(static_cast<std::size_t>(w));
    }
  }
  // The supervisor owns worker restarts, so it runs whenever workers do;
  // stall detection inside it stays gated on watchdog_period_ms.
  if (cfg_.workers > 0) {
    supervisor_ = std::thread([this] { supervisor_loop(); });
  }
}

DecisionService::~DecisionService() { abort_shutdown(); }

void DecisionService::adopt_policy(WorkerPolicy& wp) {
  std::shared_ptr<const PolicyStore::Snapshot> cur = store_->current();
  if (wp.backend != nullptr && wp.version == cur->version) return;
  wp.snap = cur;
  wp.version = cur->version;
  if (cfg_.inference_backend == rl::InferenceBackendKind::kF32Simd) {
    // Every worker shares the published frozen f32 snapshot — one
    // snapshot build per version, fleet-wide (the PR 9 follow-up).
    wp.replica.reset();
    wp.backend = std::make_unique<rl::F32SimdBackend>(cur->f32);
  } else {
    // kF64Ref reads weights live and PolicyNet forwards are not
    // thread-safe to share, so each slot keeps a private replica of the
    // snapshot (rebuilt only on version change).
    wp.replica = std::make_unique<rl::PolicyNet>(
        cur->net->node_features(), cur->net->resource_features(), agent_);
    wp.replica->copy_parameters_from(*cur->net);
    wp.backend = std::make_unique<rl::F64RefBackend>(*wp.replica);
  }
}

std::unique_ptr<Session> DecisionService::build_session(
    std::uint64_t id, const SessionSpec& spec, int attempt) {
  std::shared_ptr<const dag::TaskGraph> graph;
  {
    const std::pair<int, int> key{static_cast<int>(spec.app), spec.tiles};
    std::lock_guard<std::mutex> lock(graphs_mutex_);
    auto it = graphs_.find(key);
    if (it == graphs_.end()) {
      it = graphs_
               .emplace(key, std::make_shared<const dag::TaskGraph>(
                                 core::make_graph(spec.app, spec.tiles)))
               .first;
    }
    graph = it->second;
  }
  return std::make_unique<Session>(id, spec, platform_, std::move(graph),
                                   agent_.window, attempt);
}

const TenantPolicy& DecisionService::policy_for(
    const std::string& tenant) const {
  const auto it = cfg_.tenants.find(tenant);
  return it == cfg_.tenants.end() ? cfg_.default_tenant : it->second;
}

DecisionService::Admission DecisionService::submit(const SessionSpec& spec_in) {
  SessionSpec spec = spec_in;
  if (spec.tenant.empty()) spec.tenant = "default";
  Admission out;
  std::unique_ptr<Session> victim;
  bool evicted = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const char* reject = nullptr;
    bool qos_shed = false;
    if (stop_) {
      reject = "stopped";
    } else if (draining_) {
      reject = "draining";
    }
    if (reject == nullptr) {
      // Token bucket: a rate-limited tenant sheds at the door without
      // touching anyone else's lane.
      const TenantPolicy& pol = policy_for(spec.tenant);
      if (pol.rate_per_s > 0.0) {
        Bucket& b = buckets_[spec.tenant];
        const auto now = Clock::now();
        const double cap = std::max(1.0, pol.burst);
        if (!b.primed) {
          b.tokens = cap;
          b.primed = true;
        } else {
          const double dt =
              std::chrono::duration<double>(now - b.last).count();
          b.tokens = std::min(cap, b.tokens + dt * pol.rate_per_s);
        }
        b.last = now;
        if (b.tokens < 1.0) {
          reject = "rate limited";
          qos_shed = true;
        } else {
          b.tokens -= 1.0;
        }
      }
    }
    if (reject == nullptr && queue_.size() >= cfg_.queue_capacity) {
      // Overload: shed the most-backlogged tenant's newest entry to make
      // room. evict_for returns null when the submitter itself is the
      // hog (single-tenant case: exactly the old "queue full" shed).
      victim = queue_.evict_for(spec.tenant, spec.qos);
      if (victim == nullptr) {
        reject = "queue full";
      } else {
        evicted = true;
      }
    }
    if (reject != nullptr) {
      out.reason = reject;
      ++counters_.shed;
      ++tenant_counters_[spec.tenant].shed;
      if (qos_shed) ++counters_.tenant_shed;
      if (obs::Telemetry* t = obs::telemetry()) {
        t->serve_shed.add();
        if (qos_shed) t->serve_tenant_shed.add();
      }
      return out;
    }
    out.admitted = true;
    out.id = next_id_++;
    ++counters_.admitted;
    ++tenant_counters_[spec.tenant].admitted;
    ++in_flight_;
    if (evicted) ++counters_.tenant_shed;
    queue_.set_weight(spec.tenant, policy_for(spec.tenant).weight);
  }
  if (obs::Telemetry* t = obs::telemetry()) {
    t->serve_admitted.add();
    if (evicted) t->serve_tenant_shed.add();
  }
  if (victim != nullptr) {
    retire(std::move(victim), SessionState::kShed,
           "evicted under overload (tenant over fair share)",
           /*was_active=*/false);
  }
  // Building the session (graph lookup, HEFT reference, first encode)
  // happens outside the service lock; the slot was already reserved so
  // capacity stays bounded.
  std::unique_ptr<Session> session = build_session(out.id, spec, 0);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // abort_shutdown() sets stop_ before it sweeps the queue, under this
    // mutex: a session pushed now would never be swept or retired.
    if (!stop_) {
      queue_.push_back(
          QosQueue::Entry{std::move(session), Clock::time_point{}});
      update_gauges();
    }
  }
  if (session != nullptr) {
    retire(std::move(session), SessionState::kAborted, "service aborted",
           /*was_active=*/false);
    return out;
  }
  work_cv_.notify_one();
  return out;
}

DecisionService::Clock::time_point DecisionService::top_up(
    std::vector<std::unique_ptr<Session>>& batch) {
  // Caller holds mutex_. Pulls due entries (class priority + DRR across
  // tenants); backoff entries that are not due yet stay put and report
  // the earliest due time so the worker can sleep exactly that long.
  const auto now = Clock::now();
  const std::size_t before = batch.size();
  const std::size_t room =
      before < cfg_.max_active ? cfg_.max_active - before : 0;
  const Clock::time_point earliest = queue_.pop_due(now, room, batch);
  active_ += batch.size() - before;
  update_gauges();
  return earliest;
}

void DecisionService::retire(std::unique_ptr<Session> session,
                             SessionState state, std::string error,
                             bool was_active) {
  SessionResult result = std::move(session->result());
  result.state = state;
  result.error = std::move(error);
  session.reset();  // release env/graph before taking the lock
  {
    std::lock_guard<std::mutex> lock(mutex_);
    switch (state) {
      case SessionState::kCompleted:
        ++counters_.completed;
        ++tenant_counters_[result.tenant].completed;
        break;
      case SessionState::kQuarantined:
        ++counters_.quarantined;
        break;
      case SessionState::kAborted:
        ++counters_.aborted;
        break;
      case SessionState::kShed:
        ++counters_.shed;
        ++tenant_counters_[result.tenant].shed;
        break;
    }
    retired_.push_back(std::move(result));
    if (in_flight_ > 0) --in_flight_;
    if (was_active && active_ > 0) --active_;
    update_gauges();
  }
  if (obs::Telemetry* t = obs::telemetry()) {
    if (state == SessionState::kCompleted) t->serve_completed.add();
    if (state == SessionState::kQuarantined) t->serve_quarantined.add();
  }
  idle_cv_.notify_all();
  work_cv_.notify_all();  // a draining worker may now be done
}

void DecisionService::retry_or_quarantine(std::unique_ptr<Session> session,
                                          const std::string& why) {
  const int attempt = session->attempt();
  if (attempt >= cfg_.max_retries) {
    retire(std::move(session), SessionState::kQuarantined,
           cfg_.max_retries > 0
               ? why + " (" + std::to_string(cfg_.max_retries) +
                     " retries exhausted)"
               : why);
    return;
  }
  // Transient fault: resubmit the same spec under a perturbed env seed
  // with exponential backoff. The fresh Session replaces the dead one
  // in the queue; in_flight_ is unchanged (same admission slot).
  std::unique_ptr<Session> fresh;
  try {
    fresh = build_session(session->id(), session->spec(), attempt + 1);
  } catch (const std::exception& e) {
    retire(std::move(session), SessionState::kQuarantined,
           why + "; retry construction failed: " + e.what());
    return;
  }
  // Carry the accumulated accounting across attempts.
  SessionResult& r = fresh->result();
  const SessionResult& old = session->result();
  r.timeouts = old.timeouts;
  r.fallbacks = old.fallbacks;
  r.decisions = old.decisions;
  session.reset();
  const double backoff_ms =
      cfg_.retry_backoff_ms * std::pow(2.0, static_cast<double>(attempt));
  const auto not_before =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             std::max(0.0, backoff_ms)));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.retries;
    queue_.push_back(QosQueue::Entry{std::move(fresh), not_before});
    if (active_ > 0) --active_;
    update_gauges();
  }
  if (obs::Telemetry* t = obs::telemetry()) t->serve_retries.add();
  util::log_warn() << "DecisionService: session retry (attempt "
                   << (attempt + 1) << "): " << why;
  work_cv_.notify_one();
}

std::size_t DecisionService::run_round(
    std::vector<std::unique_ptr<Session>>& batch, WorkerPolicy& wp) {
  if (batch.empty()) return 0;

  // Service-wide degraded mode (supervisor escalation): every decision
  // is answered by one-shot MCT — no policy forward at all, so a policy
  // that keeps killing workers cannot stop the service from serving.
  const bool degraded = degraded_.load(std::memory_order_relaxed);

  std::vector<const rl::Observation*> obs;
  obs.reserve(batch.size());
  for (const auto& s : batch) obs.push_back(&s->observation());

  // One batched pass for the whole round, against exactly one adopted
  // snapshot version (wp is re-synced only at round boundaries). Every
  // backend evaluates the batch per-observation-equivalent (kF64Ref's
  // block-diagonal pass matches per-observation forward bit-for-bit;
  // kF32Simd runs each observation independently by construction), which
  // is the keystone of session isolation: what else shares the batch
  // cannot change this session's probabilities.
  const auto t0 = Clock::now();
  std::vector<rl::InferenceOutput> outs;
  std::vector<char> have(batch.size(), 0);
  std::vector<std::string> forward_error(batch.size());
  if (!degraded) {
    try {
      wp.backend->forward_batched(obs, outs);
      std::fill(have.begin(), have.end(), 1);
    } catch (const std::exception& batched_err) {
      // The batched pass failed somewhere inside. Fall back to
      // per-session forwards so only the faulty session pays: each one
      // re-runs alone, and whoever throws is quarantined below.
      outs.resize(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        try {
          wp.backend->forward(*obs[i], outs[i]);
          have[i] = 1;
        } catch (const std::exception& e) {
          forward_error[i] =
              std::string("policy forward threw: ") + e.what() +
              " (batched pass failed: " + batched_err.what() + ")";
        }
      }
    }
  }
  const double elapsed_us = std::chrono::duration<double, std::micro>(
                                Clock::now() - t0)
                                .count();

  std::uint64_t n_decisions = 0;
  std::uint64_t n_timeouts = 0;
  std::uint64_t n_fallbacks = 0;
  obs::Telemetry* tel = obs::telemetry();

  std::size_t stepped = 0;
  std::vector<std::unique_ptr<Session>> keep;
  keep.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::unique_ptr<Session> s = std::move(batch[i]);
    SessionResult& r = s->result();

    std::size_t action = 0;
    bool fellback = false;
    bool timed_out = false;
    if (degraded) {
      action = s->mct_action();
      fellback = true;
    } else {
      if (!have[i]) {
        retire(std::move(s), SessionState::kQuarantined, forward_error[i]);
        continue;
      }

      std::vector<double>& p = outs[i].probs;
      if (s->poison_at(r.decisions)) {
        std::fill(p.begin(), p.end(),
                  std::numeric_limits<double>::quiet_NaN());
      }

      // Budget resolution: spec < 0 opts out; spec > 0 overrides; spec
      // == 0 inherits the service default, which itself may be negative
      // (no deadline), zero (a literal zero budget — every decision
      // degrades deterministically, no clock consulted) or positive.
      const double spec_deadline = s->spec().deadline_us;
      const double budget = spec_deadline < 0.0   ? -1.0
                            : spec_deadline > 0.0 ? spec_deadline
                                                  : cfg_.deadline_us;
      timed_out = budget == 0.0 || (budget > 0.0 && elapsed_us > budget);

      // The action rule vets the row before anything touches the env,
      // also when the deadline degrades the decision (greedy then, so
      // the session's sampling stream draws only for actions it takes).
      try {
        action = rl::choose_action(
            p, cfg_.greedy || timed_out ? nullptr : &s->action_rng());
      } catch (const std::runtime_error&) {
        retire(std::move(s), SessionState::kQuarantined,
               "non-finite policy probability");
        continue;
      }
      if (timed_out) {
        // Deadline blown (or was never there to begin with): degrade
        // this decision to a one-shot MCT answer instead of stalling the
        // round behind a slow policy.
        action = s->mct_action();
        fellback = true;
      }
    }

    if (timed_out) {
      ++r.timeouts;
      ++n_timeouts;
    }
    if (fellback) {
      ++r.fallbacks;
      ++n_fallbacks;
    }
    ++r.decisions;
    ++n_decisions;
    if (cfg_.record_actions) {
      r.actions.push_back(static_cast<std::uint32_t>(action));
      r.weight_versions.push_back(wp.version);
    }
    if (cfg_.record_latencies) r.decide_us.push_back(elapsed_us);
    if (tel != nullptr) tel->serve_decide_us.observe(elapsed_us);

    try {
      const rl::SchedulingEnv::StepResult sr = s->env().step(action);
      ++stepped;
      if (sr.done) {
        r.makespan = s->env().makespan();
        retire(std::move(s), SessionState::kCompleted, "");
      } else if (r.decisions >= cfg_.max_session_decisions) {
        retire(std::move(s), SessionState::kQuarantined,
               "decision budget exhausted (" +
                   std::to_string(r.decisions) + " decisions)");
      } else {
        keep.push_back(std::move(s));
      }
    } catch (const std::logic_error& e) {
      // Environment faults (platform unrecoverable, stalled) are
      // transient: the cluster may recover on resubmission.
      retry_or_quarantine(std::move(s),
                          std::string("env fault: ") + e.what());
    } catch (const std::exception& e) {
      retire(std::move(s), SessionState::kQuarantined,
             std::string("env step threw: ") + e.what());
    }
  }
  batch = std::move(keep);

  if (tel != nullptr) {
    if (n_decisions > 0) tel->serve_decisions.add(n_decisions);
    if (n_timeouts > 0) tel->serve_timeouts.add(n_timeouts);
    if (n_fallbacks > 0) tel->serve_fallbacks.add(n_fallbacks);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.decisions += n_decisions;
    counters_.timeouts += n_timeouts;
    counters_.fallbacks += n_fallbacks;
  }
  return stepped;
}

void DecisionService::worker_loop(std::size_t slot) {
  std::vector<std::unique_ptr<Session>> batch;
  WorkerBeat& beat = *beats_[slot];
  WorkerPolicy& wp = slots_[slot];
  std::uint64_t round = 0;
  for (;;) {
    bool stopping = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        if (stop_) break;
        const Clock::time_point due = top_up(batch);
        if (!batch.empty()) break;
        if (draining_ && in_flight_ == 0) break;
        beat.busy.store(false, std::memory_order_relaxed);
        if (due == Clock::time_point::max()) {
          work_cv_.wait(lock);
        } else {
          work_cv_.wait_until(lock, due);
        }
      }
      stopping = stop_;  // snapshot under the lock: plain bool, no relock
    }
    if (stopping) break;
    if (batch.empty()) return;  // drained dry: exit cleanly
    beat.busy.store(true, std::memory_order_relaxed);
    try {
      if (cfg_.chaos_round_hook) cfg_.chaos_round_hook(slot, round);
      // Round boundary: adopt the latest published snapshot. The whole
      // round below runs against this one version — no torn reads.
      adopt_policy(wp);
      run_round(batch, wp);
    } catch (const std::exception& e) {
      // Crash containment: a fatal round error retires only this batch;
      // the thread exits and the supervisor restarts the slot.
      const std::string why = std::string("worker crashed: ") + e.what();
      for (auto& s : batch) {
        if (s != nullptr) {
          retire(std::move(s), SessionState::kQuarantined, why);
        }
      }
      batch.clear();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        dead_[slot] = 1;
      }
      beat.busy.store(false, std::memory_order_relaxed);
      watchdog_cv_.notify_all();
      util::log_error() << "DecisionService: worker " << slot
                        << " died: " << e.what();
      return;
    }
    ++round;
    beat.beat.fetch_add(1, std::memory_order_relaxed);
  }
  // Abort: retire the in-flight batch deterministically at this round
  // boundary — partial traces recorded, nothing half-stepped.
  for (auto& s : batch) {
    retire(std::move(s), SessionState::kAborted, "service aborted");
  }
}

void DecisionService::spawn_worker(std::size_t slot) {
  // Caller holds mutex_ (construction or supervisor restart).
  beats_[slot]->busy.store(false, std::memory_order_relaxed);
  workers_[slot] = std::thread([this, slot] { worker_loop(slot); });
}

std::size_t DecisionService::pump() {
  if (!workers_.empty()) {
    throw std::logic_error(
        "DecisionService::pump: worker threads are running");
  }
  std::vector<std::unique_ptr<Session>> batch;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_) return 0;
    top_up(batch);
  }
  if (batch.empty()) return 0;
  adopt_policy(slots_[0]);
  const std::size_t stepped = run_round(batch, slots_[0]);
  // Survivors go back to the queue front (in order) so the next pump
  // continues the same round-robin without re-admission accounting.
  if (!batch.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
      queue_.push_front(QosQueue::Entry{std::move(*it), Clock::time_point{}});
      if (active_ > 0) --active_;
    }
    update_gauges();
  }
  return stepped;
}

ReloadResult DecisionService::reload(const rl::PolicyNet& candidate,
                                     bool force) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || stop_) {
      ++counters_.reload_rejects;
      ReloadResult r;
      r.status = ReloadStatus::kRejected;
      r.version = store_->active_version();
      r.reason = "service draining: weights are frozen until shutdown";
      if (obs::Telemetry* t = obs::telemetry()) t->serve_reload_rejects.add();
      return r;
    }
  }
  const ReloadResult r = store_->reload_from_net(candidate, force);
  std::lock_guard<std::mutex> lock(mutex_);
  if (r.status == ReloadStatus::kPublished) ++counters_.reloads;
  if (r.status == ReloadStatus::kRejected) ++counters_.reload_rejects;
  return r;
}

ReloadResult DecisionService::reload_from_file(const std::string& path,
                                               bool force) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || stop_) {
      ++counters_.reload_rejects;
      ReloadResult r;
      r.status = ReloadStatus::kRejected;
      r.version = store_->active_version();
      r.reason = "service draining: weights are frozen until shutdown";
      if (obs::Telemetry* t = obs::telemetry()) t->serve_reload_rejects.add();
      return r;
    }
  }
  const ReloadResult r = store_->reload_from_file(path, force);
  std::lock_guard<std::mutex> lock(mutex_);
  if (r.status == ReloadStatus::kPublished) ++counters_.reloads;
  if (r.status == ReloadStatus::kRejected) ++counters_.reload_rejects;
  return r;
}

void DecisionService::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  work_cv_.notify_all();
}

void DecisionService::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0 || stop_; });
}

void DecisionService::shutdown() {
  drain();
  if (!workers_.empty()) wait_idle();
  abort_shutdown();  // no-op on sessions when everything already retired
}

void DecisionService::abort_shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    if (stop_) return;  // already aborted/joined
    stop_ = true;
  }
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  // Supervisor first: it is the only other joiner/spawner of worker
  // threads, so once it is gone the slots below are stable.
  if (supervisor_.joinable()) supervisor_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Sweep whatever never reached a worker (queued sessions, and in pump
  // mode there is no worker to do it).
  std::deque<QosQueue::Entry> leftover;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftover = queue_.drain();
  }
  while (!leftover.empty()) {
    retire(std::move(leftover.front().session), SessionState::kAborted,
           "service aborted", /*was_active=*/false);
    leftover.pop_front();
  }
  idle_cv_.notify_all();
}

bool DecisionService::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_ == 0;
}

std::size_t DecisionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t DecisionService::active_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

bool DecisionService::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

DecisionService::Counters DecisionService::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::map<std::string, DecisionService::TenantCounters>
DecisionService::tenant_counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenant_counters_;
}

std::vector<SessionResult> DecisionService::results() const {
  std::vector<SessionResult> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = retired_;
  }
  std::sort(out.begin(), out.end(),
            [](const SessionResult& a, const SessionResult& b) {
              return a.id < b.id;
            });
  return out;
}

void DecisionService::update_gauges() const {
  // Caller holds mutex_.
  if (obs::Telemetry* t = obs::telemetry()) {
    t->serve_queue_depth.set(static_cast<double>(queue_.size()));
    t->serve_active.set(static_cast<double>(active_));
  }
}

void DecisionService::supervisor_loop() {
  const bool watch = cfg_.watchdog_period_ms > 0.0;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(
          watch ? cfg_.watchdog_period_ms : 5.0));
  std::vector<std::uint64_t> last(beats_.size(), 0);
  std::vector<Clock::time_point> since(beats_.size(), Clock::now());
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (watchdog_cv_.wait_for(lock, period, [this] { return stop_; })) {
        return;
      }
      const auto now = Clock::now();
      // Schedule restarts for freshly-dead slots (exponential backoff),
      // escalating to degraded mode past the budget.
      for (std::size_t slot = 0; slot < dead_.size(); ++slot) {
        if (!dead_[slot] || restart_at_[slot] != Clock::time_point{}) continue;
        restart_at_[slot] = sup_.on_death(slot, now);
        if (sup_.should_degrade() &&
            !degraded_.load(std::memory_order_relaxed)) {
          degraded_.store(true, std::memory_order_relaxed);
          util::log_error()
              << "DecisionService: worker restart budget exhausted ("
              << sup_.total_deaths()
              << " deaths) — degrading to one-shot MCT for all rounds";
        }
      }
      // Execute due restarts. The old thread must be joined outside the
      // lock (its exit path takes mutex_ in retire()).
      for (std::size_t slot = 0; slot < dead_.size(); ++slot) {
        if (!dead_[slot] || restart_at_[slot] == Clock::time_point{} ||
            restart_at_[slot] > now) {
          continue;
        }
        std::thread old = std::move(workers_[slot]);
        lock.unlock();
        if (old.joinable()) old.join();
        lock.lock();
        if (stop_) return;
        dead_[slot] = 0;
        restart_at_[slot] = Clock::time_point{};
        last[slot] = beats_[slot]->beat.load(std::memory_order_relaxed);
        since[slot] = Clock::now();
        spawn_worker(slot);
        ++counters_.worker_restarts;
        sup_.on_restart();
        if (obs::Telemetry* t = obs::telemetry()) {
          t->serve_worker_restarts.add();
        }
        util::log_warn() << "DecisionService: restarted worker " << slot
                         << " (death " << sup_.deaths(slot) << ")";
      }
    }
    work_cv_.notify_all();  // restarted capacity should pick up work
    if (!watch) continue;
    const auto now = Clock::now();
    for (std::size_t i = 0; i < beats_.size(); ++i) {
      const std::uint64_t cur =
          beats_[i]->beat.load(std::memory_order_relaxed);
      const bool busy = beats_[i]->busy.load(std::memory_order_relaxed);
      if (!busy || cur != last[i]) {
        last[i] = cur;
        since[i] = now;
        continue;
      }
      const double stalled_ms =
          std::chrono::duration<double, std::milli>(now - since[i]).count();
      if (stalled_ms > cfg_.watchdog_stall_ms) {
        stalled_.store(true, std::memory_order_relaxed);
        util::log_error()
            << "DecisionService: worker " << i << " busy with no progress"
            << " for " << stalled_ms << " ms (watchdog)";
        since[i] = now;  // log once per stall window, not every period
      }
    }
  }
}

}  // namespace readys::serve
