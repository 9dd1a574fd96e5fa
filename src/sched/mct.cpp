#include "sched/mct.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "obs/telemetry.hpp"

namespace readys::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Least expected completion of a d-long task over the resources a tree
/// node covers, rounded exactly as the scan rounds it: (avail + tail) + d,
/// where avail is now for an idle resource and the expected finish for a
/// busy one. Both roundings are monotone, so the least key gives the
/// least completion.
double least_completion(const double (&least)[2], double now, double d) {
  return std::min((now + least[0]) + d, least[1] + d);
}

}  // namespace

MctScheduler::MctScheduler(bool comm_aware) : comm_aware_(comm_aware) {}

void MctScheduler::reset(const sim::EngineView& engine) {
  slots_.assign(static_cast<std::size_t>(engine.platform().size()), Slot{});
  next_.assign(engine.graph().num_tasks(), kUnqueued);
  pending_.clear();
  proposed_.clear();
  cands_.clear();
  log_cursor_ = 0;
  for (const sim::ResourceId r : engine.resources()) slot(r).visible = 1;
  // All three conditions are properties of the input. With comm pricing
  // the completion gains a per-resource input delay, and with faults a
  // speed factor splits a type's duration column and resources change
  // idleness without completing anything: either breaks the trees' keys.
  // On a narrow platform the scan is cheaper than the trees' upkeep.
  use_trees_ = !comm_aware_ && !engine.fault_enabled() &&
               engine.resources().size() >= kTreeMinResources;
  if (use_trees_) build_trees(engine);
}

void MctScheduler::push(Slot& s, dag::TaskId t) {
  next_[t] = dag::kInvalidTask;
  if (s.last == dag::kInvalidTask) {
    s.head = t;
  } else {
    next_[s.last] = t;
  }
  s.last = t;
}

void MctScheduler::pop(Slot& s) {
  const dag::TaskId t = s.head;
  s.head = next_[t];
  if (s.head == dag::kInvalidTask) s.last = dag::kInvalidTask;
  next_[t] = kUnqueued;
}

void MctScheduler::build_trees(const sim::EngineView& engine) {
  // Leaves are the visible members of each type in ascending id order;
  // the state they start from is read from the engine, which may be
  // mid-episode (one_shot_mct resets onto a live engine).
  std::array<std::uint32_t, sim::kNumResourceTypes> members{};
  for (const sim::ResourceId r : engine.resources()) {
    ++members[static_cast<std::size_t>(engine.platform().type(r))];
  }
  std::uint32_t size = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    DurationClass& cls = classes_[c];
    cls.column = -1;
    cls.width = members[c] == 0 ? 0 : std::bit_ceil(members[c]);
    cls.base = size;
    size += 2 * cls.width;
    members[c] = 0;  // reused below as the next free leaf
  }
  nodes_.assign(size, Key{{kInf, kInf}, kInf, -1});
  for (const sim::ResourceId r : engine.resources()) {
    const auto c = static_cast<std::size_t>(engine.platform().type(r));
    DurationClass& cls = classes_[c];
    if (cls.column < 0) cls.column = r;
    Slot& s = slot(r);
    s.type = static_cast<std::uint8_t>(c);
    s.leaf = cls.width + members[c]++;
    nodes_[cls.base + s.leaf].r = r;
    rekey(engine, r);
  }
  freed_cursor_ = engine.freed_log().size();
  started_ = engine.ready_log().size() - engine.ready().size();
}

void MctScheduler::rekey(const sim::EngineView& engine, sim::ResourceId r) {
  Slot& s = slot(r);
  const double avail = engine.expected_available_at(r);
  s.busy = avail > engine.now() ? 1 : 0;
  s.finish = avail;
  refresh(r);
}

void MctScheduler::refresh(sim::ResourceId r) {
  const Slot& s = slot(r);
  Key* node = nodes_.data() + classes_[s.type].base;
  std::uint32_t i = s.leaf;
  node[i].least[0] = s.busy != 0 ? kInf : s.tail;
  node[i].least[1] = s.busy != 0 ? s.finish + s.tail : kInf;
  node[i].finish = s.busy != 0 ? s.finish : kInf;
  for (i >>= 1; i != 0; i >>= 1) {
    const Key& left = node[2 * i];
    const Key& right = node[2 * i + 1];
    node[i].least[0] = std::min(left.least[0], right.least[0]);
    node[i].least[1] = std::min(left.least[1], right.least[1]);
    node[i].finish = std::min(left.finish, right.finish);
  }
}

void MctScheduler::mark(Slot& s, sim::ResourceId r) {
  if (s.marked != 0) return;
  s.marked = 1;
  cands_.push_back(r);
}

bool MctScheduler::sync_trees(const sim::EngineView& engine) {
  // The trees hold what this scheduler knows: every proposal started
  // where it was proposed, and no one else started anything (a task
  // started behind our back would leave a stale queue entry, which the
  // scan drops and the trees would miss).
  for (const sim::Assignment& a : proposed_) {
    const bool started =
        engine.running_on(a.resource) == a.task ||
        (engine.is_done(a.task) && engine.producer_of(a.task) == a.resource);
    if (!started) return false;
  }
  started_ += proposed_.size();
  if (engine.ready_log().size() - engine.ready().size() != started_) {
    return false;
  }
  for (const sim::Assignment& a : proposed_) rekey(engine, a.resource);
  proposed_.clear();
  // A freed resource is keyed idle again and may pull its queue.
  const auto& freed = engine.freed_log();
  for (; freed_cursor_ < freed.size(); ++freed_cursor_) {
    const sim::ResourceId r = freed[freed_cursor_];
    Slot& s = slot(r);
    if (s.visible == 0) continue;
    rekey(engine, r);
    mark(s, r);
  }
  // A busy resource whose task ran past its expected finish is
  // available at now, not at that finish: key it idle.
  const double now = engine.now();
  for (const DurationClass& cls : classes_) {
    if (cls.width == 0) continue;
    const Key* node = nodes_.data() + cls.base;
    while (node[1].finish < now) {
      std::uint32_t i = 1;
      while (i < cls.width) {
        const double least = node[i].finish;
        i *= 2;
        i += node[i].finish != least;
      }
      slot(node[i].r).busy = 0;
      refresh(node[i].r);
    }
  }
  return true;
}

sim::ResourceId MctScheduler::best_resource(const sim::EngineView& engine,
                                            dag::TaskId t,
                                            double& duration) const {
  const double now = engine.now();
  std::array<double, sim::kNumResourceTypes> d{};
  std::array<double, sim::kNumResourceTypes> reach{};
  double best = kInf;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const DurationClass& cls = classes_[c];
    reach[c] = kInf;
    if (cls.width == 0) continue;
    d[c] = engine.expected_duration(t, cls.column);
    reach[c] = least_completion(nodes_[cls.base + 1].least, now, d[c]);
    best = std::min(best, reach[c]);
  }
  if (!(best < kInf)) return -1;  // the scan binds nothing either
  // Two different keys can round to the same completion, and the scan
  // keeps the lowest id among them. So descend to the leftmost leaf
  // whose completion is the best, in every class that reaches it.
  sim::ResourceId best_r = -1;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    if (reach[c] != best) continue;
    const DurationClass& cls = classes_[c];
    const Key* node = nodes_.data() + cls.base;
    std::uint32_t i = 1;
    while (i < cls.width) {
      i *= 2;
      if (least_completion(node[i].least, now, d[c]) > best) ++i;
    }
    if (best_r < 0 || node[i].r < best_r) {
      best_r = node[i].r;
      duration = d[c];
    }
  }
  return best_r;
}

void MctScheduler::bind_batch(const sim::EngineView& engine) {
  std::sort(batch_.begin(), batch_.end());
  // Candidate resources are the visible ones: the full view sees the
  // whole platform in ascending order (identical to the historical
  // 0..P-1 scan), a shard-scoped view sees only its own resources, so
  // the binding scan is O(P/K) per task under the cluster scheduler.
  const auto& res = engine.resources();
  // Running-task remainders are fixed for the whole scan; only the
  // queue tails move as tasks are bound. A down resource reports an
  // infinite availability, but is skipped outright so a fully-down
  // platform parks the batch instead of binding to garbage.
  if (!use_trees_) {
    avail_base_.resize(static_cast<std::size_t>(engine.platform().size()));
    for (const sim::ResourceId r : res) {
      avail_base_[static_cast<std::size_t>(r)] =
          engine.expected_available_at(r);
    }
  }
  for (dag::TaskId t : batch_) {
    if (queued(t) || !engine.is_ready(t)) continue;
    sim::ResourceId best_r = -1;
    double duration = 0.0;
    if (use_trees_) {
      best_r = best_resource(engine, t, duration);
    } else {
      double best = kInf;
      for (const sim::ResourceId r : res) {
        if (!engine.is_up(r)) continue;
        double completion = (avail_base_[static_cast<std::size_t>(r)] +
                             slot(r).tail) +
                            engine.expected_duration(t, r);
        if (comm_aware_) completion += engine.expected_input_delay(t, r);
        if (completion < best) {
          best = completion;
          best_r = r;
        }
      }
      if (best_r >= 0) duration = engine.expected_duration(t, best_r);
    }
    if (best_r < 0) {
      pending_.push_back(t);  // no resource up; retry next decision
      continue;
    }
    Slot& s = slot(best_r);
    push(s, t);
    s.tail += duration;
    if (use_trees_) {
      refresh(best_r);
      mark(s, best_r);
    }
  }
}

void MctScheduler::pull(const sim::EngineView& engine, sim::ResourceId r,
                        std::vector<sim::Assignment>& out) {
  Slot& s = slot(r);
  // Centrally a queued task stays ready until this scheduler starts
  // it, but under the cluster coordinator a task can be stolen and
  // run by another shard while it sits in our queue. Drop such stale
  // entries instead of proposing work that no longer exists.
  while (s.head != dag::kInvalidTask && !engine.is_ready(s.head)) {
    s.tail -= engine.expected_duration(s.head, r);
    pop(s);
  }
  if (s.head == dag::kInvalidTask) s.tail = 0.0;
  if (engine.is_idle(r) && s.head != dag::kInvalidTask) {
    out.push_back({s.head, r});
    s.tail -= engine.expected_duration(s.head, r);
    pop(s);  // a lost execution re-binds via the log
    if (s.head == dag::kInvalidTask) s.tail = 0.0;
  }
}

std::vector<sim::Assignment> MctScheduler::decide(
    const sim::EngineView& engine) {
  if (use_trees_ && !sync_trees(engine)) {
    use_trees_ = false;
    proposed_.clear();
  }
  batch_.clear();
  // Backlog stranded on a dead resource is drained and re-bound; a task
  // whose *execution* was lost re-enters via the ready log below.
  if (engine.fault_enabled()) {
    for (const sim::ResourceId r : engine.resources()) {
      Slot& s = slot(r);
      if (engine.is_up(r) || s.head == dag::kInvalidTask) continue;
      for (dag::TaskId t = s.head; t != dag::kInvalidTask;) {
        const dag::TaskId next = next_[t];
        next_[t] = kUnqueued;
        batch_.push_back(t);
        t = next;
      }
      s.head = s.last = dag::kInvalidTask;
      s.tail = 0.0;
    }
    if (!pending_.empty()) {
      batch_.insert(batch_.end(), pending_.begin(), pending_.end());
      pending_.clear();
    }
  }
  // Bind newly-ready tasks to their minimum-expected-completion resource.
  // Everything ready before log_cursor_ was bound by an earlier scan, so
  // only the new tail of the ready log needs work: O(new) per decision
  // instead of rescanning the whole ready set. Sorting the batch by id
  // reproduces the ascending-id binding order of a full ready() scan.
  const auto& log = engine.ready_log();
  if (log_cursor_ < log.size()) {
    batch_.insert(batch_.end(),
                  log.begin() + static_cast<std::ptrdiff_t>(log_cursor_),
                  log.end());
    log_cursor_ = log.size();
  }
  if (!batch_.empty()) bind_batch(engine);
  // Idle resources pull the head of their own queue, in ascending id
  // order. On the tree path only a resource freed since the last call or
  // bound to in this one can be idle with a non-empty queue: every other
  // idle resource had an empty queue when the last call ended.
  std::vector<sim::Assignment> out;
  if (use_trees_) {
    std::sort(cands_.begin(), cands_.end());
    for (const sim::ResourceId r : cands_) {
      slot(r).marked = 0;
      pull(engine, r, out);
    }
    cands_.clear();
    proposed_ = out;
  } else {
    for (const sim::ResourceId r : engine.resources()) pull(engine, r, out);
  }
  if (!out.empty()) {
    if (obs::Telemetry* t = obs::telemetry()) t->sched_decisions.add(out.size());
  }
  return out;
}

}  // namespace readys::sched
