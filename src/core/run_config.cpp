#include "core/run_config.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "obs/sink.hpp"
#include "rl/inference.hpp"
#include "util/env.hpp"

namespace readys::core {
namespace {

/// Strict cursor over one JSON document. Anything the "readys-run/1"
/// schema does not produce — unknown keys, wrong value types, malformed
/// literals, trailing text — is a hard std::invalid_argument, never a
/// silent default: a config that round-trips is a config that was read
/// the way it was written.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          if (v >= 0x80) fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(v);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  /// A JSON number with a finite value. strtod alone would also take
  /// nan, inf, hex and a leading '+', and turn 1e999 into inf.
  double parse_number() {
    static const std::regex kJsonNumber(
        R"(-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
    skip_ws();
    const std::size_t start = pos_;
    pos_ = std::min(s_.find_first_not_of("+-.0123456789eE", start), s_.size());
    const std::string text = s_.substr(start, pos_ - start);
    if (!std::regex_match(text, kJsonNumber)) fail("expected a number");
    const double v = std::strtod(text.c_str(), nullptr);
    if (!std::isfinite(v)) fail("number out of range");
    return v;
  }

  /// Unsigned decimal literal, parsed as text so 64-bit seeds do not
  /// round through a double.
  std::uint64_t parse_uint64() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) fail("expected an unsigned integer");
    errno = 0;
    const unsigned long long v =
        std::strtoull(s_.c_str() + start, nullptr, 10);
    if (errno != 0) fail("unsigned integer out of range");
    return static_cast<std::uint64_t>(v);
  }

  bool parse_bool() {
    skip_ws();
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    fail("expected true or false");
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw std::invalid_argument("RunConfig: " + msg + " at offset " +
                                std::to_string(pos_));
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

int parse_int_field(JsonReader& r) {
  const double v = r.parse_number();
  if (v < static_cast<double>(INT_MIN) || v > static_cast<double>(INT_MAX) ||
      v != static_cast<double>(static_cast<int>(v))) {
    r.fail("expected an integer");
  }
  return static_cast<int>(v);
}

/// `on_field` is called with each key, cursor sitting on the value.
template <typename FieldFn>
void parse_object(JsonReader& r, FieldFn&& on_field) {
  r.expect('{');
  if (r.consume('}')) return;
  while (true) {
    const std::string key = r.parse_string();
    r.expect(':');
    on_field(key);
    if (r.consume(',')) continue;
    r.expect('}');
    return;
  }
}

void parse_agent(JsonReader& r, rl::AgentConfig& a) {
  parse_object(r, [&](const std::string& key) {
    if (key == "window") a.window = parse_int_field(r);
    else if (key == "gcn_layers") a.gcn_layers = parse_int_field(r);
    else if (key == "hidden") a.hidden = parse_int_field(r);
    else if (key == "lr") a.lr = r.parse_number();
    else if (key == "gamma") a.gamma = r.parse_number();
    else if (key == "entropy_beta") a.entropy_beta = r.parse_number();
    else if (key == "entropy_decay") a.entropy_decay = r.parse_bool();
    else if (key == "value_coef") a.value_coef = r.parse_number();
    else if (key == "unroll") a.unroll = parse_int_field(r);
    else if (key == "grad_clip") a.grad_clip = r.parse_number();
    else if (key == "normalize_advantage") a.normalize_advantage = r.parse_bool();
    else if (key == "squash_reward") a.squash_reward = r.parse_bool();
    else if (key == "reward_clip") a.reward_clip = r.parse_number();
    else if (key == "critic_sees_resources") a.critic_sees_resources = r.parse_bool();
    else if (key == "seed") a.seed = r.parse_uint64();
    else r.fail("unknown agent key \"" + key + "\"");
  });
}

}  // namespace

std::string RunConfig::to_json() const {
  obs::JsonObject agent_json;
  agent_json.field("window", agent.window)
      .field("gcn_layers", agent.gcn_layers)
      .field("hidden", agent.hidden)
      .field("lr", agent.lr)
      .field("gamma", agent.gamma)
      .field("entropy_beta", agent.entropy_beta)
      .field("entropy_decay", agent.entropy_decay)
      .field("value_coef", agent.value_coef)
      .field("unroll", agent.unroll)
      .field("grad_clip", agent.grad_clip)
      .field("normalize_advantage", agent.normalize_advantage)
      .field("squash_reward", agent.squash_reward)
      .field("reward_clip", agent.reward_clip)
      .field("critic_sees_resources", agent.critic_sees_resources)
      .field("seed", agent.seed);
  obs::JsonObject j;
  j.field("config", "readys-run/1")
      .field("app", app)
      .field("tiles", tiles)
      .field("ncpu", ncpu)
      .field("ngpu", ngpu)
      .field("sigma", sigma)
      .field("random_offer", random_offer)
      .field("comm_tile_bytes", comm_tile_bytes)
      .field("comm_bandwidth", comm_bandwidth)
      .field("comm_latency_ms", comm_latency_ms)
      .field("cluster_shards", cluster_shards)
      .field("cluster_stale_ms", cluster_stale_ms)
      .field("cluster_hb_ms", cluster_hb_ms)
      .field("cluster_parallel", cluster_parallel)
      .field("scheduler", scheduler)
      .field("trainer", trainer)
      .field("episodes", episodes)
      .field("num_envs", num_envs)
      .field("seed", seed)
      .field("checkpoint_dir", checkpoint_dir)
      .field("checkpoint_every", checkpoint_every)
      .field("checkpoint_retain", checkpoint_retain)
      .field("resume", resume)
      .field("divergence_patience", divergence_patience)
      .field("serve_sessions", serve_sessions)
      .field("serve_rate", serve_rate)
      .field("serve_queue", serve_queue)
      .field("serve_active", serve_active)
      .field("serve_workers", serve_workers)
      .field("serve_deadline_us", serve_deadline_us)
      .field("serve_retries", serve_retries)
      .field("serve_arrival", serve_arrival)
      .field("serve_burst_factor", serve_burst_factor)
      .field("serve_pareto_alpha", serve_pareto_alpha)
      .field("serve_tenant_rate", serve_tenant_rate)
      .field("serve_tenant_burst", serve_tenant_burst)
      .field("serve_restart_budget", serve_restart_budget)
      .field("serve_reload_watch", serve_reload_watch)
      .field("inference_backend", inference_backend)
      .raw("agent", agent_json.str());
  return j.str();
}

RunConfig RunConfig::from_json(const std::string& json) {
  RunConfig cfg;
  JsonReader r(json);
  parse_object(r, [&](const std::string& key) {
    if (key == "config") {
      const std::string v = r.parse_string();
      if (v != "readys-run/1") {
        r.fail("unsupported config schema \"" + v + "\"");
      }
    } else if (key == "app") cfg.app = r.parse_string();
    else if (key == "tiles") cfg.tiles = parse_int_field(r);
    else if (key == "ncpu") cfg.ncpu = parse_int_field(r);
    else if (key == "ngpu") cfg.ngpu = parse_int_field(r);
    else if (key == "sigma") cfg.sigma = r.parse_number();
    else if (key == "random_offer") cfg.random_offer = r.parse_bool();
    else if (key == "comm_tile_bytes") cfg.comm_tile_bytes = r.parse_number();
    else if (key == "comm_bandwidth") cfg.comm_bandwidth = r.parse_number();
    else if (key == "comm_latency_ms") cfg.comm_latency_ms = r.parse_number();
    else if (key == "cluster_shards") cfg.cluster_shards = parse_int_field(r);
    else if (key == "cluster_stale_ms") cfg.cluster_stale_ms = r.parse_number();
    else if (key == "cluster_hb_ms") cfg.cluster_hb_ms = r.parse_number();
    else if (key == "cluster_parallel") cfg.cluster_parallel = parse_int_field(r);
    else if (key == "scheduler") cfg.scheduler = r.parse_string();
    else if (key == "trainer") cfg.trainer = r.parse_string();
    else if (key == "episodes") cfg.episodes = parse_int_field(r);
    else if (key == "num_envs") cfg.num_envs = parse_int_field(r);
    else if (key == "seed") cfg.seed = r.parse_uint64();
    else if (key == "checkpoint_dir") cfg.checkpoint_dir = r.parse_string();
    else if (key == "checkpoint_every") cfg.checkpoint_every = parse_int_field(r);
    else if (key == "checkpoint_retain") cfg.checkpoint_retain = parse_int_field(r);
    else if (key == "resume") cfg.resume = r.parse_bool();
    else if (key == "divergence_patience") cfg.divergence_patience = parse_int_field(r);
    else if (key == "serve_sessions") cfg.serve_sessions = parse_int_field(r);
    else if (key == "serve_rate") cfg.serve_rate = r.parse_number();
    else if (key == "serve_queue") cfg.serve_queue = parse_int_field(r);
    else if (key == "serve_active") cfg.serve_active = parse_int_field(r);
    else if (key == "serve_workers") cfg.serve_workers = parse_int_field(r);
    else if (key == "serve_deadline_us") cfg.serve_deadline_us = r.parse_number();
    else if (key == "serve_retries") cfg.serve_retries = parse_int_field(r);
    else if (key == "serve_arrival") cfg.serve_arrival = r.parse_string();
    else if (key == "serve_burst_factor") cfg.serve_burst_factor = r.parse_number();
    else if (key == "serve_pareto_alpha") cfg.serve_pareto_alpha = r.parse_number();
    else if (key == "serve_tenant_rate") cfg.serve_tenant_rate = r.parse_number();
    else if (key == "serve_tenant_burst") cfg.serve_tenant_burst = r.parse_number();
    else if (key == "serve_restart_budget") cfg.serve_restart_budget = parse_int_field(r);
    else if (key == "serve_reload_watch") cfg.serve_reload_watch = r.parse_string();
    else if (key == "inference_backend") cfg.inference_backend = r.parse_string();
    else if (key == "agent") parse_agent(r, cfg.agent);
    else r.fail("unknown key \"" + key + "\"");
  });
  if (!r.at_end()) r.fail("trailing garbage after config object");
  return cfg;
}

RunConfig RunConfig::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("RunConfig: cannot read " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(buf.str());
}

RunConfig RunConfig::from_env() {
  RunConfig cfg;
  cfg.app = util::env_string("READYS_APP", cfg.app);
  cfg.tiles = util::env_int("READYS_TILES", cfg.tiles);
  cfg.ncpu = util::env_int("READYS_NCPU", cfg.ncpu);
  cfg.ngpu = util::env_int("READYS_NGPU", cfg.ngpu);
  cfg.sigma = util::env_double("READYS_SIGMA", cfg.sigma);
  cfg.episodes = util::env_int("READYS_TRAIN_EPISODES", cfg.episodes);
  cfg.num_envs = util::env_int("READYS_NUM_ENVS", cfg.num_envs);
  cfg.seed = util::env_uint64("READYS_SEED", cfg.seed);
  cfg.agent.hidden = util::env_int("READYS_HIDDEN", cfg.agent.hidden);
  cfg.serve_sessions =
      util::env_int("READYS_SERVE_SESSIONS", cfg.serve_sessions);
  cfg.serve_rate = util::env_double("READYS_SERVE_RATE", cfg.serve_rate);
  cfg.serve_queue = util::env_int("READYS_SERVE_QUEUE", cfg.serve_queue);
  cfg.serve_active = util::env_int("READYS_SERVE_ACTIVE", cfg.serve_active);
  cfg.serve_workers =
      util::env_int("READYS_SERVE_WORKERS", cfg.serve_workers);
  cfg.serve_deadline_us =
      util::env_double("READYS_SERVE_DEADLINE_US", cfg.serve_deadline_us);
  cfg.serve_retries =
      util::env_int("READYS_SERVE_RETRIES", cfg.serve_retries);
  cfg.serve_arrival =
      util::env_string("READYS_SERVE_ARRIVAL", cfg.serve_arrival);
  cfg.serve_burst_factor =
      util::env_double("READYS_SERVE_BURST_FACTOR", cfg.serve_burst_factor);
  cfg.serve_pareto_alpha =
      util::env_double("READYS_SERVE_PARETO_ALPHA", cfg.serve_pareto_alpha);
  cfg.serve_tenant_rate =
      util::env_double("READYS_SERVE_TENANT_RATE", cfg.serve_tenant_rate);
  cfg.serve_tenant_burst =
      util::env_double("READYS_SERVE_TENANT_BURST", cfg.serve_tenant_burst);
  cfg.serve_restart_budget =
      util::env_int("READYS_SERVE_RESTART_BUDGET", cfg.serve_restart_budget);
  cfg.serve_reload_watch =
      util::env_string("READYS_SERVE_RELOAD_WATCH", cfg.serve_reload_watch);
  cfg.inference_backend =
      util::env_string("READYS_INFERENCE_BACKEND", cfg.inference_backend);
  cfg.comm_tile_bytes =
      util::env_double("READYS_COMM_TILE_BYTES", cfg.comm_tile_bytes);
  cfg.comm_bandwidth =
      util::env_double("READYS_COMM_BANDWIDTH", cfg.comm_bandwidth);
  cfg.comm_latency_ms =
      util::env_double("READYS_COMM_LATENCY_MS", cfg.comm_latency_ms);
  cfg.cluster_shards =
      util::env_int("READYS_CLUSTER_SHARDS", cfg.cluster_shards);
  cfg.cluster_stale_ms =
      util::env_double("READYS_CLUSTER_STALE_MS", cfg.cluster_stale_ms);
  cfg.cluster_hb_ms =
      util::env_double("READYS_CLUSTER_HB_MS", cfg.cluster_hb_ms);
  cfg.cluster_parallel =
      util::env_int("READYS_CLUSTER_PARALLEL", cfg.cluster_parallel);
  return cfg;
}

void RunConfig::validate() const {
  parse_app(app);  // throws std::invalid_argument on unknown names
  if (trainer != "a2c" && trainer != "ppo") {
    throw std::invalid_argument("RunConfig: unknown trainer \"" + trainer +
                                "\" (known: a2c, ppo)");
  }
  if (scheduler.empty()) {
    throw std::invalid_argument("RunConfig: scheduler must be non-empty");
  }
  if (tiles < 1) throw std::invalid_argument("RunConfig: tiles must be >= 1");
  if (ncpu < 0 || ngpu < 0 || ncpu + ngpu < 1) {
    throw std::invalid_argument("RunConfig: need at least one resource");
  }
  if (!(sigma >= 0.0)) {
    throw std::invalid_argument("RunConfig: sigma must be >= 0");
  }
  if (episodes < 1) {
    throw std::invalid_argument("RunConfig: episodes must be >= 1");
  }
  if (num_envs < 1) {
    throw std::invalid_argument("RunConfig: num_envs must be >= 1");
  }
  if (checkpoint_every < 1) {
    throw std::invalid_argument("RunConfig: checkpoint_every must be >= 1");
  }
  if (checkpoint_retain < 1) {
    throw std::invalid_argument("RunConfig: checkpoint_retain must be >= 1");
  }
  if (serve_sessions < 0) {
    throw std::invalid_argument("RunConfig: serve_sessions must be >= 0");
  }
  if (!(serve_rate > 0.0)) {
    throw std::invalid_argument("RunConfig: serve_rate must be > 0");
  }
  if (serve_queue < 1) {
    throw std::invalid_argument("RunConfig: serve_queue must be >= 1");
  }
  if (serve_active < 1) {
    throw std::invalid_argument("RunConfig: serve_active must be >= 1");
  }
  if (serve_workers < 0) {
    throw std::invalid_argument("RunConfig: serve_workers must be >= 0");
  }
  if (!std::isfinite(serve_deadline_us)) {
    // Negative is meaningful (deadline disabled), as is literal zero
    // (every decision degrades to one-shot MCT); only NaN/inf are out.
    throw std::invalid_argument("RunConfig: serve_deadline_us must be finite");
  }
  if (serve_retries < 0) {
    throw std::invalid_argument("RunConfig: serve_retries must be >= 0");
  }
  if (serve_arrival != "poisson" && serve_arrival != "bursty" &&
      serve_arrival != "pareto") {
    throw std::invalid_argument(
        "RunConfig: serve_arrival must be poisson | bursty | pareto");
  }
  if (!(serve_burst_factor >= 1.0)) {
    throw std::invalid_argument(
        "RunConfig: serve_burst_factor must be >= 1");
  }
  if (!(serve_pareto_alpha > 1.0)) {
    throw std::invalid_argument(
        "RunConfig: serve_pareto_alpha must be > 1 (finite mean)");
  }
  if (!(serve_tenant_rate >= 0.0) || !(serve_tenant_burst >= 1.0)) {
    throw std::invalid_argument(
        "RunConfig: serve_tenant_rate must be >= 0 and serve_tenant_burst "
        ">= 1");
  }
  if (serve_restart_budget < 0) {
    throw std::invalid_argument(
        "RunConfig: serve_restart_budget must be >= 0");
  }
  try {
    (void)rl::parse_inference_backend(inference_backend);
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("RunConfig: ") + e.what());
  }
  if (!(comm_tile_bytes >= 0.0) || !(comm_bandwidth >= 0.0) ||
      !(comm_latency_ms >= 0.0)) {
    throw std::invalid_argument("RunConfig: comm_* fields must be >= 0");
  }
  if (comm_tile_bytes > 0.0 && !(comm_bandwidth > 0.0)) {
    throw std::invalid_argument(
        "RunConfig: comm_bandwidth must be > 0 when comm_tile_bytes > 0");
  }
  if (cluster_shards < 1) {
    throw std::invalid_argument("RunConfig: cluster_shards must be >= 1");
  }
  if (!(cluster_stale_ms >= 0.0)) {
    throw std::invalid_argument("RunConfig: cluster_stale_ms must be >= 0");
  }
  if (!(cluster_hb_ms > 0.0)) {
    throw std::invalid_argument("RunConfig: cluster_hb_ms must be > 0");
  }
  if (cluster_parallel < 0) {
    throw std::invalid_argument("RunConfig: cluster_parallel must be >= 0");
  }
  if (agent.window < 1 || agent.gcn_layers < 1 || agent.hidden < 1) {
    throw std::invalid_argument(
        "RunConfig: agent window/gcn_layers/hidden must be >= 1");
  }
}

rl::SchedulingEnv::Config RunConfig::env_config() const {
  rl::SchedulingEnv::Config ec;
  ec.sigma = sigma;
  ec.window = agent.window;
  ec.seed = seed;
  ec.random_offer = random_offer;
  return ec;
}

rl::TrainOptions RunConfig::train_options() const {
  rl::TrainOptions opts;
  opts.episodes = episodes;
  opts.sigma = sigma;
  opts.seed = seed;
  opts.checkpoint_dir = checkpoint_dir;
  opts.checkpoint_every = checkpoint_every;
  opts.checkpoint_retain = checkpoint_retain;
  opts.resume = resume;
  opts.divergence_patience = divergence_patience;
  return opts;
}

}  // namespace readys::core
