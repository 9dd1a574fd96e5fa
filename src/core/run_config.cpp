#include "core/run_config.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <type_traits>

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
    const std::string where = field.empty() ? "" : " for \"" + field + "\"";
    throw std::invalid_argument("RunConfig: " + msg + where + " at offset " +
                                std::to_string(pos_));
  }

  /// The field whose value is being parsed, named by fail(); "" between
  /// values.
  std::string field;

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

// One overload per member type: a JSON value, and the text of an env
// variable or a CLI flag value (`name` is what errors name).
void read_json(JsonReader& r, int& v) { v = parse_int_field(r); }
void read_json(JsonReader& r, std::uint64_t& v) { v = r.parse_uint64(); }
void read_json(JsonReader& r, double& v) { v = r.parse_number(); }
void read_json(JsonReader& r, bool& v) { v = r.parse_bool(); }
void read_json(JsonReader& r, std::string& v) { v = r.parse_string(); }

void read_text(const char* name, const char* text, int& v) {
  v = util::parse_int(name, text);
}
void read_text(const char* name, const char* text, std::uint64_t& v) {
  v = util::parse_uint64(name, text);
}
void read_text(const char* name, const char* text, double& v) {
  v = util::parse_double(name, text);
}
void read_text(const char*, const char* text, std::string& v) { v = text; }

template <typename T>
constexpr bool is_bool = std::is_same_v<std::remove_cvref_t<T>, bool>;

/// Parses the value under `key` into the row of that key in the agent
/// section or the top level; false when there is no such row.
bool read_field(JsonReader& r, RunConfig& cfg, const std::string& key,
                bool agent) {
  bool found = false;
  for_each_field(cfg, [&](const Field& f, auto& member) {
    if (found || f.agent != agent || key != f.key) return;
    found = true;
    r.field = f.name();
    read_json(r, member);
    r.field.clear();
  });
  return found;
}

void check_bound(const Field& f, double v) {
  const Bound& b = f.bound;
  if (b.kind == Bound::kNone || (b.kind == Bound::kAtLeast && v >= b.min) ||
      (b.kind == Bound::kAbove && v > b.min) ||
      (b.kind == Bound::kFinite && std::isfinite(v))) {
    return;
  }
  std::ostringstream msg;
  msg << "RunConfig: " << f.name() << " must be ";
  if (b.kind == Bound::kFinite) {
    msg << "finite";
  } else {
    msg << (b.kind == Bound::kAtLeast ? ">= " : "> ") << b.min;
  }
  throw std::invalid_argument(msg.str());
}

}  // namespace

std::string RunConfig::to_json() const {
  obs::JsonObject j;
  obs::JsonObject agent_json;
  j.field("config", "readys-run/1");
  for_each_field(*this, [&](const Field& f, const auto& member) {
    (f.agent ? agent_json : j).field(f.key, member);
  });
  return j.raw("agent", agent_json.str()).str();
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
    } else if (key == "agent") {
      parse_object(r, [&](const std::string& agent_key) {
        if (!read_field(r, cfg, agent_key, true)) {
          r.fail("unknown agent key \"" + agent_key + "\"");
        }
      });
    } else if (!read_field(r, cfg, key, false)) {
      r.fail("unknown key \"" + key + "\"");
    }
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

RunConfig RunConfig::from_env(RunConfig base) {
  for_each_field(base, [](const Field& f, auto& member) {
    if constexpr (!is_bool<decltype(member)>) {  // no bool has a variable
      const char* text = f.env != nullptr ? std::getenv(f.env) : nullptr;
      if (text != nullptr && *text != '\0') read_text(f.env, text, member);
    }
  });
  return base;
}

int RunConfig::apply_flag(Subcommand cmd, int argc, const char* const* args) {
  int used = 0;
  for_each_field(*this, [&](const Field& f, auto& member) {
    if (used > 0 || f.flag == nullptr || (f.commands & cmd) == 0 ||
        std::strcmp(args[0], f.flag) != 0) {
      return;
    }
    if constexpr (is_bool<decltype(member)>) {
      member = true;
      used = 1;
    } else {
      if (argc < 2) {
        throw std::invalid_argument(std::string(f.flag) + " needs a value");
      }
      read_text(f.flag, args[1], member);
      used = 2;
    }
  });
  return used;
}

void RunConfig::validate() const {
  for_each_field(*this, [](const Field& f, const auto& member) {
    if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(member)>>) {
      check_bound(f, static_cast<double>(member));
    }
  });
  parse_app(app);  // throws std::invalid_argument on unknown names
  if (trainer != "a2c" && trainer != "ppo") {
    throw std::invalid_argument("RunConfig: unknown trainer \"" + trainer +
                                "\" (known: a2c, ppo)");
  }
  if (scheduler.empty()) {
    throw std::invalid_argument("RunConfig: scheduler must be non-empty");
  }
  if (ncpu == 0 && ngpu == 0) {
    throw std::invalid_argument("RunConfig: need at least one resource");
  }
  if (serve_arrival != "poisson" && serve_arrival != "bursty" &&
      serve_arrival != "pareto") {
    throw std::invalid_argument(
        "RunConfig: serve_arrival must be poisson | bursty | pareto");
  }
  try {
    (void)rl::parse_inference_backend(inference_backend);
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("RunConfig: ") + e.what());
  }
  if (comm_tile_bytes > 0.0 && !(comm_bandwidth > 0.0)) {
    throw std::invalid_argument(
        "RunConfig: comm_bandwidth must be > 0 when comm_tile_bytes > 0");
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
