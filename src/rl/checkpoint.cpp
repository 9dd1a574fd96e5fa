#include "rl/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "util/crc32.hpp"
#include "util/logging.hpp"

namespace readys::rl {

namespace {

namespace fs = std::filesystem;

constexpr const char* kMagicV2 = "readys-ckpt/2";
constexpr const char* kMagicV1 = "readys-checkpoint v1";
constexpr const char* kFileNameV1 = "checkpoint.txt";
constexpr const char* kLatestName = "LATEST";
// Fixed-width footer: "crc32 " + 8 hex digits + '\n'. A fixed size makes
// truncation anywhere in the file detectable by construction — either
// the footer is gone or the CRC no longer matches.
constexpr std::size_t kFooterSize = 15;

testing_hooks::CheckpointWriteHook& write_hook() {
  static testing_hooks::CheckpointWriteHook hook;
  return hook;
}

void fire_hook(const char* phase, int index) {
  if (index >= 0 && write_hook()) write_hook()(phase, index);
}

std::string errno_text() { return std::strerror(errno); }

[[noreturn]] void parse_fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

/// Index encoded in a "checkpoint.<n>.txt" file name, or -1.
int parse_index(const std::string& filename) {
  constexpr const char* prefix = "checkpoint.";
  constexpr const char* suffix = ".txt";
  if (filename.size() <= std::strlen(prefix) + std::strlen(suffix) ||
      filename.rfind(prefix, 0) != 0 ||
      filename.substr(filename.size() - std::strlen(suffix)) != suffix) {
    return -1;
  }
  const std::string digits = filename.substr(
      std::strlen(prefix),
      filename.size() - std::strlen(prefix) - std::strlen(suffix));
  if (digits.empty()) return -1;
  for (const char c : digits) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return -1;
  }
  try {
    return std::stoi(digits);
  } catch (const std::exception&) {
    return -1;  // out of int range — not one of ours
  }
}

/// Retained checkpoint indices in `dir`, ascending. Missing dir -> empty.
std::vector<int> retained_indices(const std::string& dir) {
  std::vector<int> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const int idx = parse_index(entry.path().filename().string());
    if (idx >= 0) out.push_back(idx);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// write(2) loop with EINTR handling; errors surface the errno message
/// and the path (the satellite case: ENOSPC/EIO must not be silent).
void write_all(int fd, const char* p, std::size_t n, const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      const std::string msg = errno_text();
      ::close(fd);
      ::unlink((path + ".tmp").c_str());
      throw std::runtime_error("save_checkpoint: write failed for " + path +
                               ".tmp: " + msg);
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Durably writes `payload` to `path` via tmp + fsync + rename. When
/// `hook_index >= 0` the chaos hooks fire around the payload write.
void write_durable(const std::string& path, const std::string& payload,
                   int hook_index) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw std::runtime_error("save_checkpoint: cannot open " + tmp + ": " +
                             errno_text());
  }
  const std::size_t half = payload.size() / 2;
  write_all(fd, payload.data(), half, path);
  fire_hook("mid-write", hook_index);
  write_all(fd, payload.data() + half, payload.size() - half, path);
  if (::fsync(fd) != 0) {
    const std::string msg = errno_text();
    ::close(fd);
    ::unlink(tmp.c_str());
    throw std::runtime_error("save_checkpoint: fsync failed for " + tmp +
                             ": " + msg);
  }
  if (::close(fd) != 0) {  // close can surface deferred ENOSPC/EIO
    const std::string msg = errno_text();
    ::unlink(tmp.c_str());
    throw std::runtime_error("save_checkpoint: close failed for " + tmp +
                             ": " + msg);
  }
  fire_hook("pre-rename", hook_index);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string msg = errno_text();
    std::remove(tmp.c_str());
    throw std::runtime_error("save_checkpoint: cannot rename " + tmp +
                             " to " + path + ": " + msg);
  }
}

/// fsync on the directory makes the rename itself power-loss durable.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    throw std::runtime_error("save_checkpoint: cannot open directory " + dir +
                             " for fsync: " + errno_text());
  }
  if (::fsync(fd) != 0) {
    const std::string msg = errno_text();
    ::close(fd);
    throw std::runtime_error("save_checkpoint: fsync failed for directory " +
                             dir + ": " + msg);
  }
  ::close(fd);
}

/// Reads lines out of an in-memory blob, tracking the byte offset so the
/// weights payload can be taken as a substring after its marker line.
struct LineCursor {
  const std::string& s;
  std::size_t pos = 0;

  bool next(std::string& out) {
    if (pos >= s.size()) return false;
    const std::size_t nl = s.find('\n', pos);
    if (nl == std::string::npos) {
      out = s.substr(pos);
      pos = s.size();
    } else {
      out = s.substr(pos, nl - pos);
      pos = nl + 1;
    }
    return true;
  }
};

/// Parses "<key> <unsigned>" strictly.
std::uint64_t parse_u64_field(LineCursor& cur, const char* key) {
  std::string line;
  if (!cur.next(line)) parse_fail(std::string("missing '") + key + "' line");
  std::istringstream is(line);
  std::string got;
  std::uint64_t value = 0;
  std::string extra;
  if (!(is >> got >> value) || got != key || (is >> extra)) {
    parse_fail(std::string("malformed '") + key + "' line '" + line + "'");
  }
  return value;
}

/// Tries one candidate file; throws on any corruption, applies on success.
void load_file(const std::string& path, nn::Module& module,
               CheckpointData& data) {
  std::ifstream in(path, std::ios::binary);
  if (!in) parse_fail("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) parse_fail("cannot read " + path);
  deserialize_checkpoint(module, data, buffer.str());
}

}  // namespace

namespace testing_hooks {

void set_checkpoint_write_hook(CheckpointWriteHook hook) {
  write_hook() = std::move(hook);
}

}  // namespace testing_hooks

std::string checkpoint_path(const std::string& dir) {
  return (fs::path(dir) / kFileNameV1).string();
}

std::string checkpoint_file_path(const std::string& dir, int index) {
  return (fs::path(dir) / ("checkpoint." + std::to_string(index) + ".txt"))
      .string();
}

std::string latest_pointer_path(const std::string& dir) {
  return (fs::path(dir) / kLatestName).string();
}

std::string serialize_checkpoint(const nn::Module& module,
                                 const CheckpointData& data) {
  std::ostringstream os;
  os << kMagicV2 << '\n'
     << "trainer " << (data.trainer.empty() ? "-" : data.trainer) << '\n'
     << "episode " << data.progress.episode << '\n'
     << "updates " << data.progress.updates << '\n'
     << "skipped_updates " << data.progress.skipped_updates << '\n'
     << "rollbacks " << data.progress.rollbacks << '\n'
     << "divergent_streak " << data.progress.divergent_streak << '\n'
     << "env_seed " << data.env_seed << '\n'
     << "num_envs " << data.num_envs << '\n';
  os << "rngs " << data.rngs.size() << '\n';
  for (const auto& [name, st] : data.rngs) {
    os << "rng " << name;
    for (const std::uint64_t w : st) os << ' ' << w;
    os << '\n';
  }
  os << "optim " << data.optimizer.size() << '\n';
  for (const std::string& row : data.optimizer) os << row << '\n';
  os << "weights\n" << nn::serialize_parameters(module);
  const std::string body = os.str();
  char footer[32];
  std::snprintf(footer, sizeof(footer), "crc32 %08x\n",
                util::crc32(body));
  return body + footer;
}

void deserialize_checkpoint(nn::Module& module, CheckpointData& data,
                            const std::string& blob) {
  if (blob.size() < kFooterSize) parse_fail("truncated file (no footer)");
  const std::string footer = blob.substr(blob.size() - kFooterSize);
  if (footer.rfind("crc32 ", 0) != 0 || footer.back() != '\n') {
    parse_fail("missing crc32 footer (truncated or torn file)");
  }
  std::uint32_t stored = 0;
  {
    std::istringstream is(footer.substr(6, 8));
    is >> std::hex >> stored;
    if (is.fail()) parse_fail("malformed crc32 footer '" + footer + "'");
  }
  const std::string body = blob.substr(0, blob.size() - kFooterSize);
  const std::uint32_t actual = util::crc32(body);
  if (actual != stored) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "stored %08x, computed %08x", stored,
                  actual);
    parse_fail(std::string("crc32 mismatch (") + buf + ")");
  }

  LineCursor cur{body};
  std::string line;
  if (!cur.next(line)) parse_fail("empty file");
  if (line != kMagicV2) {
    if (line == kMagicV1) {
      parse_fail(std::string("found a legacy '") + kMagicV1 +
                 "' payload where a '" + kMagicV2 +
                 "' file was expected (v1 checkpoints are not supported)");
    }
    parse_fail("bad magic '" + line + "' (expected '" + kMagicV2 + "')");
  }

  CheckpointData parsed;
  {
    std::string trainer_line;
    if (!cur.next(trainer_line)) parse_fail("missing 'trainer' line");
    std::istringstream is(trainer_line);
    std::string key;
    std::string value;
    std::string extra;
    if (!(is >> key >> value) || key != "trainer" || (is >> extra)) {
      parse_fail("malformed 'trainer' line '" + trainer_line + "'");
    }
    parsed.trainer = value == "-" ? "" : value;
  }
  parsed.progress.episode =
      static_cast<int>(parse_u64_field(cur, "episode"));
  parsed.progress.updates =
      static_cast<std::size_t>(parse_u64_field(cur, "updates"));
  parsed.progress.skipped_updates =
      static_cast<std::size_t>(parse_u64_field(cur, "skipped_updates"));
  parsed.progress.rollbacks =
      static_cast<std::size_t>(parse_u64_field(cur, "rollbacks"));
  parsed.progress.divergent_streak =
      static_cast<int>(parse_u64_field(cur, "divergent_streak"));
  parsed.env_seed = parse_u64_field(cur, "env_seed");
  parsed.num_envs = static_cast<std::size_t>(parse_u64_field(cur, "num_envs"));

  const std::uint64_t num_rngs = parse_u64_field(cur, "rngs");
  for (std::uint64_t i = 0; i < num_rngs; ++i) {
    if (!cur.next(line)) parse_fail("missing rng line");
    std::istringstream is(line);
    std::string key;
    std::string name;
    if (!(is >> key >> name) || key != "rng") {
      parse_fail("malformed rng line '" + line + "'");
    }
    util::Rng::State st{};
    for (auto& w : st) {
      if (!(is >> w)) parse_fail("truncated rng state for stream '" + name +
                                 "'");
    }
    std::string extra;
    if (is >> extra) parse_fail("trailing rng state for stream '" + name + "'");
    parsed.rngs.emplace_back(name, st);
  }

  const std::uint64_t num_optim = parse_u64_field(cur, "optim");
  for (std::uint64_t i = 0; i < num_optim; ++i) {
    if (!cur.next(line)) parse_fail("missing optimizer row");
    parsed.optimizer.push_back(line);
  }

  if (!cur.next(line) || line != "weights") {
    parse_fail("missing 'weights' marker line");
  }
  // Validate the weights payload fully before touching module or data —
  // deserialize_parameters applies only after the whole payload checks
  // out, and it is the last fallible operation here.
  nn::deserialize_parameters(module, body.substr(cur.pos));
  data = std::move(parsed);
}

void save_checkpoint(const std::string& dir, const nn::Module& module,
                     const CheckpointData& data,
                     const CheckpointOptions& opts) {
  obs::Span span("rl/checkpoint_save", "train");
  if (obs::Telemetry* t = obs::telemetry()) t->checkpoint_writes.add();
  fs::create_directories(dir);

  // A kill mid-write leaves a stale *.tmp behind; it can never shadow a
  // complete checkpoint, but it should not accumulate either.
  {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".tmp") fs::remove(entry.path(), ec);
    }
  }

  const std::vector<int> existing = retained_indices(dir);
  const int next = existing.empty() ? 1 : existing.back() + 1;
  fire_hook("begin", next);

  const std::string path = checkpoint_file_path(dir, next);
  write_durable(path, serialize_checkpoint(module, data), next);
  fsync_dir(dir);
  fire_hook("post-rename", next);

  // The LATEST pointer flips atomically via the same tmp+rename dance; a
  // kill between the checkpoint rename and this flip is recovered by the
  // loader's newest-first directory scan.
  write_durable(latest_pointer_path(dir),
                fs::path(path).filename().string() + "\n", -1);
  fsync_dir(dir);

  const int retain = std::max(1, opts.retain);
  std::vector<int> indices = retained_indices(dir);
  if (static_cast<int>(indices.size()) > retain) {
    std::error_code ec;
    for (std::size_t i = 0; i + static_cast<std::size_t>(retain) <
                            indices.size();
         ++i) {
      fs::remove(checkpoint_file_path(dir, indices[i]), ec);
    }
  }
}

bool load_checkpoint(const std::string& dir, nn::Module& module,
                     CheckpointData& data) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return false;

  // Candidate order: the LATEST target first, then every other retained
  // file newest-first.
  std::vector<int> indices = retained_indices(dir);
  std::sort(indices.begin(), indices.end(), std::greater<int>());
  std::vector<std::string> candidates;
  {
    std::ifstream latest(latest_pointer_path(dir));
    std::string target;
    if (latest && std::getline(latest, target) && parse_index(target) >= 0 &&
        fs::exists(fs::path(dir) / target, ec)) {
      candidates.push_back((fs::path(dir) / target).string());
    }
  }
  for (const int idx : indices) {
    const std::string p = checkpoint_file_path(dir, idx);
    if (std::find(candidates.begin(), candidates.end(), p) ==
        candidates.end()) {
      candidates.push_back(p);
    }
  }

  std::vector<std::string> errors;
  for (const std::string& path : candidates) {
    try {
      load_file(path, module, data);
      if (!errors.empty()) {
        util::log_warn() << "load_checkpoint: fell back to " << path
                         << " after " << errors.size()
                         << " corrupt candidate(s): " << errors.front();
      }
      return true;
    } catch (const std::exception& e) {
      errors.push_back(path + ": " + e.what());
      if (obs::Telemetry* t = obs::telemetry()) t->ckpt_fallbacks.add();
    }
  }

  // A legacy v1 checkpoint.txt is never migrated and never ignored: a
  // resume that silently started from scratch would retrain from zero.
  const std::string v1_path = checkpoint_path(dir);
  if (fs::exists(v1_path, ec)) {
    std::ifstream in(v1_path, std::ios::binary);
    std::string magic;
    std::getline(in, magic);
    if (magic == kMagicV1) {
      errors.push_back(v1_path + ": legacy '" + kMagicV1 +
                       "' checkpoint; the v1 format is no longer supported "
                       "(resume needs a '" + kMagicV2 +
                       "' checkpoint.<n>.txt; retrain to write one)");
    } else {
      errors.push_back(v1_path + ": bad magic (neither legacy '" + kMagicV1 +
                       "' nor '" + kMagicV2 + "')");
    }
  }

  if (errors.empty() && candidates.empty()) {
    return false;  // nothing checkpoint-shaped at all
  }
  std::string joined;
  for (const std::string& e : errors) {
    if (!joined.empty()) joined += "; ";
    joined += e;
  }
  throw std::runtime_error(
      "load_checkpoint: checkpoint files exist in " + dir +
      " but none is valid: " + joined);
}

void apply_checkpoint_to_trainer(const CheckpointData& data,
                                 const std::string& trainer,
                                 std::uint64_t env_seed, std::size_t num_envs,
                                 nn::Optimizer& optimizer,
                                 util::Rng& sample_rng) {
  if (data.trainer != trainer) {
    throw std::runtime_error(
        "apply_checkpoint_to_trainer: checkpoint was written by '" +
        data.trainer + "', refusing to resume a '" + trainer + "' run");
  }
  if (data.env_seed != env_seed) {
    util::log_warn() << "resume: checkpoint seed " << data.env_seed
                     << " differs from this run's seed " << env_seed
                     << "; training continues but is not bit-identical to "
                        "the original run";
  }
  if (data.num_envs != num_envs) {
    util::log_warn() << "resume: checkpoint was written with num_envs="
                     << data.num_envs << ", this run uses num_envs="
                     << num_envs << "; episode batching (and thus the "
                     << "update sequence) will differ";
  }
  bool found_sample = false;
  for (const auto& [name, st] : data.rngs) {
    if (name == "sample") {
      sample_rng.set_state(st);
      found_sample = true;
    }
  }
  if (!found_sample) {
    util::log_warn() << "resume: checkpoint carries no 'sample' RNG stream; "
                        "action sampling restarts from the seed";
  }
  if (data.optimizer.empty()) {
    util::log_warn() << "resume: checkpoint carries no optimizer state; "
                        "moment estimates restart from zero";
  } else {
    optimizer.load_state_rows(data.optimizer);
  }
}

}  // namespace readys::rl
