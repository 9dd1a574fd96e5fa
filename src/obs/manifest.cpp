#include "obs/manifest.hpp"

#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/sink.hpp"

#ifndef READYS_BUILD_TYPE
#define READYS_BUILD_TYPE "unknown"
#endif
#ifndef READYS_SANITIZE_FLAGS
#define READYS_SANITIZE_FLAGS ""
#endif

namespace readys::obs {

namespace {

std::string iso8601_utc(std::chrono::system_clock::time_point tp) {
  const std::time_t t = std::chrono::system_clock::to_time_t(tp);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

RunManifest::RunManifest(std::string tool)
    : tool_(std::move(tool)), start_(std::chrono::system_clock::now()) {}

void RunManifest::set(const std::string& key, const std::string& value) {
  // Quoted in place: "\"" + json_escape(...) trips GCC 12's -Wrestrict
  // false positive inside libstdc++.
  std::string quoted = json_escape(value);
  quoted.insert(quoted.begin(), '"');
  quoted.push_back('"');
  config_.emplace_back(key, std::move(quoted));
}

void RunManifest::set(const std::string& key, const char* value) {
  set(key, std::string(value));
}

void RunManifest::set(const std::string& key, double value) {
  if (std::isfinite(value)) {
    std::ostringstream os;
    os.precision(15);
    os << value;
    config_.emplace_back(key, os.str());
  } else {
    config_.emplace_back(key, "null");
  }
}

void RunManifest::set(const std::string& key, std::int64_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void RunManifest::set(const std::string& key, int value) {
  config_.emplace_back(key, std::to_string(value));
}

void RunManifest::set(const std::string& key, bool value) {
  config_.emplace_back(key, value ? "true" : "false");
}

void RunManifest::set_raw(const std::string& key, const std::string& raw_json) {
  config_.emplace_back(key, raw_json);
}

void RunManifest::add_output(const std::string& path) {
  outputs_.push_back(path);
}

std::string RunManifest::to_json() const {
  JsonObject build;
  build.field("compiler", compiler_id())
      .field("cxx_standard", static_cast<std::int64_t>(__cplusplus))
      .field("build_type", READYS_BUILD_TYPE)
      .field("sanitizers", READYS_SANITIZE_FLAGS);

  JsonObject host;
  host.field("hardware_threads",
             static_cast<std::int64_t>(std::thread::hardware_concurrency()));

  std::ostringstream config;
  config << "{";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    if (i) config << ",";
    config << "\"" << json_escape(config_[i].first)
           << "\":" << config_[i].second;
  }
  config << "}";

  std::ostringstream outputs;
  outputs << "[";
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    if (i) outputs << ",";
    outputs << "\"" << json_escape(outputs_[i]) << "\"";
  }
  outputs << "]";

  JsonObject root;
  root.field("schema", "readys-manifest/1")
      .field("tool", tool_)
      .field("start_time", iso8601_utc(start_))
      .field("end_time", iso8601_utc(std::chrono::system_clock::now()))
      .raw("build", build.str())
      .raw("host", host.str())
      .raw("config", config.str())
      .raw("outputs", outputs.str());
  return root.str();
}

void RunManifest::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("RunManifest::write: cannot open " + path);
  }
  out << to_json() << '\n';
  out.flush();
  if (!out) {
    throw std::runtime_error("RunManifest::write: write failed for " + path);
  }
}

std::string RunManifest::sibling_path(const std::string& artifact_path) {
  return artifact_path + ".manifest.json";
}

}  // namespace readys::obs
