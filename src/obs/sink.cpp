#include "obs/sink.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "obs/telemetry.hpp"

namespace readys::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::ostringstream& JsonObject::key(const std::string& k) {
  if (!first_) os_ << ",";
  first_ = false;
  os_ << "\"" << json_escape(k) << "\":";
  return os_;
}

JsonObject& JsonObject::field(const std::string& k, const std::string& v) {
  key(k) << "\"" << json_escape(v) << "\"";
  return *this;
}

JsonObject& JsonObject::field(const std::string& k, const char* v) {
  return field(k, std::string(v));
}

JsonObject& JsonObject::field(const std::string& k, double v) {
  if (std::isfinite(v)) {
    key(k) << v;
  } else {
    key(k) << "null";
  }
  return *this;
}

JsonObject& JsonObject::field(const std::string& k, std::int64_t v) {
  key(k) << v;
  return *this;
}

JsonObject& JsonObject::field(const std::string& k, std::uint64_t v) {
  key(k) << v;
  return *this;
}

JsonObject& JsonObject::field(const std::string& k, int v) {
  key(k) << v;
  return *this;
}

JsonObject& JsonObject::field(const std::string& k, bool v) {
  key(k) << (v ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& raw_json) {
  key(k) << raw_json;
  return *this;
}

std::string JsonObject::str() const {
  // Built in place: "{" + os_.str() trips GCC 12's -Wrestrict false
  // positive inside libstdc++.
  std::string out = os_.str();
  out.insert(out.begin(), '{');
  out.push_back('}');
  return out;
}

JsonlSink::JsonlSink(std::string path, int flush_every)
    : path_(std::move(path)),
      flush_every_(flush_every < 1 ? 1 : flush_every),
      out_(path_, std::ios::trunc) {
  if (!out_) {
    throw std::runtime_error("JsonlSink: cannot open " + path_);
  }
}

JsonlSink::~JsonlSink() {
  std::lock_guard lock(mutex_);
  errno = 0;
  out_.flush();
  if (!out_) record_failure("final flush", /*may_throw=*/false);
}

void JsonlSink::write(const std::string& json_object) {
  std::lock_guard lock(mutex_);
  errno = 0;
  out_ << json_object << '\n';
  ++rows_;
  if (++since_flush_ >= flush_every_) {
    out_.flush();
    since_flush_ = 0;
  }
  if (!out_) record_failure("write", /*may_throw=*/true);
}

void JsonlSink::flush() {
  std::lock_guard lock(mutex_);
  errno = 0;
  out_.flush();
  since_flush_ = 0;
  if (!out_) record_failure("flush", /*may_throw=*/true);
}

std::uint64_t JsonlSink::rows() const noexcept {
  std::lock_guard lock(mutex_);
  return rows_;
}

std::uint64_t JsonlSink::write_errors() const noexcept {
  std::lock_guard lock(mutex_);
  return write_errors_;
}

void JsonlSink::record_failure(const char* what, bool may_throw) {
  ++write_errors_;
  // The telemetry sink and this sink can be the same object; the counter
  // is lock-free so re-entry is safe, and counting drops even for our own
  // metrics file is exactly the point of obs.sink_errors.
  if (Telemetry* t = telemetry()) t->sink_errors.add(1);
  const int err = errno;
  // Clear the stream fault so later rows can still try: one full disk
  // should not permanently wedge an otherwise recoverable sink.
  out_.clear();
  if (!may_throw) return;
  std::string msg = "JsonlSink: " + std::string(what) + " failed for " +
                    path_ + ": " +
                    (err != 0 ? std::strerror(err) : "short write");
  throw std::runtime_error(msg);
}

}  // namespace readys::obs
