#include "util/env.hpp"

#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/csv.hpp"

namespace readys::util {

namespace {

const char* raw(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : nullptr;
}

[[noreturn]] void malformed(const char* name, const std::string& text,
                            const char* what) {
  throw std::invalid_argument(std::string(name) + " must be " + what +
                              ", got '" + text + "'");
}

template <typename T, typename Parse>
std::vector<T> parse_list(const char* name, const char* v, Parse parse) {
  std::vector<T> out;
  for (const auto& piece : split(v, ',')) out.push_back(parse(name, piece));
  return out;
}

}  // namespace

int parse_int(const char* name, const std::string& text) {
  const char* s = text.c_str();
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || parsed < INT_MIN ||
      parsed > INT_MAX) {
    malformed(name, text, "an integer");
  }
  return static_cast<int>(parsed);
}

std::uint64_t parse_uint64(const char* name, const std::string& text) {
  // from_chars, unlike strtoull, rejects a sign: "-1" must not wrap.
  const char* end = text.data() + text.size();
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end || text.empty()) {
    malformed(name, text, "a non-negative integer");
  }
  return parsed;
}

double parse_double(const char* name, const std::string& text) {
  const char* s = text.c_str();
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(parsed)) {
    malformed(name, text, "a number");
  }
  return parsed;
}

int env_int(const char* name, int fallback) {
  const char* v = raw(name);
  return v ? parse_int(name, v) : fallback;
}

std::uint64_t env_uint64(const char* name, std::uint64_t fallback) {
  const char* v = raw(name);
  return v ? parse_uint64(name, v) : fallback;
}

double env_double(const char* name, double fallback) {
  const char* v = raw(name);
  return v ? parse_double(name, v) : fallback;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = raw(name);
  return v ? std::string(v) : fallback;
}

std::vector<double> env_double_list(const char* name,
                                    const std::vector<double>& fallback) {
  const char* v = raw(name);
  return v ? parse_list<double>(name, v, parse_double) : fallback;
}

std::vector<int> env_int_list(const char* name,
                              const std::vector<int>& fallback) {
  const char* v = raw(name);
  return v ? parse_list<int>(name, v, parse_int) : fallback;
}

}  // namespace readys::util
