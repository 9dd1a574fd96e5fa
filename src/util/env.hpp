#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace readys::util {

/// Whole-string number parses shared by the env readers below and the
/// command-line programs. "12x", "", an out-of-range value (a negative
/// one for the unsigned form) or a non-finite number throws
/// std::invalid_argument naming `name` ("tiles must be an integer, got
/// '12x'") instead of being truncated the way atoi/atof would.
int parse_int(const char* name, const std::string& text);
std::uint64_t parse_uint64(const char* name, const std::string& text);
double parse_double(const char* name, const std::string& text);

/// Reads an environment variable, falling back to `fallback` when it is
/// unset or empty. Any other value must parse whole ("12x" and "abc" are
/// errors, as is an out-of-range or non-finite number): a malformed value
/// throws std::invalid_argument naming the variable instead of being
/// silently truncated or ignored. Used by the benchmark harness so figure
/// reproductions can be scaled from smoke-test to paper-level budgets
/// without recompiling; RunConfig::from_env applies the same rule.
int env_int(const char* name, int fallback);
std::uint64_t env_uint64(const char* name, std::uint64_t fallback);
double env_double(const char* name, double fallback);
std::string env_string(const char* name, const std::string& fallback);

/// Parses a comma-separated list ("0,0.2,0.5") with the same strictness,
/// every element included; falls back when unset/empty.
std::vector<double> env_double_list(const char* name,
                                    const std::vector<double>& fallback);
std::vector<int> env_int_list(const char* name,
                              const std::vector<int>& fallback);

}  // namespace readys::util
