#include "nn/serialize.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace readys::nn {

namespace {

constexpr const char* kMagic = "readys-weights v1";

std::string shape_str(std::size_t rows, std::size_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("deserialize_parameters: line " +
                           std::to_string(line_no) + ": " + what);
}

}  // namespace

std::string serialize_parameters(const Module& module) {
  std::string out = kMagic;
  out += '\n';
  std::size_t count = 0;
  // to_chars(general, 17) is %.17g, the text `<< setprecision(17)`
  // writes, without a stream's per-value locale and sentry cost.
  char buf[32];
  for (const auto& [name, var] : module.named_parameters()) {
    const Tensor& t = var.value();
    out += name + ' ' + std::to_string(t.rows()) + ' ' +
           std::to_string(t.cols()) + '\n';
    for (std::size_t i = 0; i < t.size(); ++i) {
      const auto res = std::to_chars(buf, buf + sizeof buf, t[i],
                                     std::chars_format::general, 17);
      out.append(buf, res.ptr);
      out += i + 1 == t.size() ? '\n' : ' ';
    }
    if (t.size() == 0) out += '\n';
    ++count;
  }
  out += "end " + std::to_string(count) + '\n';
  return out;
}

void deserialize_parameters(Module& module, const std::string& blob) {
  std::istringstream is(blob);
  std::string line;
  std::size_t line_no = 0;
  const auto next_line = [&](std::string& out) {
    if (!std::getline(is, out)) return false;
    ++line_no;
    return true;
  };

  // A blob not ending in '\n' is a torn tail: getline would happily
  // return the partial last line (e.g. "0.12" cut from "0.12345"), so
  // without this check some truncation offsets would parse "cleanly"
  // into wrong weights.
  if (blob.empty() || blob.back() != '\n') {
    fail(1, "missing final newline (truncated file?)");
  }
  if (!next_line(line) || line != kMagic) {
    fail(line_no == 0 ? 1 : line_no,
         "bad header '" + line + "' (expected '" + std::string(kMagic) + "')");
  }
  std::unordered_map<std::string, Tensor> entries;
  bool saw_end = false;
  while (next_line(line)) {
    if (line.empty()) continue;  // tolerate trailing blank lines
    if (line.rfind("end", 0) == 0 &&
        (line.size() == 3 || line[3] == ' ')) {
      std::istringstream trailer(line);
      std::string tag;
      std::size_t n = 0;
      std::string extra;
      if (!(trailer >> tag >> n) || (trailer >> extra)) {
        fail(line_no, "malformed 'end' trailer '" + line + "'");
      }
      if (n != entries.size()) {
        fail(line_no, "'end' trailer says " + std::to_string(n) +
                          " parameters, file carries " +
                          std::to_string(entries.size()) +
                          " (truncated file?)");
      }
      saw_end = true;
      while (next_line(line)) {
        if (!line.empty()) {
          fail(line_no, "content after 'end' trailer: '" + line + "'");
        }
      }
      break;
    }
    std::istringstream header(line);
    std::string name;
    std::size_t rows = 0;
    std::size_t cols = 0;
    if (!(header >> name >> rows >> cols)) {
      fail(line_no, "malformed parameter header '" + line +
                        "' (expected '<name> <rows> <cols>')");
    }
    if (entries.contains(name)) {
      fail(line_no, "duplicate parameter '" + name + "'");
    }
    Tensor t(rows, cols);
    const std::size_t header_line = line_no;
    if (t.size() > 0 && !next_line(line)) {
      fail(header_line, "missing data line for parameter '" + name + "' (" +
                            shape_str(rows, cols) + ")");
    }
    if (t.size() > 0) {
      std::istringstream data(line);
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (!(data >> t[i])) {
          fail(line_no, "truncated data for parameter '" + name +
                            "': expected " + std::to_string(t.size()) +
                            " values (" + shape_str(rows, cols) + "), found " +
                            std::to_string(i));
        }
      }
    } else {
      next_line(line);  // consume the empty data line, if present
    }
    entries.emplace(name, std::move(t));
  }
  if (!saw_end) {
    fail(line_no, "missing 'end' trailer (truncated file?)");
  }

  auto named = module.named_parameters();
  std::unordered_set<std::string> known;
  for (auto& [pname, var] : named) {
    known.insert(pname);
    auto it = entries.find(pname);
    if (it == entries.end()) {
      throw std::runtime_error(
          "deserialize_parameters: missing parameter '" + pname +
          "' (module expects " + shape_str(var.rows(), var.cols()) + ")");
    }
    if (!var.value().same_shape(it->second)) {
      throw std::runtime_error(
          "deserialize_parameters: shape mismatch for parameter '" + pname +
          "': module expects " + shape_str(var.rows(), var.cols()) +
          ", file has " +
          shape_str(it->second.rows(), it->second.cols()));
    }
  }
  for (const auto& [ename, t] : entries) {
    if (!known.contains(ename)) {
      throw std::runtime_error(
          "deserialize_parameters: file contains unknown parameter '" +
          ename + "' (" + shape_str(t.rows(), t.cols()) + ")");
    }
  }
  // All checks passed: apply. Deferred until here so a bad file cannot
  // leave the module half-overwritten.
  for (auto& [pname, var] : named) {
    var.mutable_value() = std::move(entries.at(pname));
  }
  module.bump_weight_version();
}

void save_parameters(const Module& module, const std::string& path) {
  // Crash-safe: write the full payload to <path>.tmp, then atomically
  // rename over <path>. A crash mid-write leaves at worst a stale .tmp
  // next to the previous complete file — never a truncated <path>.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      throw std::runtime_error("save_parameters: cannot open " + tmp);
    }
    out << serialize_parameters(module);
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw std::runtime_error("save_parameters: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("save_parameters: cannot rename " + tmp +
                             " to " + path);
  }
}

void load_parameters(Module& module, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_parameters: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  deserialize_parameters(module, buffer.str());
}

}  // namespace readys::nn
