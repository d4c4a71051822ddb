// Usage:
//   perfbench_harness context
//   perfbench_harness replay --campaign NAME --seed S
//   perfbench_harness serve-layers --batch FILE --mode cold|warm
//                                  --threads N --work DIR
//   perfbench_harness client --serve BIN --threads N --store DIR
//                            --window W --batch FILE --out FILE
//                            --stats-json FILE
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "campaign/runner.hpp"
#include "common/parse.hpp"
#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (!key.starts_with("--") || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got '" + key + "'");
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Args::get(const std::string& key) const {
  const auto found = values_.find(key);
  if (found == values_.end()) {
    throw std::invalid_argument("missing --" + key);
  }
  return found->second;
}

std::int64_t Args::get_int(const std::string& key) const {
  const std::optional<std::int64_t> value = dmfb::common::parse_int_in(
      get(key), 0, std::numeric_limits<std::int64_t>::max());
  if (!value) throw std::invalid_argument("--" + key + " needs an integer");
  return *value;
}

void JsonObject::key(const std::string& name) {
  if (!first_) body_ << ", ";
  first_ = false;
  body_ << '"' << name << "\": ";
}

namespace {

/// Round-trip exact: every digit of the measured value.
std::string json_number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

}  // namespace

JsonObject& JsonObject::num(const std::string& name, double value) {
  key(name);
  body_ << json_number(value);
  return *this;
}

JsonObject& JsonObject::integer(const std::string& name, std::int64_t value) {
  key(name);
  body_ << value;
  return *this;
}

JsonObject& JsonObject::str(const std::string& name,
                            const std::string& value) {
  key(name);
  body_ << '"';
  for (const char ch : value) {
    if (ch == '"' || ch == '\\') body_ << '\\';
    body_ << (ch == '\n' ? ' ' : ch);
  }
  body_ << '"';
  return *this;
}

JsonObject& JsonObject::raw(const std::string& name, const std::string& json) {
  key(name);
  body_ << json;
  return *this;
}

std::string json_array(const std::vector<std::int64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(values[i]);
  }
  return out + "]";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::invalid_argument("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(file, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

const DesignCache::Built& DesignCache::get(dmfb::campaign::Design design,
                                           std::int32_t min_primaries) {
  using dmfb::campaign::Design;
  const bool multiplexed = design == Design::kMultiplexed;
  Built& built = built_[{design, multiplexed ? 0 : min_primaries}];
  if (!built.design) {
    const Clock::time_point start = Clock::now();
    if (multiplexed) {
      built.workload = dmfb::sim::AssayWorkload::multiplexed();
      built.design = built.workload->design_ptr();
    } else {
      built.design = dmfb::sim::ChipDesign::make(
          dmfb::campaign::build_design_array(design, min_primaries));
    }
    builds_.add(elapsed_ns(start, Clock::now()));
  }
  return built;
}

namespace {

int context_main() {
#ifdef __VERSION__
  const std::string compiler = __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::cout << JsonObject()
                   .str("compiler", compiler)
                   .str("build_type", PERFBENCH_BUILD_TYPE)
                   .integer("optimized", optimized ? 1 : 0)
                   .integer("ndebug", ndebug ? 1 : 0)
                   .text()
            << '\n';
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  try {
    const perfbench::Args args(argc, argv, 2);
    if (command == "context") return perfbench::context_main();
    if (command == "replay") return perfbench::replay_main(args);
    if (command == "serve-layers") return perfbench::serve_layers_main(args);
    if (command == "client") return perfbench::client_main(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness " << command << ": " << error.what()
              << '\n';
    return 1;
  }
  std::cerr << "usage: perfbench_harness context|replay|serve-layers|client "
               "[--key value ...]\n";
  return 2;
}
