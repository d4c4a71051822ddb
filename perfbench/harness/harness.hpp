// perfbench_harness: the benchmark's own C++ side. It times calls into the
// public functions of each module (sim, fault, serve) from outside src/,
// and drives dmfb_serve as a closed-loop client. Every subcommand prints one
// flat JSON object on stdout; perfbench/run.py reads it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "sim/assay_workload.hpp"
#include "sim/chip_design.hpp"
#include "sim/session.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

inline double elapsed_s(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Total time and count of one kind of timed call.
struct CallTimer {
  std::int64_t total_ns = 0;
  std::int64_t calls = 0;
  void add(std::int64_t ns) {
    total_ns += ns;
    ++calls;
  }
  double mean_ns() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(calls);
  }
};

/// `--key value` arguments of one subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string get(const std::string& key) const;  // throws when missing
  std::int64_t get_int(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// One flat JSON object, written field by field.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::int64_t value);
  JsonObject& str(const std::string& key, const std::string& value);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string text() const { return "{" + body_.str() + "}"; }

 private:
  void key(const std::string& name);
  std::ostringstream body_;
  bool first_ = true;
};

std::string json_array(const std::vector<std::int64_t>& values);
std::string json_array(const std::vector<double>& values);

/// Non-empty lines of a text file.
std::vector<std::string> read_lines(const std::string& path);

/// Chips keyed by (design, min_primaries), built on first use the way
/// serve::Server builds its sessions (the multiplexed chip always with its
/// assay workload), each build timed.
class DesignCache {
 public:
  struct Built {
    std::shared_ptr<const dmfb::sim::ChipDesign> design;
    std::shared_ptr<const dmfb::sim::AssayWorkload> workload;
  };
  const Built& get(dmfb::campaign::Design design, std::int32_t min_primaries);
  const CallTimer& builds() const { return builds_; }

 private:
  std::map<std::pair<dmfb::campaign::Design, std::int32_t>, Built> built_;
  CallTimer builds_;
};

/// Per-call timings of the Monte-Carlo layers, accumulated over replays.
struct LayerTimes {
  CallTimer inject;       ///< sim::inject / sim::inject_v2
  CallTimer repair;       ///< FaultState::repairable(_incremental)
  CallTimer operational;  ///< OperationalState::evaluate
  std::int64_t route_ns = 0;  ///< obs fluidics.route_ns sum over evaluate
};

/// Success counts of one replayed query.
struct ReplayCounts {
  std::int64_t successes = 0;     ///< structurally repairable runs
  std::int64_t op_successes = 0;  ///< operational runs (assay queries only)
};

/// Replays runs [0, runs) of a structural query run by run, timing each
/// injection and repair call. Same draws and verdicts as sim::Session.
ReplayCounts replay_structural(
    const dmfb::sim::YieldQuery& query,
    std::shared_ptr<const dmfb::sim::ChipDesign> design, std::int32_t runs,
    LayerTimes& times);

/// Replays runs [0, runs) of an operational (assay) query, timing each
/// injection and evaluate call; the route share comes from the obs
/// histogram recorded inside evaluate.
ReplayCounts replay_operational(
    const dmfb::sim::YieldQuery& query,
    std::shared_ptr<const dmfb::sim::AssayWorkload> workload,
    std::int32_t runs, LayerTimes& times);

int replay_main(const Args& args);
int serve_layers_main(const Args& args);
int client_main(const Args& args);

}  // namespace perfbench
