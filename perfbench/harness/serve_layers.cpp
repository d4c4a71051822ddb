// `serve-layers`: the serve path taken apart in-process for one request
// batch. It times parse_request and format_response per call, ResultStore
// load and store per record, runs serve::Server over the batch with and
// without an obs registry and trace recorder (the traced run's counters
// give the session, store and fault numbers), and in cold mode replays
// every computed query run by run (replay.cpp) against its stored answer.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/result_store.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace dmfb;
namespace fs = std::filesystem;

namespace {

/// In-process Server passes per mode, alternating untraced and traced.
constexpr int kColdPasses = 2;
constexpr int kWarmPasses = 10;

struct Served {
  double wall_s = 0.0;
  std::string output;
  obs::Snapshot snapshot;
};

Served serve_in_process(const std::string& batch, const fs::path& store_root,
                        std::int32_t threads, bool traced) {
  serve::ServerOptions options;
  options.threads = threads;
  options.store = std::make_shared<serve::ResultStore>(store_root);
  serve::Server server(options);
  std::istringstream in(batch);
  std::ostringstream out;
  obs::Registry registry;
  obs::TraceRecorder recorder;
  if (traced) {
    registry.install();
    recorder.install();
  }
  const Clock::time_point start = Clock::now();
  server.serve(in, out);
  const Clock::time_point end = Clock::now();
  Served served;
  if (traced) {
    recorder.uninstall();
    registry.uninstall();
    served.snapshot = registry.snapshot();
  }
  served.wall_s = elapsed_s(start, end);
  served.output = out.str();
  return served;
}

}  // namespace

int serve_layers_main(const Args& args) {
  const std::vector<std::string> lines = read_lines(args.get("batch"));
  const std::string mode = args.get("mode");
  if (mode != "cold" && mode != "warm") {
    throw std::invalid_argument("--mode must be cold or warm");
  }
  const bool cold = mode == "cold";
  const auto threads = static_cast<std::int32_t>(args.get_int("threads"));
  const fs::path work = args.get("work");
  fs::create_directories(work);
  std::string batch;
  for (const std::string& line : lines) batch += line + "\n";

  // -- protocol: parse every line, several times over -----------------------
  CallTimer parse;
  std::vector<serve::ServeRequest> requests;
  const std::size_t parse_reps = std::max<std::size_t>(1, 4000 / lines.size());
  for (std::size_t rep = 0; rep < parse_reps; ++rep) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      serve::ParsedRequest parsed = serve::parse_request(lines[i], i + 1);
      parse.add(elapsed_ns(t0, Clock::now()));
      if (!parsed.ok()) {
        throw std::invalid_argument("line " + std::to_string(i + 1) + ": " +
                                    parsed.error);
      }
      if (rep == 0) requests.push_back(std::move(*parsed.request));
    }
  }

  // -- the daemon core in-process, untraced and traced ----------------------
  const fs::path filled = work / "store";
  if (!cold) serve_in_process(batch, filled, threads, false);
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  Served traced;
  const int passes = cold ? kColdPasses : kWarmPasses;
  for (int pass = 0; pass < passes; ++pass) {
    const std::string tag = std::to_string(pass);
    if (cold) {
      untraced_s.push_back(
          serve_in_process(batch, work / ("u" + tag), threads, false).wall_s);
      fs::remove_all(work / ("u" + tag));
      fs::remove_all(filled);
      traced = serve_in_process(batch, filled, threads, true);
    } else {
      untraced_s.push_back(
          serve_in_process(batch, filled, threads, false).wall_s);
      traced = serve_in_process(batch, filled, threads, true);
    }
    traced_s.push_back(traced.wall_s);
  }
  std::ofstream(work / "inprocess_answers.jsonl", std::ios::binary)
      << traced.output;

  // -- store and format, per distinct record --------------------------------
  serve::ResultStore store(filled);
  serve::ResultStore probe(work / "write_probe");
  DesignCache designs;
  CallTimer load;
  CallTimer write;
  CallTimer format;
  std::int64_t record_bytes = 0;
  std::int64_t missing = 0;
  std::int64_t replayed = 0;
  std::int64_t mismatched = 0;
  LayerTimes times;
  std::set<std::string> seen;
  for (const serve::ServeRequest& request : requests) {
    const bool assay = request.workload == campaign::WorkloadKind::kAssay;
    const DesignCache::Built& built =
        designs.get(request.design, request.min_primaries);
    const sim::YieldQuery query = serve::query_of(request);
    const std::string key = sim::store_key(query, *built.design);
    const bool first = seen.insert(key).second;

    Clock::time_point t0 = Clock::now();
    const std::optional<std::string> payload = store.load(key);
    if (first) load.add(elapsed_ns(t0, Clock::now()));
    if (!payload) {
      ++missing;
      continue;
    }
    std::int32_t runs = 0;
    ReplayCounts stored;
    if (assay) {
      const auto estimate = sim::decode_operational(*payload);
      if (!estimate) throw std::runtime_error("undecodable record " + key);
      t0 = Clock::now();
      const std::string line = serve::format_response(request, *estimate);
      format.add(elapsed_ns(t0, Clock::now()));
      runs = static_cast<std::int32_t>(estimate->structural.runs);
      stored = {estimate->structural.successes,
                estimate->operational.successes};
    } else {
      const auto estimate = sim::decode_estimate(*payload);
      if (!estimate) throw std::runtime_error("undecodable record " + key);
      t0 = Clock::now();
      const std::string line = serve::format_response(request, *estimate);
      format.add(elapsed_ns(t0, Clock::now()));
      runs = static_cast<std::int32_t>(estimate->runs);
      stored = {estimate->successes, 0};
    }
    if (!first) continue;

    t0 = Clock::now();
    probe.store(key, *payload);
    write.add(elapsed_ns(t0, Clock::now()));
    record_bytes +=
        static_cast<std::int64_t>(fs::file_size(probe.path_of(key)));

    if (cold) {
      const ReplayCounts counts =
          assay ? replay_operational(query, built.workload, runs, times)
                : replay_structural(query, built.design, runs, times);
      ++replayed;
      if (counts.successes != stored.successes ||
          counts.op_successes != stored.op_successes) {
        ++mismatched;
      }
    }
  }

  const obs::Snapshot& snap = traced.snapshot;
  const auto counter = [&](obs::Metric metric) { return snap.counter(metric); };
  const auto histogram = [&](obs::Metric metric) {
    return snap.histogram(metric);
  };
  std::cout
      << JsonObject()
             .raw("untraced_s", json_array(untraced_s))
             .raw("traced_s", json_array(traced_s))
             .num("parse_us", parse.mean_ns() * 1e-3)
             .num("format_us", format.mean_ns() * 1e-3)
             .num("load_us", load.mean_ns() * 1e-3)
             .num("write_us", write.mean_ns() * 1e-3)
             .num("record_bytes",
                  write.calls == 0 ? 0.0
                                   : static_cast<double>(record_bytes) /
                                         static_cast<double>(write.calls))
             .num("design_build_ms", designs.builds().mean_ns() * 1e-6)
             .integer("records", write.calls)
             .integer("missing", missing)
             .integer("replayed", replayed)
             .integer("replay_mismatches", mismatched)
             .num("inject_ns", times.inject.mean_ns())
             .num("repair_ns", times.repair.mean_ns())
             .num("operational_run_ns", times.operational.mean_ns())
             .integer("route_ns_total", times.route_ns)
             .integer("operational_ns_total", times.operational.total_ns)
             .integer("queries", counter(obs::Metric::kSessionQueries))
             .integer("cache_hits", counter(obs::Metric::kSessionCacheHits))
             .integer("computed", counter(obs::Metric::kSessionComputed))
             .integer("session_store_hits",
                      counter(obs::Metric::kSessionStoreHits))
             .integer("store_hits", counter(obs::Metric::kStoreHits))
             .integer("store_misses", counter(obs::Metric::kStoreMisses))
             .integer("sim_runs", counter(obs::Metric::kSimRuns))
             .integer("cell_trials", counter(obs::Metric::kInjectCellTrials))
             .integer("cells_faulted",
                      counter(obs::Metric::kInjectCellsFaulted))
             .integer("diff_repairs", counter(obs::Metric::kIncDiffRepairs))
             .integer("full_rebuilds", counter(obs::Metric::kIncFullRebuilds))
             .integer("churn_bailouts",
                      counter(obs::Metric::kIncChurnBailouts))
             .num("query_ns", static_cast<double>(histogram(
                                  obs::Metric::kSessionQueryNs).mean_ns()))
             .num("plan_ns", static_cast<double>(histogram(
                                 obs::Metric::kReconfigPlanNs).mean_ns()))
             .num("schedule_ns", static_cast<double>(histogram(
                                     obs::Metric::kAssayScheduleNs).mean_ns()))
             .num("route_ns", static_cast<double>(
                                  histogram(obs::Metric::kRouteNs).mean_ns()))
             .text()
      << '\n';
  return 0;
}

}  // namespace perfbench
