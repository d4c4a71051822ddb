// sim::AssayWorkload — immutable operational workload for the session engine.
//
// Structural yield (Session's original metric) stops at repairability: a run
// succeeds iff the matching covers the faulty primaries. The paper's second
// half (Figs. 12-13) cares about what happens *after* repair: a multiplexed
// bioassay keeps running on the reconfigured array, and yield only counts if
// the remapped schedule still completes. AssayWorkload freezes everything
// that question needs — a pre-compiled sequencing graph, the placed fluidic
// modules (dispense ports, mixers, detectors) on a ChipDesign, and the
// healthy-array baseline completion time — behind a shared_ptr that any
// number of sessions and worker threads read concurrently, exactly like
// ChipDesign itself.
//
// The per-run operational kernel (OperationalState::evaluate) is the first
// place the top and bottom halves of the codebase meet in one Monte-Carlo
// loop: it builds the reconfig::ReconfigPlan for the drawn fault set,
// applies it to the module placement (a faulty module cell survives iff the
// plan hands its duty to an adjacent replacement), re-schedules the assay
// with assay::ListScheduler on the surviving resource pool, and re-routes
// the droplet transports over the repaired array (activated replacement
// spares included). A run is operationally successful iff every resource
// class the graph needs keeps >= 1 instance, the degraded schedule exists,
// and every droplet transport still routes; its completion time is the
// degraded makespan plus the routed transport overhead, so "slowdown" =
// completion / healthy-baseline-completion.
//
// The plan comes from FaultState::plan: the design's pre-built matching
// skeleton filtered by the fault words into a reused CSR graph. Its vertex
// and edge order is the one reconfig::LocalReconfigurer builds, so its
// Hopcroft-Karp pairs are the spares the legacy reconfigurer picks under
// kHopcroftKarp, whatever engine the query names.
//
// Only transport hop counts enter the completion time, and a shortest-path
// length does not depend on how a search breaks ties, so the kernel never
// materialises routes. A fluidics::HopBoard (the healthy design's usable
// cells as a bitboard) takes the run's faults and plan spares, and each
// BFS wave answers every pending transport that shares its start cell:
// hop counts are symmetric, so the transports are grouped by endpoint and
// the busiest endpoint goes first (one wave per mixer anchor on the
// multiplexed assay). The degraded schedule is a pure function of the
// surviving (ports, mixers, detectors) pool, so each OperationalState
// memoises it per pool — at most (P+1)(M+1)(D+1) entries of the full pool,
// filled on first use.
//
// Everything in the kernel is a deterministic function of the drawn fault
// set, so operational estimates inherit the session's thread-count
// invariance bit-for-bit (pinned by tests/test_sim_operational.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "assay/list_scheduler.hpp"
#include "assay/sequencing_graph.hpp"
#include "fluidics/hop_board.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/chip_design.hpp"
#include "sim/fault_state.hpp"

namespace dmfb::sim {

/// Droplet transport speed: one electrode hop per actuation period (10 Hz
/// electrowetting switching, the standard DMFB figure). Converts routed hop
/// counts into the seconds added on top of the schedule makespan.
inline constexpr double kTransportSecondsPerHop = 0.1;

/// One placed fluidic module of the workload. `cells` are primary cells of
/// the design (offset order); cells[0] is the droplet anchor the router
/// uses as the module's transport endpoint.
struct WorkloadModule {
  enum class Kind : std::uint8_t { kPort, kMixer, kDetector };

  Kind kind = Kind::kMixer;
  std::vector<CellIndex> cells;
};

const char* to_string(WorkloadModule::Kind kind) noexcept;

class AssayWorkload {
 public:
  /// Compiles a workload: validates that every module cell is a primary
  /// cell of `design`, that every resource class `graph` uses has >= 1
  /// module, and that the healthy-array baseline (full-pool schedule +
  /// all transports routed) is feasible; the baseline completion time is
  /// frozen into the workload. Throws ContractViolation otherwise.
  static std::shared_ptr<const AssayWorkload> make(
      std::shared_ptr<const ChipDesign> design, assay::SequencingGraph graph,
      std::vector<WorkloadModule> modules);

  /// The paper's Section-7 workload: the multiplexed in-vitro diagnostics
  /// chip (252 primaries + 91 spares, 108 assay-used cells) carrying the
  /// 2 samples x 2 reagents sequencing graph, with the chains' dispense
  /// ports, mixers and detectors as the placed modules.
  static std::shared_ptr<const AssayWorkload> multiplexed();

  const ChipDesign& design() const noexcept { return *design_; }
  std::shared_ptr<const ChipDesign> design_ptr() const noexcept {
    return design_;
  }
  const assay::SequencingGraph& graph() const noexcept { return graph_; }
  std::span<const WorkloadModule> modules() const noexcept { return modules_; }

  /// Full (healthy-array) resource pool: one instance per placed module.
  const assay::ResourcePool& full_pool() const noexcept { return full_pool_; }

  /// Healthy-array completion time (full-pool makespan + routed transport
  /// overhead) — the denominator of every per-run slowdown ratio.
  double baseline_completion_s() const noexcept {
    return baseline_completion_s_;
  }

 private:
  AssayWorkload(std::shared_ptr<const ChipDesign> design,
                assay::SequencingGraph graph,
                std::vector<WorkloadModule> modules);

  std::shared_ptr<const ChipDesign> design_;
  assay::SequencingGraph graph_;
  std::vector<WorkloadModule> modules_;
  assay::ResourcePool full_pool_;
  double baseline_completion_s_ = 0.0;

  friend class OperationalState;
};

/// One Monte-Carlo draw evaluated operationally.
struct OperationalRun {
  bool structural = false;   ///< the reconfiguration plan covered the faults
  bool operational = false;  ///< the remapped assay still completes
  /// Degraded completion time and its ratio to the healthy baseline; valid
  /// only when `operational`.
  double completion_s = 0.0;
  double slowdown = 0.0;
};

/// Per-thread operational scratch: a FaultState for the injectors, the
/// reused repair plan and hop board, and the kernel's reusable tables
/// (dense plan lookup, transport grouping, schedule memo). Not thread-safe;
/// use one per worker (mirrors FaultState's contract). Not copyable.
class OperationalState {
 public:
  explicit OperationalState(std::shared_ptr<const AssayWorkload> workload);
  OperationalState(const OperationalState&) = delete;
  OperationalState& operator=(const OperationalState&) = delete;

  const AssayWorkload& workload() const noexcept { return *workload_; }

  /// The fault bitmap sim::inject writes into.
  FaultState& faults() noexcept { return faults_; }

  /// Evaluates the current fault set: plan -> surviving modules ->
  /// re-schedule -> re-route. Leaves the fault set untouched (call reset()
  /// between runs, as with FaultState). The plan always comes from
  /// FaultState::plan's Hopcroft-Karp pairs; `engine` changes nothing and
  /// the parameter stays for existing callers.
  OperationalRun evaluate(reconfig::CoveragePolicy policy,
                          graph::MatchingEngine engine,
                          reconfig::ReplacementPool pool);

  /// Clears the fault bitmap in O(#faults).
  void reset() noexcept { faults_.reset(); }

 private:
  /// One droplet transport between two op anchors.
  struct Transport {
    CellIndex from = hex::kInvalidCell;
    CellIndex to = hex::kInvalidCell;
  };

  /// Completion time of the assay under the current faults repaired by
  /// `plan`, or nullopt when it cannot complete. Deterministic in (faults,
  /// plan); leaves the kernel tables and the hop board as it found them.
  std::optional<double> run_assay(const reconfig::ReconfigPlan& plan);
  /// run_assay's body, with `replacement_` and `board_` holding the plan.
  std::optional<double> remapped_completion();
  /// Total hops of `transports_`, or nullopt when one is severed. Empties
  /// `transports_`.
  std::optional<std::int64_t> transport_hops();
  /// The degraded schedule for `surviving`, computed on first use.
  const assay::Schedule& schedule_for(const assay::ResourcePool& surviving);

  std::shared_ptr<const AssayWorkload> workload_;
  FaultState faults_;
  reconfig::ReconfigPlan plan_;  ///< this run's plan, capacity reused
  /// The healthy design's usable cells; per run the faulty cells are
  /// blocked and the plan's spares opened, then both restored.
  fluidics::HopBoard board_;
  /// replacement_[cell] = the plan's spare for a faulty cell, else invalid.
  std::vector<CellIndex> replacement_;
  /// Memo slot (ports * (M+1) + mixers) * (D+1) + detectors of full_pool.
  std::vector<std::optional<assay::Schedule>> schedules_;
  std::array<std::vector<std::size_t>, 3> alive_by_kind_;  ///< module ids
  std::vector<CellIndex> anchor_;  ///< per-op transport endpoint
  std::vector<Transport> transports_;   ///< this run's, pending
  std::vector<std::int32_t> endpoint_load_;  ///< per cell: pending transports
  std::vector<CellIndex> targets_;      ///< one wave's far endpoints
  std::vector<std::int32_t> hops_;      ///< one wave's answers

  friend class AssayWorkload;  // computes its baseline through run_assay
};

}  // namespace dmfb::sim
