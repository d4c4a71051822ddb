// sim::FaultState — cheap per-thread fault scratch for one ChipDesign.
//
// Replaces the per-thread HexArray clones of the legacy Monte-Carlo engine:
// a word-packed fault bitmap plus the reusable matching buffers (compacted
// bipartite CSR graph, right-index stamp map, Hopcroft-Karp workspace). One
// FaultState serves an entire worker's run loop with zero steady-state
// allocation; reset() costs O(#faults), not O(#cells).
//
// Fault bits are packed 64 per std::uint64_t word (cell i -> word i/64,
// bit i%64), so the repairability scan is word-parallel: one AND against
// the skeleton's coverage mask per 64 cells finds the faulty primaries the
// policy must cover, and bit extraction walks only the set bits instead of
// every coverable primary.
//
// Two repairability paths, equal verdicts (pinned by the fuzz suite):
//   repairable()             — batch: filter the skeleton into a compacted
//                              CSR graph and run Hopcroft-Karp from scratch.
//   repairable_incremental() — diff this run's fault words against the
//                              previous accepted run's, drop matches that
//                              involve departed/newly-faulty cells, and
//                              re-augment only from the changed primaries;
//                              past a churn threshold (or after a config
//                              change / infeasible verdict) it falls back
//                              to a full rebuild. Because maximum-matching
//                              *size* is order-independent, the verdict is
//                              a pure function of the fault set — worker
//                              history never leaks into results.
// One engine computes every plan and batch verdict: Hopcroft-Karp on
// graph::CsrMatcher. A query's `engine` token is accepted but changes no
// estimate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "graph/csr_matching.hpp"
#include "sim/chip_design.hpp"

namespace dmfb::sim {

class FaultState {
 public:
  /// Binds the scratch to `design` (shared, kept alive by the state).
  explicit FaultState(std::shared_ptr<const ChipDesign> design);

  const ChipDesign& design() const noexcept { return *design_; }

  // -- fault bitmap ---------------------------------------------------------
  bool is_faulty(CellIndex cell) const noexcept {
    return (words_[static_cast<std::size_t>(cell) >> 6] >>
            (static_cast<std::uint32_t>(cell) & 63)) &
           1;
  }
  /// Marks `cell` faulty (idempotent). Inline: called once per injected
  /// fault inside the MC run kernel's injection loop.
  void set_faulty(CellIndex cell) {
    DMFB_EXPECTS(cell >= 0 && cell < design_->cell_count());
    std::uint64_t& word = words_[static_cast<std::size_t>(cell) >> 6];
    const std::uint64_t mask = std::uint64_t{1}
                               << (static_cast<std::uint32_t>(cell) & 63);
    if ((word & mask) == 0) {
      word |= mask;
      faulty_cells_.push_back(cell);
    }
  }
  /// Bulk-injection path for skip-sampled v2 streams: `cell` must be
  /// strictly greater than every cell already marked (ascending injection
  /// order), so the membership probe of set_faulty is unnecessary — the
  /// fault word is written and the cell appended directly.
  void set_faulty_ascending(CellIndex cell) {
    DMFB_EXPECTS(cell >= 0 && cell < design_->cell_count());
    DMFB_EXPECTS(faulty_cells_.empty() || faulty_cells_.back() < cell);
    words_[static_cast<std::size_t>(cell) >> 6] |=
        std::uint64_t{1} << (static_cast<std::uint32_t>(cell) & 63);
    faulty_cells_.push_back(cell);
  }
  /// Bulk path for lane injection: marks exactly the cells set in `words`
  /// (one bitmap in fault_words() layout) on a reset state, recording them
  /// in ascending order.
  void load_fault_words(std::span<const std::uint64_t> words);
  std::int32_t faulty_count() const noexcept {
    return static_cast<std::int32_t>(faulty_cells_.size());
  }
  /// Faulty cells in injection order (may help diagnostics; not sorted).
  std::span<const CellIndex> faulty_cells() const noexcept {
    return faulty_cells_;
  }
  /// The packed bitmap (cell i at word i/64, bit i%64; trailing bits of the
  /// last word are always zero). Word count = fault_word_count(cell_count).
  std::span<const std::uint64_t> fault_words() const noexcept {
    return words_;
  }
  /// Clears all fault bits in O(#faults).
  void reset() noexcept;

  // -- repairability --------------------------------------------------------
  /// True iff local reconfiguration can repair the current fault state:
  /// the design's pre-built (policy, pool) skeleton is filtered by fault
  /// bits into a compacted CSR bipartite graph and Hopcroft-Karp checks
  /// whether a maximum matching saturates every covered faulty primary.
  /// Equivalent to reconfig::LocalReconfigurer::feasible on an
  /// equally-faulted HexArray. `engine` changes nothing: the verdict is the
  /// same for every engine, and the parameter stays for existing callers.
  bool repairable(reconfig::CoveragePolicy policy,
                  graph::MatchingEngine engine,
                  reconfig::ReplacementPool pool);

  /// The spare-assignment plan for the current fault state, written into
  /// `out` (its capacity is reused). Builds the same CSR graph as
  /// repairable() but keeps an isolated faulty primary as an unmatched row,
  /// because the unrepairable cells belong to the plan. Rows follow cell
  /// order, right ids are numbered by first use and candidates keep
  /// skeleton order: the vertex and edge order reconfig::LocalReconfigurer
  /// builds, and the pairs are Hopcroft-Karp's, so on an equally-faulted
  /// HexArray it picks the spares LocalReconfigurer picks under
  /// kHopcroftKarp.
  void plan(reconfig::CoveragePolicy policy, reconfig::ReplacementPool pool,
            reconfig::ReconfigPlan& out);

  /// Same verdict as repairable(), computed incrementally against the fault
  /// words this state saw on its previous repairable_incremental() call
  /// (see the header comment). Augmentation is Kuhn-style DFS over the
  /// skeleton; its verdict provably equals the batch Hopcroft-Karp one.
  /// Call between inject() and reset(), one (policy, pool) configuration
  /// per run sequence for the diff to pay off.
  bool repairable_incremental(reconfig::CoveragePolicy policy,
                              reconfig::ReplacementPool pool);

  // -- incremental-repair introspection (tests, diagnostics) ----------------
  /// Matched pairs held by the incremental matching after the last
  /// repairable_incremental() call (== covered faulty primaries when it
  /// returned true).
  std::int32_t incremental_matched_count() const noexcept;
  /// Full invariant check of the incremental matching: mutual consistency,
  /// matched primaries faulty + covered, candidates healthy and adjacent in
  /// the active skeleton. Test hook; O(#cells).
  bool incremental_matching_valid() const;

  /// Churn (popcount of the fault-word diff) at or above which
  /// repairable_incremental() rebuilds from scratch instead of diffing:
  /// the incremental path costs ~one augmentation per changed cell, the
  /// rebuild ~one per faulty primary, so past parity (plus slack for the
  /// constant-factor advantage of the batch scan) diffing only adds work.
  static constexpr std::int32_t kIncrementalChurnSlack = 8;

 private:
  /// Fills graph_ with one row per covered faulty primary. With kPlan the
  /// row and right cells are recorded and isolated rows kept; without it
  /// the build stops (returning false) at the first isolated row.
  template <bool kPlan>
  bool build_graph(const ChipDesign::Skeleton& skeleton);
  bool inc_augment(const ChipDesign::Skeleton& skeleton, CellIndex primary);
  std::int32_t next_epoch() noexcept;

  std::shared_ptr<const ChipDesign> design_;
  std::vector<std::uint64_t> words_;
  std::vector<CellIndex> faulty_cells_;

  // Matching scratch: candidate-cell -> compacted right index, valid when
  // right_stamp_ matches the current epoch.
  std::vector<std::int32_t> right_index_;
  std::vector<std::int32_t> right_stamp_;
  std::int32_t epoch_ = 0;
  graph::CsrBipartiteGraph graph_;
  graph::CsrMatcher matcher_;
  std::vector<CellIndex> left_cells_;   // plan(): row -> faulty primary
  std::vector<CellIndex> right_cells_;  // plan(): right id -> candidate

  // Incremental-repair state: the committed fault words of the previous
  // call and the live matching in cell space (primary cell <-> candidate
  // cell). inc_valid_ means the previous verdict was feasible, so every
  // prev-faulty covered primary is matched and a diff is meaningful.
  std::vector<std::uint64_t> prev_words_;
  std::vector<std::int32_t> inc_match_primary_;
  std::vector<std::int32_t> inc_match_candidate_;
  std::vector<CellIndex> inc_pending_;  // primaries to (re)augment, scratch
  bool inc_valid_ = false;
  reconfig::CoveragePolicy inc_policy_{};
  reconfig::ReplacementPool inc_pool_{};
};

}  // namespace dmfb::sim
