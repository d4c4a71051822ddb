// Draw-trajectory digests: every fault kind, under both draw contracts, at
// both injection layers, pinned to a fixed FNV-1a digest.
//
// The layer-equivalence suites compare the fault:: (HexArray records) and
// sim:: (FaultState bitmap) layers with each other. Both layers drive the
// same kind-level draw code, so that comparison cannot see a change to the
// draws themselves. These digests can: each one covers 256 runs of one
// (kind, contract, layer) on a DTMB(2,6) array and hashes
//  * fault:: layer — every FaultRecord (cell, class, defect or parameter,
//    the bit pattern of `deviation`) plus the faulty-cell count;
//  * sim:: layer — every FaultState::fault_words() bitmap plus the stable
//    inject tallies (runs, cells faulted, cell trials, classification
//    draws);
// and, at both layers, where each run's stream stopped (the next v1 output
// or the v2 cursor), so a change in how many draws a kind consumes shows
// even when the faults happen to agree.
//
// A digest may change only together with a deliberate, documented change
// of a draw contract (which also moves the golden CSVs of the affected
// kinds).
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "fault/mixture.hpp"
#include "fault/parametric.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_model.hpp"
#include "sim/fault_state.hpp"
#include "sim/session.hpp"

namespace dmfb {
namespace {

constexpr std::uint64_t kSeed = 2005;
constexpr std::int32_t kRuns = 256;
constexpr std::int32_t kMinPrimaries = 120;

struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
};

biochip::HexArray test_array() {
  return biochip::make_dtmb_array_with_primaries(biochip::DtmbKind::kDtmb2_6,
                                                 kMinPrimaries);
}

/// The fault models under test, one per kind. The mixture exercises every
/// concrete kind after a first component, so each one runs on a
/// pre-faulted chip (first-faulter-wins, absorbed kills).
sim::FaultModel model_of(sim::FaultModel::Kind kind) {
  using sim::FaultModel;
  switch (kind) {
    case FaultModel::Kind::kBernoulli:
      return FaultModel::bernoulli(0.95);
    case FaultModel::Kind::kFixedCount:
      return FaultModel::fixed_count(10);
    case FaultModel::Kind::kClustered:
      return FaultModel::clustered(1.5, {2, 0.9, 0.3});
    case FaultModel::Kind::kParametric:
      return FaultModel::parametric(1.4);
    case FaultModel::Kind::kMixture:
      return FaultModel::mixture(
          {FaultModel::bernoulli(0.97), FaultModel::parametric(1.4),
           FaultModel::clustered(1.0, {1, 0.9, 0.3}),
           FaultModel::fixed_count(6)});
  }
  return FaultModel::bernoulli(1.0);
}

/// The fault:: injector equivalent to a concrete (non-mixture) model.
fault::MixtureInjector::Component injector_of(const sim::FaultModel& model) {
  using sim::FaultModel;
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      return fault::BernoulliInjector(model.param);
    case FaultModel::Kind::kFixedCount:
      return fault::FixedCountInjector(
          static_cast<std::int32_t>(model.param));
    case FaultModel::Kind::kClustered:
      return fault::ClusteredInjector(model.param, model.cluster.radius,
                                      model.cluster.core_kill,
                                      model.cluster.edge_kill);
    case FaultModel::Kind::kParametric:
    case FaultModel::Kind::kMixture:
      break;
  }
  return fault::ParametricInjector(
      fault::ProcessSpec::typical().scaled(model.param));
}

void add_map(Fnv1a& fnv, const fault::FaultMap& map,
             const biochip::HexArray& array) {
  fnv.add(static_cast<std::uint64_t>(array.faulty_count()));
  fnv.add(map.size());
  for (const fault::FaultRecord& record : map.records) {
    fnv.add(static_cast<std::uint64_t>(record.cell));
    fnv.add(static_cast<std::uint64_t>(record.fault_class));
    fnv.add(record.catastrophic
                ? 1 + static_cast<std::uint64_t>(*record.catastrophic)
                : 0);
    fnv.add(record.parametric
                ? 1 + static_cast<std::uint64_t>(*record.parametric)
                : 0);
    fnv.add(std::bit_cast<std::uint64_t>(record.deviation));
  }
}

/// Runs `injector` on a fresh healthy array per run, with inject under v1
/// or inject_v2 under v2, and hashes every record of every run.
template <typename Injector>
std::uint64_t fault_layer_digest(const Injector& injector, RngVersion version) {
  const biochip::HexArray healthy = test_array();
  Fnv1a fnv;
  for (std::int32_t run = 0; run < kRuns; ++run) {
    biochip::HexArray array = healthy;
    if (version == RngVersion::kV1) {
      Rng rng = sim::run_stream(kSeed, run);
      add_map(fnv, injector.inject(array, rng), array);
      fnv.add(rng());
    } else {
      CounterStream stream = sim::run_stream_v2(kSeed, run);
      add_map(fnv, injector.inject_v2(array, stream), array);
      fnv.add(stream.cursor());
    }
  }
  return fnv.hash;
}

std::uint64_t fault_layer_digest(const sim::FaultModel& model,
                                 RngVersion version) {
  if (model.kind == sim::FaultModel::Kind::kMixture) {
    std::vector<fault::MixtureInjector::Component> components;
    for (const sim::FaultModel& part : model.components) {
      components.push_back(injector_of(part));
    }
    return fault_layer_digest(fault::MixtureInjector(std::move(components)),
                              version);
  }
  return std::visit(
      [&](const auto& injector) {
        return fault_layer_digest(injector, version);
      },
      injector_of(model));
}

std::uint64_t sim_layer_digest(const sim::FaultModel& model,
                               RngVersion version) {
  const auto design = sim::ChipDesign::make(test_array());
  sim::FaultState state(design);
  Fnv1a fnv;
  obs::Registry registry;
  registry.install();
  for (std::int32_t run = 0; run < kRuns; ++run) {
    state.reset();
    if (version == RngVersion::kV1) {
      Rng rng = sim::run_stream(kSeed, run);
      sim::inject(model, state, rng);
      fnv.add(rng());
    } else {
      CounterStream stream = sim::run_stream_v2(kSeed, run);
      sim::inject_v2(model, state, stream);
      fnv.add(stream.cursor());
    }
    for (const std::uint64_t word : state.fault_words()) fnv.add(word);
  }
  registry.uninstall();
  const obs::Snapshot snapshot = registry.snapshot();
  for (const obs::Metric metric :
       {obs::Metric::kInjectRuns, obs::Metric::kInjectCellsFaulted,
        obs::Metric::kInjectCellTrials,
        obs::Metric::kInjectClassificationDraws}) {
    fnv.add(static_cast<std::uint64_t>(snapshot.counter(metric)));
  }
  return fnv.hash;
}

enum class Layer : std::uint8_t { kFault, kSim };

struct DigestCase {
  const char* name;
  sim::FaultModel::Kind kind;
  RngVersion version;
  Layer layer;
  std::uint64_t digest;
};

void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

class FaultDrawDigest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(FaultDrawDigest, MatchesPinnedTrajectory) {
  const DigestCase& c = GetParam();
  const sim::FaultModel model = model_of(c.kind);
  const std::uint64_t digest = c.layer == Layer::kFault
                                   ? fault_layer_digest(model, c.version)
                                   : sim_layer_digest(model, c.version);
  EXPECT_EQ(digest, c.digest) << c.name << " digest is 0x" << std::hex
                              << digest;
}

using Kind = sim::FaultModel::Kind;
constexpr RngVersion kV1 = RngVersion::kV1;
constexpr RngVersion kV2 = RngVersion::kV2;

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FaultDrawDigest,
    ::testing::Values(
        DigestCase{"BernoulliV1Fault", Kind::kBernoulli, kV1, Layer::kFault,
                   0xfab70314c9dc9104ULL},
        DigestCase{"BernoulliV1Sim", Kind::kBernoulli, kV1, Layer::kSim,
                   0x318e8cda64dd8626ULL},
        DigestCase{"BernoulliV2Fault", Kind::kBernoulli, kV2, Layer::kFault,
                   0x719f399c449f4027ULL},
        DigestCase{"BernoulliV2Sim", Kind::kBernoulli, kV2, Layer::kSim,
                   0x44a71a0fde4cb7baULL},
        DigestCase{"FixedCountV1Fault", Kind::kFixedCount, kV1, Layer::kFault,
                   0x71d8f17994305baeULL},
        DigestCase{"FixedCountV1Sim", Kind::kFixedCount, kV1, Layer::kSim,
                   0x930d3111e41f0858ULL},
        DigestCase{"FixedCountV2Fault", Kind::kFixedCount, kV2, Layer::kFault,
                   0x2a185c9355f07bb5ULL},
        DigestCase{"FixedCountV2Sim", Kind::kFixedCount, kV2, Layer::kSim,
                   0x536852aed8e3a034ULL},
        DigestCase{"ClusteredV1Fault", Kind::kClustered, kV1, Layer::kFault,
                   0xed0712ddd83de018ULL},
        DigestCase{"ClusteredV1Sim", Kind::kClustered, kV1, Layer::kSim,
                   0x97b42da0f3054a9aULL},
        DigestCase{"ClusteredV2Fault", Kind::kClustered, kV2, Layer::kFault,
                   0x40304937cbda0b1cULL},
        DigestCase{"ClusteredV2Sim", Kind::kClustered, kV2, Layer::kSim,
                   0xb47019bdc62d0102ULL},
        DigestCase{"ParametricV1Fault", Kind::kParametric, kV1, Layer::kFault,
                   0xccda127521dd590eULL},
        DigestCase{"ParametricV1Sim", Kind::kParametric, kV1, Layer::kSim,
                   0x2414c60ce0e1b38aULL},
        DigestCase{"ParametricV2Fault", Kind::kParametric, kV2, Layer::kFault,
                   0xcd126e1565b9a8a3ULL},
        DigestCase{"ParametricV2Sim", Kind::kParametric, kV2, Layer::kSim,
                   0xd1e7b0cf30ee4d41ULL},
        DigestCase{"MixtureV1Fault", Kind::kMixture, kV1, Layer::kFault,
                   0x82d9d438d18bf403ULL},
        DigestCase{"MixtureV1Sim", Kind::kMixture, kV1, Layer::kSim,
                   0xa537d2fe5bb9f62dULL},
        DigestCase{"MixtureV2Fault", Kind::kMixture, kV2, Layer::kFault,
                   0x64ebb749fcdfa2f1ULL},
        DigestCase{"MixtureV2Sim", Kind::kMixture, kV2, Layer::kSim,
                   0x0a0508392f470e8dULL}),
    [](const ::testing::TestParamInfo<DigestCase>& param_info) {
      return std::string(param_info.param.name);
    });

// The digests above are only meaningful if every kind actually faults
// cells on the test array.
TEST(FaultDrawDigestCoverage, EveryKindFaultsCells) {
  const auto design = sim::ChipDesign::make(test_array());
  ASSERT_GE(design->primary_count(), kMinPrimaries);
  for (const Kind kind : {Kind::kBernoulli, Kind::kFixedCount,
                          Kind::kClustered, Kind::kParametric,
                          Kind::kMixture}) {
    sim::FaultState state(design);
    std::int64_t faulted = 0;
    for (std::int32_t run = 0; run < kRuns; ++run) {
      state.reset();
      Rng rng = sim::run_stream(kSeed, run);
      sim::inject(model_of(kind), state, rng);
      faulted += state.faulty_count();
    }
    EXPECT_GT(faulted, kRuns / 4) << static_cast<int>(kind);
  }
}

}  // namespace
}  // namespace dmfb
