// Droplet routing on a faulty, reconfigured array — microfluidic locality
// made visible.
//
// A droplet crosses a DTMB(2,6) array scarred by a diagonal line of faulty
// cells. Local reconfiguration activates a spare next to each faulty
// primary, and the router treats those spares as ordinary transport
// surface: the shortest route over the repaired array slips through the
// scar on replacement cells, shorter than the detour around the scar that
// the unrepaired array forces.
//
// Build & run:  ./build/examples/droplet_routing
#include <iostream>

#include "biochip/dtmb.hpp"
#include "fluidics/router.hpp"
#include "io/ascii_render.hpp"
#include "reconfig/local_reconfig.hpp"

int main() {
  using namespace dmfb;

  auto array = biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 11, 9);

  // A diagonal scar of faults across the middle of the array.
  for (const hex::HexCoord at :
       {hex::HexCoord{5, 2}, {5, 3}, {5, 4}, {4, 5}, {3, 6}}) {
    array.set_health(array.region().index_of(at),
                     biochip::CellHealth::kFaulty);
  }
  const auto plan = reconfig::LocalReconfigurer().plan(array);
  std::cout << "Reconfiguration " << (plan.success ? "succeeded" : "failed")
            << " (" << plan.replacements.size() << " spares activated)\n"
            << io::render_hex(array, &plan, {.legend = true}) << '\n';

  const auto from = array.region().index_of({9, 0});
  const auto to = array.region().index_of({1, 7});

  // Without repair the spares stay reserved and the droplet goes round.
  const fluidics::UsableCells unrepaired(array);
  const auto detour = fluidics::Router(unrepaired).shortest_route(from, to);

  fluidics::UsableCells usable(array);
  usable.activate_plan(plan);
  const auto route = fluidics::Router(usable).shortest_route(from, to);
  if (route.empty()) {
    std::cerr << "routing failed\n";
    return 1;
  }
  std::cout << "Route " << array.region().coord_at(from) << " -> "
            << array.region().coord_at(to) << ": " << route.size() - 1
            << " hops on the repaired array";
  if (detour.empty()) {
    std::cout << " (unreachable without repair).\n";
  } else {
    std::cout << " (" << detour.size() - 1 << " without repair).\n";
  }
  for (const auto cell : route) {
    std::cout << array.region().coord_at(cell) << ' ';
  }
  std::cout << '\n';

  // The paper's operational payoff: the droplet never touches a faulty
  // cell, and every activated spare it crosses is listed here.
  int spares_used = 0;
  for (const auto cell : route) {
    if (array.role(cell) == biochip::CellRole::kSpare) {
      ++spares_used;
      std::cout << "travelled over activated spare "
                << array.region().coord_at(cell) << '\n';
    }
  }
  if (spares_used == 0) {
    std::cerr << "the route used no activated spare\n";
    return 1;
  }
  return 0;
}
