// E2 — Backscatter SNR vs interrogator orientation: the retrodirectivity
// figure. Van Atta keeps its full gain across +/-60 degrees; the fixed-phase
// reflect-array collapses off broadside; a single element is flat but tiny.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"
#include "vanatta/pattern.hpp"
#include "vanatta/planar.hpp"

int main(int argc, char** argv) try {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E2", "SNR vs orientation (retrodirectivity)",
                "range holds across orientations for VAB; non-retro arrays collapse");

  const double range = cfg.get_double("range_m", 200.0);
  bench::init_threads(cfg);
  bench::Stopwatch sw;
  common::Table t(
      {"angle_deg", "vanatta_snr_db", "fixed_array_snr_db", "single_elem_snr_db"});
  for (double deg = -60.0; deg <= 60.0 + 1e-9; deg += 10.0) {
    rvec row;
    for (auto mode : {vanatta::ArrayMode::kVanAtta, vanatta::ArrayMode::kFixedPhase,
                      vanatta::ArrayMode::kSingleElement}) {
      sim::Scenario s = sim::vab_river_scenario();
      s.node.array.mode = mode;
      if (mode == vanatta::ArrayMode::kSingleElement)
        s.node.array.scheme = vanatta::ModulationScheme::kOnOff;
      s.node.orientation_rad = common::deg_to_rad(deg);
      row.push_back(sim::LinkBudget(s).evaluate(common::Meters{range}).snr_chip_db.raw());
    }
    t.add_row({common::Table::num(deg, 0), common::Table::num(row[0], 1),
               common::Table::num(row[1], 1), common::Table::num(row[2], 1)});
  }
  bench::emit(t, cfg);

  // Field-of-view summary (3 dB drop) for the array itself.
  common::Table f({"mode", "retro_fov_deg_3dB"});
  for (auto [name, mode] : {std::pair{"van_atta", vanatta::ArrayMode::kVanAtta},
                            std::pair{"fixed_phase", vanatta::ArrayMode::kFixedPhase}}) {
    vanatta::VanAttaConfig ac = sim::vab_river_scenario().node.array;
    ac.mode = mode;
    f.add_row({name, common::Table::num(
                         vanatta::retro_fov_deg(vanatta::VanAttaArray(ac), 18500.0), 1)});
  }
  bench::emit(f, common::Config{});

  // Extension: planar (4x4) array — retro in elevation too, where the
  // per-row-paired grid (linear-array behaviour) collapses.
  std::cout << "planar extension (4x4, elevation sweep at azimuth 0):\n";
  common::Table p({"elevation_deg", "point_pair_gain_db", "row_pair_gain_db"});
  vanatta::PlanarVanAttaConfig pc;
  pc.rows = 4;
  pc.cols = 4;
  vanatta::PlanarVanAttaConfig rc2 = pc;
  rc2.point_reflection_pairing = false;
  const vanatta::PlanarVanAttaArray point(pc), row(rc2);
  for (double el = -45.0; el <= 45.0 + 1e-9; el += 15.0) {
    const vanatta::Direction d{0.0, common::deg_to_rad(el)};
    p.add_row({common::Table::num(el, 0),
               common::Table::num(point.monostatic_gain_db(d, 18500.0), 1),
               common::Table::num(row.monostatic_gain_db(d, 18500.0), 1)});
  }
  bench::emit(p, common::Config{});
  bench::emit_timing("E2", "orientation_sweep", sw.seconds(), 13 * 3 + 2 + 7);
  return 0;
} catch (const std::invalid_argument& e) {
  return vab::common::bad_input(e);
}
