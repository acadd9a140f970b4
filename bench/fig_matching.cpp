// E7 — Matching-network co-design: fraction of available electrical power
// radiated acoustically vs frequency, with and without the synthesized
// L-section. The ablation behind VAB's element-efficiency advantage.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "piezo/matching.hpp"

int main(int argc, char** argv) try {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E7", "Matching-network power transfer vs frequency",
                "co-designed matching boosts element efficiency at the carrier");

  const double f0 = cfg.get_double("f0_hz", 18500.0);
  const double q_m = cfg.get_double("q_m", 25.0);
  const double k_eff = cfg.get_double("k_eff", 0.3);
  const double r_source = cfg.get_double("r_source", 50.0);
  bench::init_threads(cfg);
  bench::Stopwatch sw;

  const piezo::BvdModel bvd =
      piezo::BvdModel::from_resonance(f0, q_m, k_eff, 10e-9, 0.75);
  const piezo::MatchedTransducer mt(bvd, r_source, f0);

  common::Table t({"freq_hz", "matched_radiated_frac", "unmatched_radiated_frac",
                   "|Z|_ohms", "improvement_db"});
  for (double f : common::linspace(0.85 * f0, 1.15 * f0, 13)) {
    const double m = mt.radiated_fraction(f);
    const double u = mt.radiated_fraction_unmatched(f);
    t.add_row({common::Table::num(f, 0), common::Table::num(m, 3),
               common::Table::num(u, 3),
               common::Table::num(std::abs(bvd.impedance(f)), 1),
               common::Table::num(10.0 * std::log10(std::max(m, 1e-12) /
                                                    std::max(u, 1e-12)),
                                  1)});
  }
  bench::emit(t, cfg);

  const auto& sec = mt.section();
  std::cout << "synthesized L-section: series "
            << (sec.x_series_ohms >= 0
                    ? common::Table::num(sec.series_inductance() * 1e3, 3) + " mH"
                    : common::Table::num(sec.series_capacitance() * 1e9, 2) + " nF")
            << ", shunt "
            << (sec.b_shunt_siemens >= 0
                    ? common::Table::num(sec.shunt_capacitance() * 1e9, 2) + " nF"
                    : common::Table::num(sec.shunt_inductance() * 1e3, 3) + " mH")
            << "\n";
  bench::emit_timing("E7", "matching_sweep", sw.seconds(), 13);
  return 0;
} catch (const std::invalid_argument& e) {
  return vab::common::bad_input(e);
}
