// E10 — Reflection-coefficient modulation depth: what the load switch
// actually buys, across states and across the band, including switch
// parasitics. Also the polarity-vs-on-off scheme comparison at array level.
#include <iostream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "piezo/bvd.hpp"
#include "piezo/modulator.hpp"
#include "vanatta/array.hpp"

int main(int argc, char** argv) try {
  using namespace vab;
  const auto cfg = common::Config::from_args(argc, argv);
  bench::banner("E10", "Load-modulation depth",
                "open/short switching yields near-full reflection swing at resonance");

  bench::init_threads(cfg);
  bench::Stopwatch sw;
  const piezo::BvdModel bvd =
      piezo::BvdModel::from_resonance(18500.0, 25.0, 0.3, 10e-9, 0.75);
  const double f0 = bvd.series_resonance_hz();
  const piezo::LoadModulator mod(bvd.impedance(f0));

  using piezo::LoadState;
  common::Table t({"state_pair", "modulation_depth", "static_leak"});
  const std::vector<std::pair<const char*, std::pair<LoadState, LoadState>>> pairs{
      {"open/short", {LoadState::kOpen, LoadState::kShort}},
      {"open/matched", {LoadState::kOpen, LoadState::kMatched}},
      {"short/matched", {LoadState::kShort, LoadState::kMatched}}};
  for (const auto& [name, st] : pairs) {
    t.add_row({name, common::Table::num(mod.modulation_depth(st.first, st.second, f0), 3),
               common::Table::num(mod.static_reflection(st.first, st.second, f0), 3)});
  }
  bench::emit(t, cfg);

  common::Table f({"freq_hz", "open_short_depth"});
  for (double fq : common::linspace(0.9 * f0, 1.1 * f0, 9))
    f.add_row({common::Table::num(fq, 0),
               common::Table::num(mod.modulation_depth(LoadState::kOpen,
                                                       LoadState::kShort, fq),
                                  3)});
  bench::emit(f, common::Config{});

  // Scheme comparison at the array level (the paper's polarity innovation).
  common::Table a({"scheme", "array_modulation_amplitude", "gain_over_onoff_db"});
  double onoff_amp = 0.0;
  for (auto [name, scheme] :
       {std::pair{"on/off", vanatta::ModulationScheme::kOnOff},
        std::pair{"polarity", vanatta::ModulationScheme::kPolarity}}) {
    vanatta::VanAttaConfig ac;
    ac.n_elements = 8;
    ac.scheme = scheme;
    const vanatta::VanAttaArray arr(ac);
    const double amp = arr.modulation_amplitude(0.0, 18500.0);
    if (scheme == vanatta::ModulationScheme::kOnOff) onoff_amp = amp;
    a.add_row({name, common::Table::num(amp, 3),
               common::Table::num(20.0 * std::log10(amp / onoff_amp), 1)});
  }
  bench::emit(a, common::Config{});
  bench::emit_timing("E10", "modulation_depth", sw.seconds(), 3 + 9 + 2);
  return 0;
} catch (const std::invalid_argument& e) {
  return vab::common::bad_input(e);
}
