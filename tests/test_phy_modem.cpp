// Modem chain: modulator waveform structure, demodulation through ideal and
// impaired channels, SIC behaviour, sync robustness.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/mixer.hpp"
#include "net/mcs/mcs.hpp"
#include "phy/coding.hpp"
#include "phy/fec.hpp"
#include "phy/fm0.hpp"
#include "phy/miller.hpp"
#include "phy/modem.hpp"
#include "sim/scenario.hpp"

namespace vab {
namespace {

phy::PhyConfig test_config(double bitrate = 500.0) {
  phy::PhyConfig cfg;
  cfg.fs_hz = 96000.0;
  cfg.carrier_hz = 18500.0;
  cfg.bitrate_bps = bitrate;
  return cfg;
}

// Synthesizes the passband signal a reader would capture: carrier times a
// reflection coefficient that follows the switch waveform, plus a strong
// unmodulated carrier (the blast), plus white noise.
rvec synthesize_capture(const phy::PhyConfig& cfg, const bitvec& payload,
                        double mod_amp, double blast_amp, double noise_rms,
                        common::Rng& rng, bool polarity = false,
                        double extra_delay_samples = 0.0) {
  phy::BackscatterModulator mod(cfg);
  const bitvec states = mod.switch_waveform(payload);
  const bitvec mask = mod.active_mask(payload.size());
  const auto delay = static_cast<std::size_t>(extra_delay_samples);
  const std::size_t n = states.size() + delay + 512;
  rvec x = dsp::make_tone(cfg.carrier_hz, cfg.fs_hz, n);
  for (std::size_t i = 0; i < n; ++i) {
    double coef = blast_amp;
    if (i >= delay && i - delay < states.size() && mask[i - delay]) {
      const double level = polarity ? (states[i - delay] ? 1.0 : -1.0)
                                    : (states[i - delay] ? 1.0 : 0.0);
      coef += mod_amp * level;
    }
    x[i] *= coef;
    x[i] += noise_rms * rng.gaussian();
  }
  return x;
}

TEST(Modulator, WaveformLengthMatchesChipCount) {
  const auto cfg = test_config();
  phy::BackscatterModulator mod(cfg);
  const bitvec payload(40, 1);
  const bitvec wave = mod.switch_waveform(payload);
  EXPECT_EQ(wave.size(), mod.waveform_length(payload.size()));
  const double spc = cfg.fs_hz / cfg.chip_rate_hz();
  const std::size_t chips = 2 * phy::BackscatterModulator::kIdleChips +
                            phy::BackscatterModulator::kSettleChips +
                            phy::fm0_preamble_chips().size() + 2 * payload.size();
  EXPECT_NEAR(static_cast<double>(wave.size()), static_cast<double>(chips) * spc,
              spc + 1);
}

TEST(Modulator, IdlePaddingIsAbsorptive) {
  const auto cfg = test_config();
  phy::BackscatterModulator mod(cfg);
  const bitvec wave = mod.switch_waveform(bitvec(8, 1));
  const bitvec mask = mod.active_mask(8);
  ASSERT_EQ(wave.size(), mask.size());
  // First and last idle chips: state 0, mask 0.
  EXPECT_EQ(wave.front(), 0);
  EXPECT_EQ(mask.front(), 0);
  EXPECT_EQ(mask.back(), 0);
}

TEST(Modulator, ActiveMaskCoversPreambleAndData) {
  const auto cfg = test_config();
  phy::BackscatterModulator mod(cfg);
  const std::size_t n_bits = 16;
  const bitvec mask = mod.active_mask(n_bits);
  std::size_t active = 0;
  for (auto m : mask) active += m;
  const double spc = cfg.fs_hz / cfg.chip_rate_hz();
  const double expect_chips =
      static_cast<double>(phy::BackscatterModulator::kSettleChips +
                          phy::fm0_preamble_chips().size() + 2 * n_bits);
  EXPECT_NEAR(static_cast<double>(active), expect_chips * spc, 2 * spc);
}

// The modulator fills chip runs between boundaries; the reference is the
// per-sample formula it replaced: sample i carries chip size_t(i / spc),
// clamped to the last chip, and is active inside the frame's chips.
TEST(Modulator, ChipRunsMatchPerSampleDivision) {
  std::vector<phy::PhyConfig> cfgs = {phy::PhyConfig{}, sim::vab_river_scenario().phy,
                                      sim::pab_river_scenario().phy,
                                      sim::vab_ocean_scenario().phy};
  const auto ladder = net::mcs::McsLadder::default_ladder();
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    phy::PhyConfig p = sim::vab_river_scenario().phy;
    phy::FecConfig fec;
    ladder.rung(r).apply(p, fec);
    cfgs.push_back(p);
  }
  // Ratios fs / chip_rate that are not integers, not finite binary
  // fractions, or land chip boundaries a rounding error from a sample.
  const double awkward[][2] = {{96000.0, 700.0},   {44100.0, 333.0}, {100000.0, 3.0},
                               {192000.0, 1234.5}, {48000.0, 7.0},   {96000.0, 480.0},
                               {10000.0, 0.3},     {22050.0, 49.1}};
  for (const auto& fb : awkward) {
    phy::PhyConfig p = test_config(fb[1]);
    p.fs_hz = fb[0];
    p.carrier_hz = fb[0] / 5.0;
    cfgs.push_back(p);
  }
  common::Rng rng(5);
  const bitvec payload = rng.random_bits(24);
  for (const auto& cfg : cfgs) {
    phy::BackscatterModulator mod(cfg);
    bitvec chips(phy::BackscatterModulator::kIdleChips, 0);
    for (std::size_t i = 0; i < phy::BackscatterModulator::kSettleChips; ++i)
      chips.push_back(static_cast<std::uint8_t>(i & 1u));
    const std::size_t first_active = chips.size() - phy::BackscatterModulator::kSettleChips;
    const bitvec& pre = phy::fm0_preamble_chips();
    chips.insert(chips.end(), pre.begin(), pre.end());
    const bitvec data = cfg.uplink_code == phy::UplinkCode::kFm0
                            ? phy::fm0_encode(payload)
                            : phy::miller_encode(payload, static_cast<unsigned>(cfg.chips_per_bit() / 2));
    chips.insert(chips.end(), data.begin(), data.end());
    const std::size_t end_active = chips.size();
    chips.insert(chips.end(), phy::BackscatterModulator::kIdleChips, 0);

    const bitvec wave = mod.switch_waveform(payload);
    const bitvec mask = mod.active_mask(payload.size());
    const double spc = cfg.fs_hz / cfg.chip_rate_hz();
    ASSERT_EQ(wave.size(), mask.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const auto c = static_cast<std::size_t>(static_cast<double>(i) / spc);
      ASSERT_EQ(wave[i], chips[std::min(c, chips.size() - 1)])
          << "fs " << cfg.fs_hz << " chip rate " << cfg.chip_rate_hz() << " sample " << i;
      ASSERT_EQ(mask[i], (c >= first_active && c < end_active) ? 1 : 0)
          << "fs " << cfg.fs_hz << " chip rate " << cfg.chip_rate_hz() << " sample " << i;
    }
  }
}

TEST(Demodulator, DecodesCleanOnOffCapture) {
  const auto cfg = test_config();
  common::Rng rng(1);
  const bitvec payload = rng.random_bits(64);
  const rvec x = synthesize_capture(cfg, payload, 0.1, 1.0, 0.0, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  EXPECT_EQ(res.bits, payload);
  EXPECT_GT(res.corr_peak, 0.7);
}

TEST(Demodulator, DecodesCleanPolarityCapture) {
  const auto cfg = test_config();
  common::Rng rng(2);
  const bitvec payload = rng.random_bits(64);
  const rvec x = synthesize_capture(cfg, payload, 0.1, 1.0, 0.0, rng, true);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  EXPECT_EQ(res.bits, payload);
}

TEST(Demodulator, DecodesWithStrongCarrierBlast) {
  const auto cfg = test_config();
  common::Rng rng(3);
  const bitvec payload = rng.random_bits(48);
  // Blast 40 dB above the modulated component.
  const rvec x = synthesize_capture(cfg, payload, 0.01, 1.0, 0.0, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  EXPECT_EQ(res.bits, payload);
  EXPECT_GT(res.sic_suppression_db, 20.0);
}

TEST(Demodulator, DecodesWithUnknownDelay) {
  const auto cfg = test_config();
  common::Rng rng(4);
  const bitvec payload = rng.random_bits(32);
  const rvec x = synthesize_capture(cfg, payload, 0.1, 1.0, 0.0, rng, false, 7777.0);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  EXPECT_EQ(res.bits, payload);
}

TEST(Demodulator, DecodesInModerateNoise) {
  const auto cfg = test_config();
  common::Rng rng(5);
  const bitvec payload = rng.random_bits(64);
  // Modulated component amplitude 0.05 on carrier 1.0; noise rms 0.02.
  const rvec x = synthesize_capture(cfg, payload, 0.05, 1.0, 0.02, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  const std::size_t errors = phy::hamming_distance(res.bits, payload);
  EXPECT_LE(errors, 2u);
}

TEST(Demodulator, NoSyncOnNoiseOnly) {
  const auto cfg = test_config();
  common::Rng rng(6);
  rvec x = dsp::make_tone(cfg.carrier_hz, cfg.fs_hz, 48000);
  for (auto& v : x) v += 0.05 * rng.gaussian();
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, 32);
  EXPECT_FALSE(res.sync_found);
}

TEST(Demodulator, SnrEstimateTracksNoiseLevel) {
  const auto cfg = test_config();
  common::Rng rng(7);
  const bitvec payload = rng.random_bits(64);
  const rvec clean = synthesize_capture(cfg, payload, 0.1, 1.0, 0.001, rng);
  const rvec noisy = synthesize_capture(cfg, payload, 0.1, 1.0, 0.05, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto r_clean = demod.demodulate(clean, payload.size());
  const auto r_noisy = demod.demodulate(noisy, payload.size());
  ASSERT_TRUE(r_clean.sync_found);
  ASSERT_TRUE(r_noisy.sync_found);
  EXPECT_GT(r_clean.snr_db, r_noisy.snr_db + 6.0);
}

class BitrateSweep : public ::testing::TestWithParam<double> {};

TEST_P(BitrateSweep, RoundTripAtAnyBitrate) {
  const auto cfg = test_config(GetParam());
  common::Rng rng(42);
  const bitvec payload = rng.random_bits(32);
  const rvec x = synthesize_capture(cfg, payload, 0.1, 1.0, 0.0, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found) << "bitrate " << GetParam();
  EXPECT_EQ(res.bits, payload) << "bitrate " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Rates, BitrateSweep,
                         ::testing::Values(100.0, 200.0, 500.0, 1000.0, 2000.0));

class UplinkCodeSweep : public ::testing::TestWithParam<phy::UplinkCode> {};

TEST_P(UplinkCodeSweep, RoundTripThroughFullChain) {
  auto cfg = test_config(500.0);
  cfg.uplink_code = GetParam();
  common::Rng rng(77);
  const bitvec payload = rng.random_bits(48);
  const rvec x = synthesize_capture(cfg, payload, 0.05, 1.0, 0.005, rng);
  phy::ReaderDemodulator demod(cfg);
  const auto res = demod.demodulate(x, payload.size());
  ASSERT_TRUE(res.sync_found);
  EXPECT_EQ(res.bits, payload);
}

TEST_P(UplinkCodeSweep, ChipsPerBitDrivesWaveformLength) {
  auto cfg = test_config(500.0);
  cfg.uplink_code = GetParam();
  phy::BackscatterModulator mod(cfg);
  const std::size_t len = mod.waveform_length(32);
  EXPECT_EQ(mod.switch_waveform(bitvec(32, 1)).size(), len);
}

INSTANTIATE_TEST_SUITE_P(Codes, UplinkCodeSweep,
                         ::testing::Values(phy::UplinkCode::kFm0,
                                           phy::UplinkCode::kMiller2,
                                           phy::UplinkCode::kMiller4));

}  // namespace
}  // namespace vab
