// Absorption, spreading, sound speed and ambient-noise models against
// published reference values; noise synthesis against its own spectral model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "channel/absorption.hpp"
#include "channel/noise.hpp"
#include "channel/soundspeed.hpp"
#include "channel/spreading.hpp"
#include "common/rng.hpp"
#include "dsp/simd/simd.hpp"
#include "dsp/spectrum.hpp"

namespace vab::channel {
namespace {

TEST(Absorption, ThorpReferencePoints) {
  // Classic Thorp values: ~1 dB/km at 10 kHz, rising steeply after.
  EXPECT_NEAR(thorp_absorption(common::Hz::from_khz(1.0)).raw_per_km(), 0.07, 0.03);
  EXPECT_NEAR(thorp_absorption(common::Hz::from_khz(10.0)).raw_per_km(), 1.0, 0.3);
  EXPECT_NEAR(thorp_absorption(common::Hz::from_khz(18.5)).raw_per_km(), 3.6, 0.5);
  EXPECT_NEAR(thorp_absorption(common::Hz::from_khz(100.0)).raw_per_km(), 36.0, 8.0);
}

TEST(Absorption, MonotonicInFrequency) {
  common::DbPerM prev{0.0};
  for (double f = 1.0; f <= 200.0; f *= 1.5) {
    const common::DbPerM a = thorp_absorption(common::Hz::from_khz(f));
    EXPECT_GT(a.raw(), prev.raw());
    prev = a;
  }
}

TEST(Absorption, FrancoisGarrisonSeawaterNearThorpAtMidFreq) {
  WaterProperties sea;
  sea.temperature_c = 4.0;
  sea.salinity_ppt = 35.0;
  sea.depth_m = 100.0;
  sea.ph = 8.0;
  const double fg =
      francois_garrison_absorption(common::Hz::from_khz(18.5), sea).raw_per_km();
  const double th = thorp_absorption(common::Hz::from_khz(18.5)).raw_per_km();
  EXPECT_NEAR(fg, th, th);  // same order of magnitude
}

TEST(Absorption, FreshwaterMuchLowerThanSeawater) {
  WaterProperties fresh;
  fresh.salinity_ppt = 0.3;
  fresh.temperature_c = 15.0;
  fresh.ph = 7.0;
  WaterProperties sea = fresh;
  sea.salinity_ppt = 35.0;
  sea.ph = 8.0;
  // MgSO4/boric relaxation dominates at 18.5 kHz and needs salt.
  EXPECT_LT(francois_garrison_absorption(common::Hz::from_khz(18.5), fresh).raw(),
            0.5 * francois_garrison_absorption(common::Hz::from_khz(18.5), sea).raw());
}

TEST(Spreading, ModelOrdering) {
  const common::Meters r{500.0};
  EXPECT_LT(spreading_loss(SpreadingModel::kCylindrical, r),
            spreading_loss(SpreadingModel::kPractical, r));
  EXPECT_LT(spreading_loss(SpreadingModel::kPractical, r),
            spreading_loss(SpreadingModel::kSpherical, r));
  EXPECT_NEAR(spreading_loss(SpreadingModel::kSpherical, common::Meters{1000.0}).raw(),
              60.0, 1e-9);
}

TEST(Spreading, ClampedBelowOneMeter) {
  EXPECT_DOUBLE_EQ(spreading_loss(SpreadingModel::kSpherical, common::Meters{0.1}).raw(),
                   0.0);
}

TEST(Spreading, TransmissionLossCombines) {
  const common::Db tl = transmission_loss(common::Hz{18500.0}, common::Meters{1000.0},
                                          SpreadingModel::kSpherical);
  EXPECT_NEAR(tl.raw(), 60.0 + thorp_absorption(common::Hz::from_khz(18.5)).raw_per_km(),
              0.1);
}

TEST(SoundSpeed, MackenzieReference) {
  // Canonical check: T=10 C, S=35 ppt, D=100 m -> ~1490 m/s.
  EXPECT_NEAR(mackenzie_sound_speed(10.0, 35.0, 100.0), 1490.3, 1.5);
}

TEST(SoundSpeed, FreshwaterReference) {
  EXPECT_NEAR(freshwater_sound_speed(20.0), 1482.3, 1.0);
  EXPECT_NEAR(freshwater_sound_speed(0.0), 1402.4, 1.0);
}

TEST(SoundSpeed, ProfileInterpolation) {
  SoundSpeedProfile prof({0.0, 10.0, 50.0}, {1500.0, 1490.0, 1485.0});
  EXPECT_DOUBLE_EQ(prof.at(0.0), 1500.0);
  EXPECT_DOUBLE_EQ(prof.at(5.0), 1495.0);
  EXPECT_DOUBLE_EQ(prof.at(100.0), 1485.0);
  EXPECT_THROW(SoundSpeedProfile({0.0, 0.0}, {1500.0, 1500.0}), std::invalid_argument);
}

TEST(Noise, WindDominatesAtCarrier) {
  NoiseConditions calm{0.2, 1.0, -1000.0};
  NoiseConditions windy{0.2, 15.0, -1000.0};
  EXPECT_GT(ambient_nsd(common::Hz{18500.0}, windy),
            ambient_nsd(common::Hz{18500.0}, calm) + common::Db{5.0});
}

TEST(Noise, ShippingMattersAtLowFrequencyOnly) {
  NoiseConditions quiet{0.1, 5.0, -1000.0};
  NoiseConditions busy{1.0, 5.0, -1000.0};
  const common::Db delta_low =
      ambient_nsd(common::Hz{100.0}, busy) - ambient_nsd(common::Hz{100.0}, quiet);
  const common::Db delta_carrier =
      ambient_nsd(common::Hz{18500.0}, busy) - ambient_nsd(common::Hz{18500.0}, quiet);
  EXPECT_GT(delta_low.raw(), 5.0);
  EXPECT_LT(delta_carrier.raw(), 1.0);
}

TEST(Noise, SiteFloorAddsInPower) {
  NoiseConditions base{0.5, 5.0, -1000.0};
  NoiseConditions floored = base;
  floored.site_floor_db = ambient_nsd(common::Hz{18500.0}, base).raw();  // equal power
  EXPECT_NEAR(ambient_nsd(common::Hz{18500.0}, floored).raw(),
              ambient_nsd(common::Hz{18500.0}, base).raw() + 3.0, 0.1);
}

TEST(Noise, LevelScalesWithBandwidth) {
  NoiseConditions c{};
  const common::Db delta = noise_level(common::Hz{18500.0}, common::Hz{1000.0}, c) -
                           noise_level(common::Hz{18500.0}, common::Hz{100.0}, c);
  EXPECT_NEAR(delta.raw(), 10.0, 1e-9);
}

TEST(Noise, SynthesisMatchesModelSpectrum) {
  common::Rng rng(11);
  NoiseConditions cond{0.5, 6.0, 50.0};
  const double fs = 96000.0;
  const rvec x = synthesize_ambient_noise(1 << 17, common::SampleRateHz{fs}, cond, rng);
  const dsp::Psd psd = dsp::welch_psd(x, fs, 4096);
  // Compare synthesized PSD (Pa^2/Hz -> dB re uPa^2/Hz) to the model at a
  // few frequencies across the band.
  for (double f : {2000.0, 10000.0, 18500.0, 30000.0}) {
    const auto k = static_cast<std::size_t>(f / fs * 4096.0);
    const double measured_db_re_upa = psd.power_db[k] + 120.0;  // Pa^2 -> uPa^2
    EXPECT_NEAR(measured_db_re_upa, ambient_nsd(common::Hz{f}, cond).raw(), 2.5)
        << "f=" << f;
  }
}

TEST(Noise, SynthesisDeterministicPerSeed) {
  NoiseConditions cond{};
  common::Rng a(5), b(5);
  const rvec x = synthesize_ambient_noise(1024, common::SampleRateHz{48000.0}, cond, a);
  const rvec y = synthesize_ambient_noise(1024, common::SampleRateHz{48000.0}, cond, b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_DOUBLE_EQ(x[i], y[i]);
}

// FNV-1a over synthesized noise at degenerate, odd and campaign capture
// lengths (the last four are the waveform campaign's 100..400 m captures),
// plus one draw after each to pin the generator's final state.
std::uint64_t synthesis_bits_hash() {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  NoiseConditions cond;
  cond.wind_speed_mps = 7.0;
  for (const std::size_t n : {1, 2, 3, 100, 1025, 42549, 61992, 81569, 101181}) {
    common::Rng rng(700 + n);
    const rvec x = synthesize_ambient_noise(n, common::SampleRateHz{96000.0}, cond, rng);
    fold(x.data(), x.size() * sizeof(double));
    const double next = rng.uniform();
    fold(&next, sizeof next);
  }
  return h;
}

// Noise output bits pinned to the natural-order fill and stage-by-stage
// inverse FFT, on the dispatched ISA and the scalar reference alike.
TEST(Noise, SynthesisBitsPinned) {
  constexpr std::uint64_t kPinned = 0xdfef101fc5ae4785ULL;
  EXPECT_EQ(synthesis_bits_hash(), kPinned)
      << "dispatch " << dsp::simd::isa_name(dsp::simd::active_isa());
  ASSERT_TRUE(dsp::simd::force_isa(dsp::simd::Isa::kScalar));
  EXPECT_EQ(synthesis_bits_hash(), kPinned) << "forced scalar";
  dsp::simd::reset_isa();
}

}  // namespace
}  // namespace vab::channel
