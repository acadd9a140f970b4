// Error paths the sanitizer CI now exercises end to end: Config parsing
// rejections, frame::parse_checked structural bounds, AdaptConfig and
// waveform-channel / noise-synthesis inputs, and FleetConfig. Every rejection
// here must classify cleanly — never read past a buffer, never accept a
// half-parsed value.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "channel/noise.hpp"
#include "channel/waveform_channel.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "net/frame.hpp"
#include "net/mac.hpp"
#include "net/mcs/adapt.hpp"
#include "net/mcs/mcs.hpp"
#include "phy/coding.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/scenario.hpp"

namespace vab {
namespace {

using common::Config;

// ---------------------------------------------------------------- Config --

TEST(ConfigNegative, ArgWithoutEqualsThrows) {
  const char* argv[] = {"prog", "trials"};
  EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
}

TEST(ConfigNegative, ArgWithEmptyKeyThrows) {
  const char* argv[] = {"prog", "=5"};
  EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
}

TEST(ConfigNegative, LineMissingEqualsThrows) {
  EXPECT_THROW(Config::from_string("trials 200\n"), std::invalid_argument);
}

TEST(ConfigNegative, EmptyKeyInStringThrows) {
  EXPECT_THROW(Config::from_string("= 5\n"), std::invalid_argument);
}

TEST(ConfigNegative, CommentsAndBlankLinesAreSkipped) {
  const Config cfg = Config::from_string("# header\n\n  trials = 7 # inline\n");
  EXPECT_EQ(cfg.get_int("trials", 0), 7);
}

TEST(ConfigNegative, DuplicateKeysLastWins) {
  // Documented override semantics: `prog base.cfg threads=1 threads=8`
  // must resolve to the rightmost value, not raise.
  const char* argv[] = {"prog", "threads=1", "threads=8"};
  const Config cfg = Config::from_args(3, argv);
  EXPECT_EQ(cfg.get_int("threads", 0), 8);
  const Config cfg2 = Config::from_string("seed=1\nseed=42\n");
  EXPECT_EQ(cfg2.get_int("seed", 0), 42);
}

TEST(ConfigNegative, NonNumericDoubleThrows) {
  Config cfg;
  cfg.set("x", "fast");
  EXPECT_THROW(cfg.get_double("x", 0.0), std::invalid_argument);
}

TEST(ConfigNegative, TrailingGarbageDoubleThrows) {
  // stod would happily parse "100m" as 100; a typo'd unit suffix must be
  // an error, not a silently plausible number.
  Config cfg;
  cfg.set("range_m", "100m");
  EXPECT_THROW(cfg.get_double("range_m", 0.0), std::invalid_argument);
}

TEST(ConfigNegative, TrailingGarbageIntThrows) {
  Config cfg;
  cfg.set("trials", "200x");
  EXPECT_THROW(cfg.get_int("trials", 0), std::invalid_argument);
  cfg.set("trials", "1e3");  // scientific notation is not an integer
  EXPECT_THROW(cfg.get_int("trials", 0), std::invalid_argument);
}

TEST(ConfigNegative, WellFormedNumericsStillParse) {
  Config cfg;
  cfg.set("a", "-1.5e-3");
  cfg.set("b", "-42");
  EXPECT_DOUBLE_EQ(cfg.get_double("a", 0.0), -1.5e-3);
  EXPECT_EQ(cfg.get_int("b", 0), -42);
}

TEST(ConfigNegative, IntOverflowThrows) {
  Config cfg;
  cfg.set("big", "999999999999999999999999999");
  EXPECT_THROW(cfg.get_int("big", 0), std::invalid_argument);
}

TEST(ConfigNegative, CountOutsideItsRangeThrows) {
  Config cfg;
  for (const char* v : {"-5", "0", "101"}) {
    cfg.set("trials", v);
    EXPECT_THROW((void)cfg.get_count("trials", 7, 1, 100), std::invalid_argument) << v;
  }
  cfg.set("trials", "100");
  EXPECT_EQ(cfg.get_count("trials", 7, 1, 100), 100u);
  EXPECT_EQ(Config{}.get_count("trials", 7, 1, 100), 7u);
}

TEST(ConfigNegative, BadBoolThrows) {
  Config cfg;
  cfg.set("flag", "maybe");
  EXPECT_THROW(cfg.get_bool("flag", false), std::invalid_argument);
}

TEST(ConfigNegative, FallbacksUntouchedByMissingKeys) {
  const Config cfg;
  EXPECT_EQ(cfg.get_string("k", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cfg.get_double("k", 2.5), 2.5);
  EXPECT_EQ(cfg.get_int("k", -3), -3);
  EXPECT_TRUE(cfg.get_bool("k", true));
}

// ---------------------------------------------- frame::parse_checked bounds --

net::Frame sample_frame(std::size_t payload_len) {
  net::Frame f;
  f.addr = 0x21;
  f.type = net::FrameType::kSensorReport;
  f.seq = 9;
  f.payload.assign(payload_len, 0xA5);
  return f;
}

TEST(ParseCheckedBounds, EmptyAndSubMinimalBuffersAreTooShort) {
  for (std::size_t n = 0; n < net::kMinWireSize; ++n) {
    const auto r = net::parse_checked(bytes(n, 0x00));
    EXPECT_EQ(r.error, net::ParseError::kTooShort) << "size " << n;
    EXPECT_FALSE(r.frame.has_value());
  }
}

TEST(ParseCheckedBounds, MinimalValidFrameParses) {
  const auto wire = net::serialize(sample_frame(0));
  ASSERT_EQ(wire.size(), net::kMinWireSize);
  const auto r = net::parse_checked(wire);
  EXPECT_EQ(r.error, net::ParseError::kOk);
  ASSERT_TRUE(r.frame.has_value());
  EXPECT_TRUE(r.frame->payload.empty());
}

TEST(ParseCheckedBounds, MaximalValidFrameParses) {
  const auto wire = net::serialize(sample_frame(net::kMaxPayload));
  ASSERT_EQ(wire.size(), net::kMaxWireSize);
  const auto r = net::parse_checked(wire);
  EXPECT_EQ(r.error, net::ParseError::kOk);
  ASSERT_TRUE(r.frame.has_value());
  EXPECT_EQ(r.frame->payload.size(), net::kMaxPayload);
}

TEST(ParseCheckedBounds, OversizedBufferIsTooLong) {
  const auto r = net::parse_checked(bytes(net::kMaxWireSize + 1, 0x55));
  EXPECT_EQ(r.error, net::ParseError::kTooLong);
}

TEST(ParseCheckedBounds, CorruptCrcClassified) {
  auto wire = net::serialize(sample_frame(4));
  wire.back() ^= 0x01;
  EXPECT_EQ(net::parse_checked(wire).error, net::ParseError::kBadCrc);
}

TEST(ParseCheckedBounds, LyingLengthFieldClassified) {
  // Re-CRC after tampering so the length check, not the CRC, must reject:
  // a len that over- or under-claims can never drive an out-of-bounds read.
  for (const int delta : {-1, +1, +100}) {
    auto wire = net::serialize(sample_frame(8));
    wire.resize(wire.size() - 2);  // strip CRC
    const int lied = static_cast<int>(wire[3]) + delta;
    if (lied < 0 || lied > static_cast<int>(net::kMaxPayload)) continue;
    wire[3] = static_cast<std::uint8_t>(lied);
    const auto r = net::parse_checked(phy::append_crc(wire));
    EXPECT_EQ(r.error, net::ParseError::kLengthMismatch) << "delta " << delta;
    EXPECT_FALSE(r.frame.has_value());
  }
}

TEST(ParseCheckedBounds, UnknownTypeClassified) {
  auto wire = net::serialize(sample_frame(2));
  wire.resize(wire.size() - 2);
  wire[1] = 0x7E;  // not a FrameType
  EXPECT_EQ(net::parse_checked(phy::append_crc(wire)).error,
            net::ParseError::kBadType);
}

TEST(ParseCheckedBounds, SerializeRejectsOversizedPayload) {
  net::Frame f = sample_frame(net::kMaxPayload + 1);
  EXPECT_THROW(net::serialize(f), std::invalid_argument);
}

TEST(ParseCheckedBounds, ParseBitsRejectsRaggedBitCount) {
  const auto bits = net::serialize_bits(sample_frame(1));
  bitvec ragged(bits.begin(), bits.end() - 3);
  EXPECT_FALSE(net::parse_bits(ragged).has_value());
}

TEST(ParseCheckedBounds, EveryErrorHasAName) {
  using net::ParseError;
  for (const auto e : {ParseError::kOk, ParseError::kTooShort,
                       ParseError::kTooLong, ParseError::kBadCrc,
                       ParseError::kLengthMismatch, ParseError::kBadType}) {
    EXPECT_STRNE(net::parse_error_name(e), "unknown");
  }
}

// ---------------------------------------------------------- AdaptConfig --

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Expects both entry points to reject `cfg` with a message naming `field`,
// and a rejected enable_mcs to leave the reader fixed-rate.
void expect_adapt_rejected(const net::mcs::AdaptConfig& cfg, const std::string& field) {
  const net::mcs::McsLadder ladder = net::mcs::McsLadder::default_ladder();
  try {
    const net::mcs::RateController ctl(ladder, cfg);
    ADD_FAILURE() << "RateController accepted bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
  net::ReaderMac reader{net::MacTiming{}};
  try {
    reader.enable_mcs(ladder, cfg);
    ADD_FAILURE() << "enable_mcs accepted bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
  EXPECT_FALSE(reader.mcs_enabled());
}

TEST(AdaptConfigNegative, TargetDeliveryOutsideOpenUnitIntervalRejected) {
  for (const double bad : {0.0, 1.0, -0.5, 1.5, kNaN}) {
    net::mcs::AdaptConfig cfg;
    cfg.target_delivery = bad;
    expect_adapt_rejected(cfg, "target_delivery");
  }
}

TEST(AdaptConfigNegative, EwmaAlphaOutsideHalfOpenUnitIntervalRejected) {
  for (const double bad : {0.0, -0.1, 1.01, kNaN}) {
    net::mcs::AdaptConfig cfg;
    cfg.ewma_alpha = bad;
    expect_adapt_rejected(cfg, "ewma_alpha");
  }
}

TEST(AdaptConfigNegative, ZeroFrameBitsRejected) {
  // Would otherwise pin every threshold near the bisection floor (-40 dB)
  // and send every controller to the top rung.
  net::mcs::AdaptConfig cfg;
  cfg.frame_bits = 0;
  expect_adapt_rejected(cfg, "frame_bits");
}

TEST(AdaptConfigNegative, InvertedOrEqualOutcomeBandsRejected) {
  for (const auto& [down, up] :
       {std::pair{0.98, 0.7}, std::pair{0.8, 0.8}, std::pair{kNaN, 0.9}}) {
    net::mcs::AdaptConfig cfg;
    cfg.outcome_down_below = down;
    cfg.outcome_up_above = up;
    expect_adapt_rejected(cfg, "outcome_down_below");
  }
}

TEST(AdaptConfigNegative, BoundaryValuesAccepted) {
  net::mcs::AdaptConfig cfg;
  cfg.ewma_alpha = 1.0;
  cfg.frame_bits = 1;
  cfg.target_delivery = 1e-9;
  EXPECT_NO_THROW(net::mcs::validate(cfg));
  net::ReaderMac reader{net::MacTiming{}};
  const net::mcs::McsLadder ladder = net::mcs::McsLadder::default_ladder();
  EXPECT_NO_THROW(reader.enable_mcs(ladder, cfg));
  EXPECT_TRUE(reader.mcs_enabled());
  EXPECT_NO_THROW(net::mcs::validate(net::mcs::AdaptConfig{}));
}

// ------------------------------------------------------- WaveformChannel --

constexpr double kInf = std::numeric_limits<double>::infinity();

// A channel whose one tap is `tap`, under `amp_m` of surface swell.
channel::WaveformChannelConfig swell_config(channel::PathTap tap, double amp_m) {
  channel::WaveformChannelConfig cfg;
  cfg.add_noise = false;
  cfg.taps = {tap};
  cfg.surface_wave_amplitude_m = amp_m;
  return cfg;
}

void expect_channel_rejected(const channel::WaveformChannelConfig& cfg,
                             const std::string& what) {
  common::Rng rng(1);
  try {
    const channel::WaveformChannel ch(cfg, rng);
    ADD_FAILURE() << "WaveformChannel accepted bad " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

TEST(WaveformChannelNegative, DeepBreathingTapStaysInBounds) {
  // 10 bounces under 1 m of swell swing the delay by +/-13.3 ms: past the
  // old six-bounce headroom, which wrote beyond the output buffer.
  const auto cfg = swell_config({1e-3 + 0.02, 0.5, 10, 0}, 1.0);
  common::Rng rng(2);
  const channel::WaveformChannel ch(cfg, rng);
  const rvec tx(4000, 1.0);
  const rvec y = ch.propagate_clean(tx);
  const double breathe_s = 2.0 * 1.0 * 10.0 / cfg.sound_speed_mps;
  EXPECT_EQ(y.size(), tx.size() + static_cast<std::size_t>(std::ceil(
                                      (ch.max_delay_s() + breathe_s) * cfg.fs_hz)) +
                          2);
  for (const double v : y) ASSERT_TRUE(std::isfinite(v));
}

TEST(WaveformChannelNegative, ShallowTapsKeepTheirOutputLength) {
  // Up to six bounces the headroom, and so every existing output length,
  // is unchanged.
  const auto cfg = swell_config({0.02, 0.5, 3, 0}, 0.5);
  common::Rng rng(2);
  const channel::WaveformChannel ch(cfg, rng);
  const rvec tx(1000, 1.0);
  const double breathe_s = 2.0 * 0.5 * 6.0 / cfg.sound_speed_mps;
  EXPECT_EQ(ch.propagate_clean(tx).size(),
            tx.size() + static_cast<std::size_t>(
                            std::ceil((0.02 + breathe_s) * cfg.fs_hz)) + 2);
}

TEST(WaveformChannelNegative, DelayBreathingBelowZeroRejected) {
  // 1 ms of delay cannot absorb a +/-13.3 ms swing.
  expect_channel_rejected(swell_config({1e-3, 0.5, 10, 0}, 1.0), "tap delay");
  // Nor a fixed tap a negative or non-finite delay.
  for (const double bad : {-1e-6, kNaN, kInf})
    expect_channel_rejected(swell_config({bad, 0.5, 0, 0}, 0.0), "tap delay");
}

TEST(WaveformChannelNegative, BadSwellRejected) {
  for (const double bad : {-0.1, kNaN, kInf})
    expect_channel_rejected(swell_config({0.02, 0.5, 1, 0}, bad),
                            "surface wave amplitude");
  for (const double bad : {-5.0, 0.0, kNaN, kInf}) {
    auto cfg = swell_config({0.02, 0.5, 1, 0}, 0.1);
    cfg.surface_wave_period_s = bad;
    expect_channel_rejected(cfg, "surface wave period");
  }
}

TEST(WaveformChannelNegative, NonFiniteRatesRejected) {
  for (const double bad : {0.0, -1.0, kNaN, kInf}) {
    auto cfg = swell_config({0.02, 0.5, 0, 0}, 0.0);
    cfg.fs_hz = bad;
    expect_channel_rejected(cfg, "sample rate");
    cfg = swell_config({0.02, 0.5, 0, 0}, 0.0);
    cfg.sound_speed_mps = bad;
    expect_channel_rejected(cfg, "sound speed");
  }
}

TEST(NoiseSynthesisNegative, NonFiniteSampleRateRejected) {
  // NaN used to pass the `fs <= 0` check and miss the sigma cache forever.
  for (const double bad : {0.0, -1.0, kNaN, kInf}) {
    common::Rng rng(3);
    EXPECT_THROW(channel::synthesize_ambient_noise(64, common::SampleRateHz{bad},
                                                   channel::NoiseConditions{}, rng),
                 std::invalid_argument)
        << bad;
  }
}

// ------------------------------------------------------------ FleetConfig --

// 200 nodes, 2 readers, budget fidelity. Before validation, each of
// area_m = -100, area_m = NaN and contention_penalty_db = NaN ran to
// completion: 200/200 delivered, all 200 unreachable, and 0 delivered after
// 8,192 polls.
TEST(FleetConfigNegative, BadFieldThrowsNamingIt) {
  using sim::fleet::FleetConfig;
  const auto small_fleet = [] {
    FleetConfig fc;
    fc.scenario = sim::vab_river_scenario();
    fc.n_nodes = 200;
    fc.n_readers = 2;
    fc.fidelity.mode = sim::fleet::FidelityMode::kBudgetOnly;
    return fc;
  };
  // cell_size_m <= 0 falls back to 1 m; ranges and the penalty may be 0.
  const struct {
    double FleetConfig::*field;
    const char* name;
    std::vector<double> bad;
  } cases[] = {
      {&FleetConfig::area_m, "area_m", {-100.0, 0.0, kNaN, kInf}},
      {&FleetConfig::cell_size_m, "cell_size_m", {kNaN, kInf, -kInf}},
      {&FleetConfig::max_link_range_m, "max_link_range_m", {-1.0, kNaN, kInf}},
      {&FleetConfig::interference_range_m, "interference_range_m", {-1.0, kNaN, kInf}},
      {&FleetConfig::contention_penalty_db, "contention_penalty_db", {-1.0, kNaN, kInf}},
  };
  const common::Rng rng(1);
  for (const auto& [field, name, bad_values] : cases) {
    for (const double bad : bad_values) {
      FleetConfig fc = small_fleet();
      fc.*field = bad;
      for (const bool layout_only : {false, true}) {
        try {
          if (layout_only) {
            (void)sim::fleet::make_layout(fc, rng);
          } else {
            (void)sim::fleet::run_fleet(fc, rng);
          }
          ADD_FAILURE() << "accepted " << name << " = " << bad;
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
        }
      }
    }
  }
  // The documented fallbacks stay valid.
  FleetConfig fc = small_fleet();
  fc.cell_size_m = -5.0;
  fc.n_readers = 0;
  fc.interference_range_m = 0.0;
  fc.contention_penalty_db = 0.0;
  EXPECT_NO_THROW((void)sim::fleet::run_fleet(fc, rng));
}

}  // namespace
}  // namespace vab
