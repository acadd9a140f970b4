// Protocol conformance suite for the slotted anti-collision MAC and the MCS
// command flow.
//
// Everything here is scripted: the Q-adapter is stepped outcome by outcome
// against hand-computed Qfp values, capture arbitration is pinned case by
// case, slotted inventory rounds are replayed from their recorded traces,
// and the reader<->node MCS handshake is driven frame by frame. The fleet
// seam closes the file: the SINR contention penalty and the slotted MAC are
// mutually exclusive (regression for the double-charge bug), the legacy
// digest ignores the new code paths, and slotted fleet runs stay
// bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "net/anticollision/capture.hpp"
#include "net/anticollision/slotted.hpp"
#include "net/frame.hpp"
#include "net/inventory.hpp"
#include "net/mac.hpp"
#include "net/mcs/mcs.hpp"
#include "obs/metrics.hpp"
#include "sim/fleet/fleet.hpp"
#include "sim/fleet/transport.hpp"
#include "sim/scenario.hpp"

namespace vab {
namespace {

using net::anticollision::CaptureConfig;
using net::anticollision::Contender;
using net::anticollision::QAdapter;
using net::anticollision::QConfig;
using net::anticollision::resolve_capture;
using net::anticollision::run_slotted_inventory;
using net::anticollision::SlotKind;
using net::anticollision::SlottedResult;
using net::mcs::McsLadder;

const McsLadder& ladder() {
  static const McsLadder* l = new McsLadder(McsLadder::default_ladder());
  return *l;
}

// ---------------------------------------------------------------------------
// 1. QAdapter: scripted floating-Q traces
// ---------------------------------------------------------------------------

TEST(QAdapterConformance, StartsAtClampedQInit) {
  QConfig cfg;
  cfg.q_init = 4.0;
  EXPECT_EQ(QAdapter(cfg).q(), 4u);
  EXPECT_EQ(QAdapter(cfg).frame_slots(), 16u);
  cfg.q_init = 99.0;
  EXPECT_EQ(QAdapter(cfg).q(), static_cast<std::uint8_t>(cfg.q_max));
  cfg.q_init = -3.0;
  EXPECT_EQ(QAdapter(cfg).q(), 0u);
}

TEST(QAdapterConformance, ScriptedOutcomeTraceMatchesHandComputedQfp) {
  QConfig cfg;
  cfg.q_init = 4.0;
  cfg.c_up = 0.35;
  cfg.c_down = 0.25;
  QAdapter q(cfg);
  // Replay a hand-written reader trace and check Qfp after every slot with
  // the exact same floating-point operations.
  const struct {
    SlotKind kind;
    double expect_qfp;
  } script[] = {
      {SlotKind::kCollision, 4.0 + 0.35},
      {SlotKind::kCollision, 4.0 + 0.35 + 0.35},
      {SlotKind::kSuccess, 4.0 + 0.35 + 0.35},
      {SlotKind::kIdle, 4.0 + 0.35 + 0.35 - 0.25},
      {SlotKind::kCapture, 4.0 + 0.35 + 0.35 - 0.25},
      {SlotKind::kIdle, 4.0 + 0.35 + 0.35 - 0.25 - 0.25},
  };
  for (const auto& step : script) {
    q.on_slot(step.kind);
    EXPECT_DOUBLE_EQ(q.qfp(), step.expect_qfp);
  }
}

TEST(QAdapterConformance, QfpClampsAtConfiguredBounds) {
  QConfig cfg;
  cfg.q_init = 0.5;
  cfg.q_min = 0.0;
  cfg.q_max = 2.0;
  QAdapter q(cfg);
  for (int i = 0; i < 50; ++i) q.on_slot(SlotKind::kIdle);
  EXPECT_DOUBLE_EQ(q.qfp(), 0.0);
  EXPECT_EQ(q.frame_slots(), 1u);
  for (int i = 0; i < 50; ++i) q.on_slot(SlotKind::kCollision);
  EXPECT_DOUBLE_EQ(q.qfp(), 2.0);
  EXPECT_EQ(q.frame_slots(), 4u);
}

TEST(QAdapterConformance, IntegerQRoundsToNearest) {
  QConfig cfg;
  cfg.q_init = 4.0;
  cfg.c_up = 0.3;
  QAdapter q(cfg);
  q.on_slot(SlotKind::kCollision);  // 4.3 -> q=4
  EXPECT_EQ(q.q(), 4u);
  q.on_slot(SlotKind::kCollision);  // 4.6 -> q=5
  EXPECT_EQ(q.q(), 5u);
  EXPECT_EQ(q.frame_slots(), 32u);
}

// ---------------------------------------------------------------------------
// 2. Capture arbitration, case by case
// ---------------------------------------------------------------------------

TEST(CaptureConformance, EmptySlotHasNoWinner) {
  EXPECT_FALSE(resolve_capture({}, {}).has_value());
}

TEST(CaptureConformance, SoleOccupantWinsUnlessSilent) {
  const auto win = resolve_capture({2.5}, {});
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(*win, 0u);
  EXPECT_FALSE(resolve_capture({0.0}, {}).has_value());
}

TEST(CaptureConformance, DominantReplyCapturesAboveMargin) {
  CaptureConfig cfg;
  cfg.margin_db = 6.0;
  // SINR = 10 / 1.0 = 10 dB > 6 dB: index 1 captures.
  const auto win = resolve_capture({1.0, 10.0}, cfg);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(*win, 1u);
}

TEST(CaptureConformance, BelowMarginCollides) {
  CaptureConfig cfg;
  cfg.margin_db = 6.0;
  // SINR = 3/1 ~= 4.8 dB < 6 dB: jammed.
  EXPECT_FALSE(resolve_capture({1.0, 3.0}, cfg).has_value());
}

TEST(CaptureConformance, EqualPowersAlwaysJam) {
  CaptureConfig cfg;
  cfg.margin_db = 0.0;  // even a zero margin cannot rescue a tie
  EXPECT_FALSE(resolve_capture({5.0, 5.0}, cfg).has_value());
  EXPECT_FALSE(resolve_capture({5.0, 5.0, 0.1}, cfg).has_value());
}

TEST(CaptureConformance, NoiseErodesTheMargin) {
  CaptureConfig cfg;
  cfg.margin_db = 6.0;
  cfg.noise_power_rel = 0.0;
  ASSERT_TRUE(resolve_capture({1.0, 10.0}, cfg).has_value());
  cfg.noise_power_rel = 2.0;  // SINR = 10/(1+2) ~= 5.2 dB < 6 dB
  EXPECT_FALSE(resolve_capture({1.0, 10.0}, cfg).has_value());
}

TEST(CaptureConformance, ThreeWayNearFarCapture) {
  CaptureConfig cfg;
  cfg.margin_db = 6.0;
  // 40 vs (4 + 3): SINR ~= 7.6 dB — the near node rides over two far ones.
  const auto win = resolve_capture({4.0, 40.0, 3.0}, cfg);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(*win, 1u);
}

// ---------------------------------------------------------------------------
// 3. Slotted inventory rounds
// ---------------------------------------------------------------------------

std::vector<Contender> uniform_population(std::size_t n, double power = 1.0,
                                          double delivery = 1.0) {
  std::vector<Contender> c(n);
  for (std::size_t i = 0; i < n; ++i)
    c[i] = Contender{static_cast<std::uint16_t>(i), power, delivery};
  return c;
}

TEST(SlottedConformance, EmptyPopulationResolvesImmediately) {
  common::Rng rng(1);
  const SlottedResult r = run_slotted_inventory({}, {}, rng);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.slots, 0u);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_TRUE(r.conserves());
}

TEST(SlottedConformance, ConservationInvariantHoldsEverywhere) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 0xABCDull}) {
    for (const std::size_t n : {1u, 5u, 32u, 100u}) {
      common::Rng rng(seed);
      QConfig cfg;
      const SlottedResult r = run_slotted_inventory(uniform_population(n), cfg, rng);
      EXPECT_TRUE(r.conserves()) << "seed " << seed << " n " << n;
      EXPECT_EQ(r.resolved.size(), r.success_slots + r.capture_slots)
          << "seed " << seed << " n " << n;
    }
  }
}

TEST(SlottedConformance, CleanChannelResolvesEveryContenderExactlyOnce) {
  common::Rng rng(7);
  const std::size_t n = 48;
  const SlottedResult r = run_slotted_inventory(uniform_population(n), {}, rng);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.resolved.size(), n);
  const std::set<std::uint16_t> unique(r.resolved.begin(), r.resolved.end());
  EXPECT_EQ(unique.size(), n);  // no double-resolution
  EXPECT_EQ(r.decode_failures, 0u);
  EXPECT_EQ(r.capture_slots, 0u);  // equal powers cannot capture
}

TEST(SlottedConformance, DeterministicAtFixedSeedIncludingTrace) {
  QConfig cfg;
  cfg.record_trace = true;
  auto run = [&cfg] {
    common::Rng rng(0x51077ED);
    return run_slotted_inventory(uniform_population(20), cfg, rng);
  };
  const SlottedResult a = run();
  const SlottedResult b = run();
  EXPECT_EQ(a.resolved, b.resolved);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.final_qfp, b.final_qfp);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].round, b.trace[i].round);
    EXPECT_EQ(a.trace[i].slot, b.trace[i].slot);
    EXPECT_EQ(a.trace[i].kind, b.trace[i].kind);
    EXPECT_EQ(a.trace[i].occupants, b.trace[i].occupants);
    EXPECT_EQ(a.trace[i].winner, b.trace[i].winner);
  }
}

TEST(SlottedConformance, TraceCoversEverySlotAndMatchesTheCounters) {
  QConfig cfg;
  cfg.record_trace = true;
  common::Rng rng(0x7ACE);
  const SlottedResult r = run_slotted_inventory(uniform_population(24), cfg, rng);
  ASSERT_EQ(r.trace.size(), r.slots);
  std::size_t idle = 0, success = 0, collision = 0, capture = 0;
  for (const auto& rec : r.trace) {
    switch (rec.kind) {
      case SlotKind::kIdle:
        ++idle;
        EXPECT_EQ(rec.occupants, 0u);
        break;
      case SlotKind::kSuccess:
        ++success;
        EXPECT_EQ(rec.occupants, 1u);
        break;
      case SlotKind::kCollision:
        ++collision;
        EXPECT_GE(rec.occupants, 1u);  // lone occupant can still fail decode
        break;
      case SlotKind::kCapture:
        ++capture;
        EXPECT_GE(rec.occupants, 2u);
        break;
    }
  }
  EXPECT_EQ(idle, r.idle_slots);
  EXPECT_EQ(success, r.success_slots);
  EXPECT_EQ(collision, r.collision_slots);
  EXPECT_EQ(capture, r.capture_slots);
}

TEST(SlottedConformance, TraceIsOffByDefault) {
  common::Rng rng(3);
  const SlottedResult r = run_slotted_inventory(uniform_population(8), {}, rng);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_GT(r.slots, 0u);
}

TEST(SlottedConformance, EfficiencyLandsNearOneOverE) {
  // Framed slotted Aloha with converged Q runs at ~36.8% slot efficiency;
  // floating-Q tracking keeps a large population inside a generous band.
  common::Rng rng(0xEFF1);
  const std::size_t n = 200;
  QConfig cfg;
  cfg.q_init = 8.0;  // 256 slots: near-optimal for 200 contenders
  cfg.max_rounds = 256;
  const SlottedResult r = run_slotted_inventory(uniform_population(n), cfg, rng);
  ASSERT_TRUE(r.complete);
  const double eff =
      static_cast<double>(r.resolved.size()) / static_cast<double>(r.slots);
  EXPECT_GT(eff, 0.20);
  EXPECT_LT(eff, 0.55);
}

TEST(SlottedConformance, QGrowsTowardThePopulation) {
  // Starting far too small (Q=0: one slot per frame), collisions must push
  // the frame size up toward the contender count before anyone resolves.
  // Qfp decays again as the tail drains (idle slots dominate at the end),
  // so the growth is pinned on the recorded frame sizes, not the final Qfp.
  QConfig cfg;
  cfg.q_init = 0.0;
  cfg.max_rounds = 512;
  cfg.record_trace = true;
  common::Rng rng(0x6E0);
  const SlottedResult r = run_slotted_inventory(uniform_population(64), cfg, rng);
  ASSERT_TRUE(r.complete);
  EXPECT_GT(r.collision_slots, 0u);
  std::size_t max_frame = 0;
  for (const auto& rec : r.trace) max_frame = std::max(max_frame, rec.slot + 1);
  EXPECT_GE(max_frame, 16u);  // grew from 1 slot under collision pressure
}

TEST(SlottedConformance, PowerSpreadEnablesCapture) {
  // Exponentially spread powers: near-far differences > 6 dB are common, so
  // some collided slots must resolve by capture.
  std::vector<Contender> pop;
  for (std::size_t i = 0; i < 40; ++i)
    pop.push_back({static_cast<std::uint16_t>(i),
                   std::pow(10.0, static_cast<double>(i % 8) * 0.4), 1.0});
  QConfig cfg;
  cfg.q_init = 2.0;  // undersized frames force collisions
  cfg.max_rounds = 256;
  common::Rng rng(0xCAB);
  const SlottedResult r = run_slotted_inventory(pop, cfg, rng);
  ASSERT_TRUE(r.complete);
  EXPECT_GT(r.capture_slots, 0u);
  EXPECT_TRUE(r.conserves());
}

TEST(SlottedConformance, DecodeFailureCountsAsCollisionAndNothingResolves) {
  QConfig cfg;
  cfg.max_rounds = 8;
  common::Rng rng(9);
  const SlottedResult r =
      run_slotted_inventory(uniform_population(10, 1.0, 0.0), cfg, rng);
  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(r.resolved.empty());
  EXPECT_GT(r.decode_failures, 0u);
  EXPECT_EQ(r.success_slots, 0u);
  EXPECT_EQ(r.capture_slots, 0u);
  EXPECT_TRUE(r.conserves());
}

TEST(SlottedConformance, MaxRoundsBoundsTheRun) {
  QConfig cfg;
  cfg.max_rounds = 1;
  cfg.q_init = 0.0;  // one 1-slot frame for 50 contenders
  common::Rng rng(4);
  const SlottedResult r = run_slotted_inventory(uniform_population(50), cfg, rng);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.slots, 1u);
}

// Reference implementation: run_slotted_inventory as first written, with one
// occupant bucket per slot of the frame and per-slot power vectors. The
// library walks a sorted (slot, contender) draw buffer instead; this copy
// pins that the rewrite kept the draw schedule, occupant order and every
// result field.
SlottedResult bucketed_slotted_inventory(const std::vector<Contender>& contenders,
                                         const QConfig& cfg, common::Rng& rng) {
  SlottedResult res;
  QAdapter adapter(cfg);
  std::vector<std::size_t> unresolved;
  for (std::size_t i = 0; i < contenders.size(); ++i) unresolved.push_back(i);
  while (!unresolved.empty() && res.rounds < cfg.max_rounds) {
    const std::uint8_t round_q = adapter.q();
    const std::size_t frame = adapter.frame_slots();
    std::vector<std::vector<std::size_t>> occupants(frame);
    for (std::size_t idx : unresolved) {
      const auto slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame) - 1));
      occupants[slot].push_back(idx);
    }
    for (std::size_t s = 0; s < frame; ++s) {
      const std::vector<std::size_t>& occ = occupants[s];
      SlotKind kind = SlotKind::kIdle;
      std::uint16_t winner_id = 0;
      if (!occ.empty()) {
        std::vector<double> powers;
        for (std::size_t idx : occ) powers.push_back(contenders[idx].rx_power_rel);
        const std::optional<std::size_t> won = resolve_capture(powers, cfg.capture);
        if (!won.has_value()) {
          kind = SlotKind::kCollision;
        } else {
          const std::size_t widx = occ[*won];
          if (rng.coin(contenders[widx].delivery_prob)) {
            kind = occ.size() == 1 ? SlotKind::kSuccess : SlotKind::kCapture;
            winner_id = contenders[widx].id;
            res.resolved.push_back(winner_id);
            unresolved.erase(std::find(unresolved.begin(), unresolved.end(), widx));
          } else {
            kind = SlotKind::kCollision;
            ++res.decode_failures;
          }
        }
      }
      adapter.on_slot(kind);
      ++res.slots;
      switch (kind) {
        case SlotKind::kIdle: ++res.idle_slots; break;
        case SlotKind::kSuccess: ++res.success_slots; break;
        case SlotKind::kCollision: ++res.collision_slots; break;
        case SlotKind::kCapture: ++res.capture_slots; break;
      }
      if (cfg.record_trace)
        res.trace.push_back({res.rounds, s, kind, occ.size(), winner_id});
      if (adapter.q() != round_q) break;
    }
    ++res.rounds;
  }
  res.complete = unresolved.empty();
  res.final_qfp = adapter.qfp();
  return res;
}

std::uint64_t slotted_counter(const char* name) {
  return obs::Registry::global().counter_value(std::string("net.slotted.") + name);
}

TEST(SlottedOracle, SortedDrawWalkMatchesBucketedReferenceOverSeeds) {
  // 240 seeds over the configuration matrix: q_init 0 / 4 / 15, capture on
  // (6 dB) and off (infinite margin), lossy decodes, max_rounds exhaustion,
  // tied powers, empty populations, trace on and off, and a frozen Q that
  // walks whole frames (rounds long enough to leave the library's scan
  // phase for its sorted walk).
  const double q_inits[] = {0.0, 4.0, 15.0};
  std::size_t exhausted = 0, captured = 0, lossy = 0, empty = 0, long_rounds = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    common::Rng gen(0x0AC1E000 + seed);
    const std::size_t n =
        seed % 23 == 0 ? 0 : static_cast<std::size_t>(gen.uniform_int(1, 200));
    const bool tied_powers = seed % 7 == 0;
    const bool lossy_decodes = seed % 3 != 0;
    std::vector<Contender> pop(n);
    for (std::size_t i = 0; i < n; ++i) {
      pop[i].id = static_cast<std::uint16_t>(1000 + i);
      pop[i].rx_power_rel = tied_powers ? static_cast<double>(gen.uniform_int(1, 3))
                                        : gen.uniform(0.01, 10.0);
      pop[i].delivery_prob = lossy_decodes ? gen.uniform(0.3, 1.0) : 1.0;
    }
    QConfig cfg;
    cfg.q_init = q_inits[seed % 3];
    cfg.capture.margin_db =
        (seed / 3) % 2 == 0 ? 6.0 : std::numeric_limits<double>::infinity();
    cfg.max_rounds = seed % 5 == 0 ? 3 : 64;
    cfg.record_trace = seed % 4 != 3;
    if (seed % 11 == 5) {
      cfg.q_init = static_cast<double>(seed % 9);
      cfg.c_up = 0.0;
      cfg.c_down = 0.0;
      cfg.max_rounds = 6;
    }

    const std::uint64_t slots0 = slotted_counter("slots");
    const std::uint64_t idle0 = slotted_counter("idle");
    const std::uint64_t success0 = slotted_counter("success");
    const std::uint64_t collision0 = slotted_counter("collision");
    const std::uint64_t capture0 = slotted_counter("capture");
    const std::uint64_t decode0 = slotted_counter("decode_fail");
    common::Rng rng_lib(seed);
    common::Rng rng_ref(seed);
    const SlottedResult lib = run_slotted_inventory(pop, cfg, rng_lib);
    const SlottedResult ref = bucketed_slotted_inventory(pop, cfg, rng_ref);

    SCOPED_TRACE("seed " + std::to_string(seed) + " n " + std::to_string(n));
    EXPECT_EQ(lib.rounds, ref.rounds);
    EXPECT_EQ(lib.slots, ref.slots);
    EXPECT_EQ(lib.idle_slots, ref.idle_slots);
    EXPECT_EQ(lib.success_slots, ref.success_slots);
    EXPECT_EQ(lib.collision_slots, ref.collision_slots);
    EXPECT_EQ(lib.capture_slots, ref.capture_slots);
    EXPECT_EQ(lib.decode_failures, ref.decode_failures);
    EXPECT_EQ(lib.resolved, ref.resolved);
    EXPECT_EQ(lib.complete, ref.complete);
    EXPECT_EQ(std::memcmp(&lib.final_qfp, &ref.final_qfp, sizeof(double)), 0);
    ASSERT_EQ(lib.trace.size(), ref.trace.size());
    for (std::size_t i = 0; i < lib.trace.size(); ++i) {
      EXPECT_EQ(lib.trace[i].round, ref.trace[i].round);
      EXPECT_EQ(lib.trace[i].slot, ref.trace[i].slot);
      EXPECT_EQ(lib.trace[i].kind, ref.trace[i].kind);
      EXPECT_EQ(lib.trace[i].occupants, ref.trace[i].occupants);
      EXPECT_EQ(lib.trace[i].winner, ref.trace[i].winner);
    }
    // Both streams consumed the same number of draws.
    EXPECT_EQ(rng_lib.uniform_int(0, 1 << 30), rng_ref.uniform_int(0, 1 << 30));
    // The library's obs counters tally the same slots as its result.
    EXPECT_EQ(slotted_counter("slots") - slots0, lib.slots);
    EXPECT_EQ(slotted_counter("idle") - idle0, lib.idle_slots);
    EXPECT_EQ(slotted_counter("success") - success0, lib.success_slots);
    EXPECT_EQ(slotted_counter("collision") - collision0, lib.collision_slots);
    EXPECT_EQ(slotted_counter("capture") - capture0, lib.capture_slots);
    EXPECT_EQ(slotted_counter("decode_fail") - decode0, lib.decode_failures);

    if (n > 0 && !ref.complete && ref.rounds == cfg.max_rounds) ++exhausted;
    if (ref.capture_slots > 0) ++captured;
    if (ref.decode_failures > 0) ++lossy;
    if (n == 0) ++empty;
    for (const net::anticollision::SlotRecord& rec : ref.trace)
      if (rec.slot >= 64) ++long_rounds;
  }
  // The matrix really reached each regime it claims to cover.
  EXPECT_GT(exhausted, 0u);
  EXPECT_GT(captured, 0u);
  EXPECT_GT(lossy, 0u);
  EXPECT_GT(empty, 0u);
  EXPECT_GT(long_rounds, 0u);
}

// ---------------------------------------------------------------------------
// 4. Reader <-> node MCS command flow, frame by frame
// ---------------------------------------------------------------------------

TEST(McsCommandConformance, QueryCarriesTheCommandedRungByte) {
  net::ReaderMac reader{net::MacTiming{}};
  const net::Frame plain = reader.make_query(5);
  EXPECT_TRUE(plain.payload.empty());  // fixed-rate wire format untouched

  net::mcs::AdaptConfig adapt;
  adapt.start_rung = 2;
  reader.enable_mcs(ladder(), adapt);
  const net::Frame q = reader.make_query(5);
  ASSERT_EQ(q.payload.size(), 1u);
  EXPECT_EQ(q.payload[0], 2u);
}

TEST(McsCommandConformance, NodeReconfiguresOnlyOnRungChange) {
  net::NodeMac node(5, net::MacTiming{});
  node.enable_mcs(ladder());
  EXPECT_EQ(node.current_rung(), McsLadder::kPaperRung);
  EXPECT_EQ(node.reconfigures(), 0u);  // opting in is not a reconfiguration

  net::ReaderMac reader{net::MacTiming{}};
  net::mcs::AdaptConfig adapt;
  adapt.start_rung = 1;
  reader.enable_mcs(ladder(), adapt);
  const net::SensorReading reading{11.0, 101.3, 2900};

  auto resp = node.on_downlink(reader.make_query(5), reading);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(node.current_rung(), 1u);
  EXPECT_EQ(node.reconfigures(), 1u);
  EXPECT_EQ(node.phy_config().uplink_code, ladder().rung(1).code);
  EXPECT_EQ(node.phy_config().bitrate_bps, ladder().rung(1).bitrate_bps);

  // Same commanded rung again: no spurious reconfiguration.
  (void)node.on_downlink(reader.make_query(5), reading);
  EXPECT_EQ(node.reconfigures(), 1u);
}

TEST(McsCommandConformance, NodeWithoutOptInIgnoresTheRungByte) {
  net::NodeMac node(5, net::MacTiming{});
  net::ReaderMac reader{net::MacTiming{}};
  net::mcs::AdaptConfig adapt;
  adapt.start_rung = 1;
  reader.enable_mcs(ladder(), adapt);
  const auto resp = node.on_downlink(reader.make_query(5), {11.0, 101.3, 2900});
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(node.mcs_enabled());
  EXPECT_EQ(node.current_rung(), 0u);
  EXPECT_EQ(node.reconfigures(), 0u);
}

TEST(McsCommandConformance, LostAckRetransmitsSameSeqAtTheCommandedRung) {
  net::NodeMac node(9, net::MacTiming{});
  node.enable_mcs(ladder());
  net::ReaderMac reader{net::MacTiming{}};
  reader.enable_mcs(ladder());
  const net::SensorReading reading{11.0, 101.3, 2900};

  const auto first = node.on_downlink(reader.make_query(9), reading);
  ASSERT_TRUE(first.has_value());
  const std::uint8_t seq = first->frame.seq;
  EXPECT_TRUE(node.awaiting_ack());

  // ACK lost; the next MCS-carrying query elicits the same seq again.
  const auto retry = node.on_downlink(reader.make_query(9), reading);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->frame.seq, seq);
  EXPECT_EQ(reader.on_report(first->frame), net::ReaderMac::UplinkEvent::kDelivered);
  EXPECT_EQ(reader.on_report(retry->frame), net::ReaderMac::UplinkEvent::kDuplicate);
}

TEST(McsCommandConformance, ObserveLinkWalksTheRungAndRecordsResidency) {
  net::ReaderMac reader{net::MacTiming{}};
  reader.enable_mcs(ladder());
  for (int i = 0; i < 60; ++i)
    reader.observe_link(9, common::SnrDb{30.0}, true);
  EXPECT_EQ(reader.rung_of(9), ladder().size() - 1);
  EXPECT_GT(reader.mcs_steps_up(), 0u);
  EXPECT_EQ(reader.mcs_steps_down(), 0u);
  std::size_t residency = 0;
  for (const auto& [rung, polls] : reader.rung_polls()) residency += polls;
  EXPECT_EQ(residency, 60u);
}

TEST(McsCommandConformance, PerRungPollCountersSumToPollsAndMatchResidency) {
  // The per-rung obs series (handles cached per reader) must count exactly
  // what rung_polls() records, and together every observed poll.
  auto series = [](std::size_t r) {
    return obs::Registry::global().counter_value("net.mcs.rung_polls{rung=" +
                                                  ladder().rung(r).name + "}");
  };
  std::vector<std::uint64_t> before(ladder().size());
  for (std::size_t r = 0; r < ladder().size(); ++r) before[r] = series(r);

  net::ReaderMac reader{net::MacTiming{}};
  reader.enable_mcs(ladder());
  std::size_t polls = 0;
  // Node 9 climbs to the top rung, node 4 falls to the bottom, node 5
  // stays where it started.
  for (int i = 0; i < 60; ++i, polls += 3) {
    reader.observe_link(9, common::SnrDb{30.0}, true);
    reader.observe_link(4, common::SnrDb{-20.0}, false);
    reader.observe_link(5, std::nullopt, i % 4 != 0);
  }
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < ladder().size(); ++r) {
    const std::uint64_t delta = series(r) - before[r];
    const auto it = reader.rung_polls().find(r);
    const std::size_t expected = it == reader.rung_polls().end() ? 0 : it->second;
    EXPECT_EQ(delta, expected) << "rung " << r;
    total += delta;
  }
  EXPECT_EQ(total, polls);
  EXPECT_GT(reader.rung_polls().size(), 2u);  // several rungs really ran
}

TEST(McsCommandConformance, DemoteResetsTheRateController) {
  net::ReaderMac reader{net::MacTiming{}};
  reader.enable_mcs(ladder());
  for (int i = 0; i < 60; ++i)
    reader.observe_link(9, common::SnrDb{30.0}, true);
  ASSERT_EQ(reader.rung_of(9), ladder().size() - 1);
  reader.demote(9);
  // Re-discovery starts the controller over at the configured start rung.
  EXPECT_EQ(reader.rung_of(9), static_cast<std::size_t>(McsLadder::kPaperRung));
  const net::mcs::RateController* ctl = reader.controller(9);
  ASSERT_NE(ctl, nullptr);
  EXPECT_EQ(ctl->polls(), 0u);
}

// ---------------------------------------------------------------------------
// 5. The fleet seam: penalty/slotted exclusivity and digest stability
// ---------------------------------------------------------------------------

bytes report_wire(std::uint8_t addr, std::uint8_t seq) {
  net::Frame f;
  f.addr = addr;
  f.type = net::FrameType::kSensorReport;
  f.seq = seq;
  f.payload = net::encode_reading({12.5, 101.3, 2900});
  return net::serialize(f);
}

TEST(FleetSeamConformance, SlottedModeWithholdsTheSinrPenalty) {
  // Regression for the double-charge seam: with the slotted MAC resolving
  // contention per slot, a contended window's uplink draws must be
  // *bit-identical* to an uncontended window's — the flat penalty may not
  // also be applied.
  sim::Scenario base = sim::vab_river_scenario();
  base.env.fading_sigma_db = 0.0;
  sim::fleet::FidelityPolicy policy;
  policy.mode = sim::fleet::FidelityMode::kBudgetOnly;

  auto run = [&](bool slotted, std::size_t contenders) {
    sim::fleet::FleetLinkTransport tp(base, policy, common::Db{3.0}, 96);
    tp.set_slotted_mode(slotted);
    common::Rng rng(0xC0117);
    tp.begin_window({{7, 420.0, common::SnrDb{0.0}}}, rng.child(1),  // marginal range
                    contenders);
    common::Rng poll_rng = rng.child(2);
    std::size_t delivered = 0;
    for (int i = 0; i < 200; ++i) {
      bytes wire = report_wire(0, static_cast<std::uint8_t>(i));
      if (tp.uplink_delivered(0, wire, poll_rng)) ++delivered;
    }
    return std::pair<std::size_t, std::size_t>{delivered,
                                               tp.tally().contended_polls};
  };

  const auto [clean, clean_contended] = run(false, 0);
  const auto [penalized, pen_contended] = run(false, 4);
  const auto [slotted, slot_contended] = run(true, 4);

  EXPECT_EQ(clean_contended, 0u);
  EXPECT_EQ(pen_contended, 200u);
  EXPECT_EQ(slot_contended, 200u);  // contention still tallied in slotted mode
  EXPECT_EQ(slotted, clean);        // ...but the penalty is withheld
  EXPECT_LT(penalized, clean);      // and it genuinely bites in penalty mode
}

sim::fleet::FleetConfig dense_config(sim::fleet::MacMode mode) {
  sim::fleet::FleetConfig cfg;
  cfg.scenario = sim::vab_river_scenario();
  cfg.scenario.env.fading_sigma_db = 0.0;
  cfg.n_readers = 4;
  cfg.n_nodes = 72;
  cfg.area_m = 900.0;  // typical link 300..550 m: inside the waterfall band
  cfg.max_link_range_m = 550.0;
  cfg.interference_range_m = 5000.0;  // every reader contends with every other
  cfg.contention_penalty_db = 4.0;
  cfg.inventory.max_polls = 64;  // finite poll budget per address window
  cfg.mac_mode = mode;
  cfg.fidelity.mode = sim::fleet::FidelityMode::kBudgetOnly;
  return cfg;
}

TEST(FleetSeamConformance, SlottedMacBeatsSinrPenaltyDeliveryWhenDense) {
  const auto penalty =
      run_fleet(dense_config(sim::fleet::MacMode::kSinrPenalty), common::Rng(11));
  const auto slotted =
      run_fleet(dense_config(sim::fleet::MacMode::kSlotted), common::Rng(11));
  ASSERT_EQ(penalty.assigned, slotted.assigned);
  ASSERT_GT(penalty.contended_windows, 0u);
  // The flat penalty stacks 4 dB per contending reader and pushes marginal
  // links under their waterfall; per-slot resolution does not.
  EXPECT_GT(slotted.delivered, penalty.delivered);
  // Slotted accounting is live and conserved.
  EXPECT_GT(slotted.slot_total, 0u);
  EXPECT_EQ(slotted.slot_idle + slotted.slot_success + slotted.slot_collision +
                slotted.slot_capture,
            slotted.slot_total);
  // ...and completely absent from the historical model.
  EXPECT_EQ(penalty.slot_total, 0u);
  EXPECT_EQ(penalty.slotted_unresolved, 0u);
}

TEST(FleetSeamConformance, SlottedChargesAcquisitionAirtime) {
  const auto slotted =
      run_fleet(dense_config(sim::fleet::MacMode::kSlotted), common::Rng(11));
  const auto penalty =
      run_fleet(dense_config(sim::fleet::MacMode::kSinrPenalty), common::Rng(11));
  // Slot acquisition is not free: the slotted run pays airtime for every
  // announced slot on top of the ARQ exchanges.
  EXPECT_GT(slotted.airtime_s, 0.0);
  EXPECT_GT(slotted.slot_total, 0u);
  (void)penalty;
}

class FleetThreadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("VAB_THREADS");
    common::set_thread_count(0);
  }
  void TearDown() override { common::set_thread_count(0); }
};

TEST_F(FleetThreadTest, SlottedReplicateDigestsBitIdenticalAcrossThreadCounts) {
  auto digests = [](unsigned threads) {
    common::set_thread_count(threads);
    sim::fleet::FleetConfig cfg = dense_config(sim::fleet::MacMode::kSlotted);
    cfg.n_nodes = 48;
    const auto runs = run_fleet_replicates(cfg, 6, common::Rng(0xD16E57));
    common::set_thread_count(0);
    std::vector<std::uint64_t> out;
    for (const auto& r : runs) out.push_back(r.digest);
    return out;
  };
  const auto serial = digests(1);
  EXPECT_EQ(digests(2), serial);
  EXPECT_EQ(digests(8), serial);
}

TEST_F(FleetThreadTest, McsLadderFleetDigestsBitIdenticalAcrossThreadCounts) {
  auto digests = [](unsigned threads) {
    common::set_thread_count(threads);
    sim::fleet::FleetConfig cfg = dense_config(sim::fleet::MacMode::kSlotted);
    cfg.n_nodes = 48;
    cfg.inventory.ladder = &ladder();
    const auto runs = run_fleet_replicates(cfg, 6, common::Rng(0xAD0BE));
    common::set_thread_count(0);
    std::vector<std::uint64_t> out;
    for (const auto& r : runs) out.push_back(r.digest);
    return out;
  };
  const auto serial = digests(1);
  EXPECT_EQ(digests(2), serial);
  EXPECT_EQ(digests(8), serial);
}

TEST(FleetSeamConformance, LegacyModeReportsZeroMcsAndSlotActivity) {
  sim::fleet::FleetConfig cfg = dense_config(sim::fleet::MacMode::kSinrPenalty);
  cfg.n_nodes = 24;
  const auto r = run_fleet(cfg, common::Rng(21));
  EXPECT_EQ(r.slot_total, 0u);
  EXPECT_EQ(r.mcs_steps_up, 0u);
  EXPECT_EQ(r.mcs_steps_down, 0u);
  EXPECT_EQ(r.reconfigures, 0u);
}

TEST(FleetSeamConformance, AdaptiveFleetRunReportsMcsActivity) {
  sim::fleet::FleetConfig cfg = dense_config(sim::fleet::MacMode::kSinrPenalty);
  cfg.n_nodes = 24;
  cfg.area_m = 400.0;  // short, clean links: MCS activity, full delivery
  cfg.interference_range_m = 0.0;  // isolate the MCS effect from contention
  cfg.inventory.ladder = &ladder();
  // Start below the nodes' power-on rung so the first query of every link
  // provably commands a reconfiguration even when windows are one poll long.
  cfg.inventory.adapt.start_rung = 1;
  const auto r = run_fleet(cfg, common::Rng(21));
  EXPECT_GT(r.reconfigures + r.mcs_steps_up + r.mcs_steps_down, 0u);
  EXPECT_TRUE(r.complete);
}

}  // namespace
}  // namespace vab
