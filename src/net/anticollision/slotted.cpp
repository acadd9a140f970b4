#include "net/anticollision/slotted.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.hpp"

namespace vab::net::anticollision {

namespace {
// Slot-outcome accounting across all slotted runs: how contention resolves.
struct SlottedMetrics {
  obs::Counter slots = obs::counter("net.slotted.slots");
  obs::Counter idle = obs::counter("net.slotted.idle");
  obs::Counter success = obs::counter("net.slotted.success");
  obs::Counter collision = obs::counter("net.slotted.collision");
  obs::Counter capture = obs::counter("net.slotted.capture");
  obs::Counter decode_fail = obs::counter("net.slotted.decode_fail");

  static SlottedMetrics& get() {
    static SlottedMetrics* m = new SlottedMetrics;  // leaked: read at exit
    return *m;
  }
};

// Slots a round walks by scanning the draws before it sorts them instead.
constexpr std::size_t kScanSlots = 16;

double clamp_q(double q, const QConfig& cfg) {
  return std::min(cfg.q_max, std::max(cfg.q_min, q));
}
}  // namespace

QAdapter::QAdapter(const QConfig& cfg) : cfg_(cfg), qfp_(clamp_q(cfg.q_init, cfg)) {}

std::uint8_t QAdapter::q() const {
  return static_cast<std::uint8_t>(std::llround(qfp_));
}

void QAdapter::on_slot(SlotKind kind) {
  switch (kind) {
    case SlotKind::kCollision: qfp_ = clamp_q(qfp_ + cfg_.c_up, cfg_); break;
    case SlotKind::kIdle: qfp_ = clamp_q(qfp_ - cfg_.c_down, cfg_); break;
    case SlotKind::kSuccess:
    case SlotKind::kCapture: break;
  }
}

SlottedResult run_slotted_inventory(const std::vector<Contender>& contenders,
                                    const QConfig& cfg, common::Rng& rng) {
  SlottedResult res;
  QAdapter adapter(cfg);
  std::vector<std::size_t> unresolved;
  unresolved.reserve(contenders.size());
  for (std::size_t i = 0; i < contenders.size(); ++i) unresolved.push_back(i);

  // Scratch reused across rounds: a frame of 2^Q slots costs no allocation,
  // however large Q is or however early the round is cancelled.
  using Draw = std::pair<std::size_t, std::size_t>;  // (slot, contender)
  std::vector<Draw> draws;
  draws.reserve(contenders.size());
  std::vector<std::size_t> occ;
  std::vector<double> powers;
  std::vector<bool> resolved_now(contenders.size(), false);

  while (!unresolved.empty() && res.rounds < cfg.max_rounds) {
    const std::uint8_t round_q = adapter.q();
    const std::size_t frame = adapter.frame_slots();
    // Every unresolved contender draws its slot first, in ascending
    // contender order: the documented draw schedule.
    draws.clear();
    for (std::size_t idx : unresolved) {
      const auto slot = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(frame) - 1));
      draws.emplace_back(slot, idx);
    }
    // Then the reader walks the frame slot by slot. Most rounds are
    // cancelled within a few slots, so the first kScanSlots slots gather
    // their occupants by scanning the draws (already in ascending contender
    // order); a round that runs longer sorts the draws by (slot, contender)
    // once and walks them with a cursor. Either way each slot's occupants
    // come out in ascending contender order, as from a per-slot bucket.
    bool sorted = false;
    std::size_t next = 0;  // sorted-walk cursor
    for (std::size_t s = 0; s < frame; ++s) {
      occ.clear();
      if (!sorted && s == kScanSlots) {
        std::sort(draws.begin(), draws.end());
        next = static_cast<std::size_t>(
            std::lower_bound(draws.begin(), draws.end(), Draw{s, 0}) - draws.begin());
        sorted = true;
      }
      if (sorted) {
        for (; next < draws.size() && draws[next].first == s; ++next)
          occ.push_back(draws[next].second);
      } else {
        for (const Draw& d : draws)
          if (d.first == s) occ.push_back(d.second);
      }
      const std::size_t n_occ = occ.size();
      SlotKind kind = SlotKind::kIdle;
      std::uint16_t winner_id = 0;
      if (n_occ > 0) {
        powers.clear();
        for (std::size_t idx : occ) powers.push_back(contenders[idx].rx_power_rel);
        const std::optional<std::size_t> won = resolve_capture(powers, cfg.capture);
        if (!won.has_value()) {
          kind = SlotKind::kCollision;
        } else {
          const std::size_t widx = occ[*won];
          // The winning reply still has to decode at its link SNR; a failed
          // decode is indistinguishable from a collision at the reader.
          if (rng.coin(contenders[widx].delivery_prob)) {
            kind = n_occ == 1 ? SlotKind::kSuccess : SlotKind::kCapture;
            winner_id = contenders[widx].id;
            res.resolved.push_back(winner_id);
            resolved_now[widx] = true;
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
      if (cfg.record_trace) res.trace.push_back({res.rounds, s, kind, n_occ, winner_id});
      // Gen2 QueryAdjust: once the accumulated evidence moves the integer Q,
      // the reader cancels the rest of the frame and re-announces at the new
      // size. Without this, a badly sized frame must be walked to the end
      // and Qfp overshoots by the full frame's worth of updates (a 2^15-slot
      // idle frame after one overloaded round).
      if (adapter.q() != round_q) break;
    }
    // Drop this round's winners; the survivors keep ascending order.
    std::erase_if(unresolved, [&](std::size_t idx) { return resolved_now[idx]; });
    ++res.rounds;
  }
  res.complete = unresolved.empty();
  res.final_qfp = adapter.qfp();

  SlottedMetrics& m = SlottedMetrics::get();
  m.slots.add(res.slots);
  m.idle.add(res.idle_slots);
  m.success.add(res.success_slots);
  m.collision.add(res.collision_slots);
  m.capture.add(res.capture_slots);
  m.decode_fail.add(res.decode_failures);
  return res;
}

}  // namespace vab::net::anticollision
