// Per-node rate adaptation over an McsLadder.
//
// The controller follows the dragonradio reconfigure-on-change discipline:
// it folds link observations into EWMAs and only *proposes* a rung change
// when the evidence crosses a hysteresis band and a minimum dwell has
// elapsed — the caller (ReaderMac) applies the change, and the node's
// modem/FEC state reconfigures only when the commanded rung differs from
// the current one.
//
// Two feedback paths drive the same rung state:
//  - SNR path (preferred): the transport reports a per-poll link SNR on the
//    reference scale; the EWMA is compared against per-rung thresholds
//    derived from the ladder's analytic delivery curves. Step down when the
//    EWMA falls below the SNR where the *current* rung sustains
//    `target_delivery`; step up when it clears the SNR where the *next*
//    rung sustains it, plus `hysteresis_db`. The gap between those
//    thresholds is what prevents rung flapping under constant SNR.
//  - Outcome path (fallback, e.g. over the historical i.i.d. model): a
//    delivery EWMA (a BER proxy) is compared against fixed delivery bands.
#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "common/units.hpp"
#include "net/mcs/mcs.hpp"

namespace vab::net::mcs {

struct AdaptConfig {
  double ewma_alpha = 0.25;        ///< weight of the newest observation
  double target_delivery = 0.9;    ///< per-rung sustainable delivery target
  double hysteresis_db = 1.5;      ///< extra SNR demanded before stepping up
  std::size_t min_dwell_polls = 4; ///< polls between consecutive rung changes
  std::size_t start_rung = McsLadder::kPaperRung;  ///< clamped to the ladder
  /// Representative frame length for the threshold curves.
  std::size_t frame_bits = kValidationFrameBits;
  /// Outcome-path bands (used when no SNR measurement is available).
  double outcome_down_below = 0.7;  ///< delivery EWMA that forces a step down
  double outcome_up_above = 0.98;   ///< delivery EWMA that allows a step up
  /// Pin the controller to start_rung (fault-matrix runs that must compare
  /// rungs under identical fault schedules).
  bool frozen = false;
};

/// Rejects a config no controller can run with, throwing
/// std::invalid_argument naming the field: target_delivery must lie in
/// (0, 1), ewma_alpha in (0, 1], frame_bits >= 1, and
/// outcome_down_below < outcome_up_above.
void validate(const AdaptConfig& cfg);

/// One node's adaptation state machine. Deterministic: decisions are a pure
/// function of the observation sequence (no RNG, no clock).
class RateController {
 public:
  /// Validates `cfg` (see validate()) and copies the ladder's shared
  /// per-rung sustain thresholds for (target_delivery, frame_bits); the
  /// bisection runs once per ladder and config, not once per node.
  RateController(const McsLadder& ladder, AdaptConfig cfg);

  /// Feeds one poll observation. `snr_ref` is the transport's measured
  /// link SNR when it has one (reference scale); `delivered` is whether the
  /// report decoded. Returns +1 / -1 when the controller stepped up / down
  /// as a result, 0 otherwise.
  int observe(std::optional<common::SnrDb> snr_ref, bool delivered);

  /// Forgets link state (node demoted to re-discovery): rung returns to
  /// start_rung, EWMAs and dwell reset.
  void reset();

  std::size_t rung() const { return rung_; }
  std::size_t polls() const { return polls_; }
  std::size_t steps_up() const { return steps_up_; }
  std::size_t steps_down() const { return steps_down_; }
  bool has_snr() const { return snr_ewma_.has_value(); }
  common::SnrDb snr_ewma() const { return common::SnrDb{snr_ewma_.value_or(0.0)}; }
  double delivery_ewma() const { return delivery_ewma_; }

  /// SNR below which `rung` cannot sustain the delivery target (step-down
  /// threshold; -inf for the bottom rung).
  common::SnrDb down_threshold(std::size_t rung_index) const;
  /// SNR above which the rung *above* `rung_index` sustains the target with
  /// hysteresis margin (step-up threshold; +inf at the top).
  common::SnrDb up_threshold(std::size_t rung_index) const;

 private:
  int try_step();

  const McsLadder* ladder_;
  AdaptConfig cfg_;
  /// Per-rung target-delivery SNR (first ladder_->size() entries used).
  std::array<double, kMaxRungs> sustain_snr_db_{};
  std::size_t rung_ = 0;
  std::optional<double> snr_ewma_;
  double delivery_ewma_ = 1.0;
  bool have_outcome_ = false;
  std::size_t polls_ = 0;
  std::size_t polls_at_change_ = 0;
  std::size_t steps_up_ = 0;
  std::size_t steps_down_ = 0;
};

}  // namespace vab::net::mcs
