// Fleet-side link transports: both PHY fidelities behind the
// net::LinkTransport seam, plus the policy that switches between them.
//
// - Budget fidelity (the fleet default): per poll, draw lognormal shadowing,
//   evaluate the calibrated link budget at the link's range, map chip SNR ->
//   FM0 BER -> frame-loss probability for the actual wire length, and flip
//   one coin. Cost: nanoseconds per poll, so 100k-node fleets are feasible.
// - Waveform fidelity: the report's wire bits ride the full pipeline
//   (projector carrier, multipath, array reflection, blast, Wenz noise,
//   SIC, demod); decode errors corrupt the wire in place and the reader's
//   CRC classifies the damage. Cost: milliseconds per poll, so the policy
//   escalates only marginal or contended links and a shared cap bounds the
//   per-run spend.
//
// Contention is a property of the address window: begin_window prices it
// once as an SINR penalty (contenders x contention_penalty_db), and both
// fidelities pay it. The budget draw subtracts it from the link's SNR; the
// waveform link derates its projector's source level by the same dB, which
// lowers the backscatter (linear in the source level) and leaves the
// ambient noise alone.
//
// Escalation is observable: per-transport tallies feed the fleet result and
// the obs fleet.* counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <optional>

#include "net/mcs/mcs.hpp"
#include "net/transport.hpp"
#include "sim/linkbudget.hpp"
#include "sim/scenario.hpp"
#include "sim/waveform_sim.hpp"

namespace vab::sim::fleet {

enum class FidelityMode : std::uint8_t {
  kAdaptive,      ///< budget by default, waveform for marginal/contended links
  kBudgetOnly,    ///< never escalate (fastest; large-fleet default)
  kWaveformOnly,  ///< every poll through the waveform pipeline (validation)
};

/// A link is "marginal" when its effective SNR sits within this margin of
/// the waterfall SNR (the SNR where frame delivery crosses 50%).
inline constexpr common::Db kEscalateMargin{2.0};

struct FidelityPolicy {
  FidelityMode mode = FidelityMode::kAdaptive;
  /// Shared per-run budget of waveform polls; past it, escalation falls
  /// back to budget fidelity (counted, never silent).
  std::size_t max_waveform_polls = 128;
};

/// Per-run escalation accounting, merged into FleetResult.
struct PollTally {
  std::size_t budget_polls = 0;
  std::size_t waveform_polls = 0;
  std::size_t escalations_marginal = 0;
  std::size_t escalations_contention = 0;
  std::size_t waveform_cap_hits = 0;
  std::size_t contended_polls = 0;
};

/// LinkTransport over one reader's active address window. Local MAC address
/// = index into the window's link table; each link carries its own range,
/// cached budget SNR, and (lazily, on escalation) a waveform simulator fed
/// by a per-link child stream.
class FleetLinkTransport final : public net::LinkTransport {
 public:
  struct LinkInfo {
    std::uint32_t node_id = 0;  ///< global id (seeds the wave stream)
    double range_m = 1.0;
    /// Filled by begin_window: budget SNR at range.
    common::SnrDb snr_db{0.0};
  };

  /// `report_bits` is the representative report wire length used to place
  /// the waterfall SNR (delivery = 50%) for the escalation margin.
  FleetLinkTransport(const Scenario& base, const FidelityPolicy& policy,
                     common::Db contention_penalty, std::size_t report_bits);

  /// Installs the links of the next address window (index = local addr), the
  /// stream that seeds per-link waveform draws, and the number of other
  /// readers mid-exchange in interference range. The window's SINR penalty,
  /// `contenders` x `contention_penalty`, applies to every poll at either
  /// fidelity.
  void begin_window(std::vector<LinkInfo> links, common::Rng wave_stream,
                    std::size_t contenders = 0);

  /// Declares that a real slotted MAC arbitrates contention. The flat
  /// per-contender SINR penalty and the slotted MAC model the same physics
  /// (concurrent in-range exchanges), so they are mutually exclusive: in
  /// slotted mode the penalty is NOT applied — collisions are resolved per
  /// slot upstream — while contended polls are still tallied and still
  /// eligible for waveform escalation.
  void set_slotted_mode(bool on) { slotted_mode_ = on; }
  bool slotted_mode() const { return slotted_mode_; }

  bool downlink_delivered(std::uint8_t addr, common::Rng& rng) override;
  bool uplink_delivered(std::uint8_t addr, bytes& wire, common::Rng& rng) override;
  bool ack_delivered(std::uint8_t addr, common::Rng& rng) override;

  /// MCS seam: a commanded rung reroutes the budget path through that
  /// rung's analytic delivery curve (the waveform pipeline models only the
  /// scenario's fixed PHY, so MCS-commanded polls pin budget fidelity).
  void set_uplink_mcs(std::uint8_t addr, const net::mcs::McsEntry* entry) override;
  std::optional<common::SnrDb> last_uplink_snr_db() const override {
    return last_snr_db_;
  }

  const PollTally& tally() const { return tally_; }
  common::SnrDb waterfall_snr_db() const { return common::SnrDb{waterfall_snr_db_}; }
  /// Active window's links with their budget SNRs (filled by begin_window).
  const std::vector<LinkInfo>& links() const { return links_; }

 private:
  struct WaveLink {
    common::Rng rng;
    WaveformSimulator sim;
    WaveLink(Scenario s, common::Rng stream) : rng(stream), sim(std::move(s), rng) {}
  };

  /// True when the poll at effective SNR `snr_eff` runs at waveform
  /// fidelity; tallies the escalation and any cap hit.
  bool choose_fidelity(common::SnrDb snr_eff);
  WaveLink& wave_link(std::uint8_t addr);

  Scenario base_;
  FidelityPolicy policy_;
  double contention_penalty_db_;
  double waterfall_snr_db_ = 0.0;
  LinkBudget budget_;
  std::vector<LinkInfo> links_;
  std::vector<std::unique_ptr<WaveLink>> wave_;  ///< lazy, per window addr
  std::vector<const net::mcs::McsEntry*> mcs_;   ///< commanded rung, per addr
  common::Rng wave_stream_{0};
  std::size_t contenders_ = 0;
  double penalty_db_ = 0.0;  ///< this window's SINR penalty
  bool slotted_mode_ = false;
  PollTally tally_;
  std::optional<common::SnrDb> last_snr_db_;
};

}  // namespace vab::sim::fleet
