#pragma once
// Online adaptive re-placement. The paper closes its feedback loop offline
// (run, harvest the measured comm matrix, re-place, run again); this module
// closes it *while the program runs*: the runtime accumulates the flow
// matrix per epoch (a configurable window of iterations), and at each epoch
// boundary a Replacer compares the fresh window against the matrix the
// current mapping was computed from. When the normalized distance
// (comm::normalized_distance — total variation of the volume-normalized
// patterns) exceeds the policy's threshold, Algorithm 1 re-runs on the
// fresh window and the backend rebinds the compute threads in place
// (topo::bind_thread), without stopping the run.
//
// Both backends drive the same Replacer: RuntimeBackend feeds it measured
// Instrument windows and physically migrates threads; SimBackend feeds it
// the analytic per-window matrices of the declared access schedule and
// charges LinkCost::migration_cost per migrated thread — so predictions
// and real runs adapt identically.

#include <cstdint>
#include <optional>
#include <string>

#include "comm/comm_matrix.h"
#include "place/placement.h"
#include "topo/topology.h"
#include "treematch/treematch.h"

namespace orwl::place {

/// When (if ever) to re-run Algorithm 1 during a run.
struct ReplacementPolicy {
  enum class Mode {
    Off,         ///< static placement only (the default)
    EveryEpoch,  ///< re-place on every epoch's fresh matrix, unconditionally
    OnDrift,     ///< re-place only when drift exceeds drift_threshold
  };

  Mode mode = Mode::Off;
  /// Epoch window length in iterations (>= 1 when the mode is not Off).
  int epoch_length = 0;
  /// OnDrift trigger: normalized distance in [0, 1] between the epoch's
  /// matrix and the one the current mapping was computed from.
  double drift_threshold = 0.25;

  [[nodiscard]] bool enabled() const { return mode != Mode::Off; }

  static ReplacementPolicy off() { return {}; }
  static ReplacementPolicy every_epoch(int epoch_length) {
    return {Mode::EveryEpoch, epoch_length, 0.0};
  }
  static ReplacementPolicy on_drift(double threshold, int epoch_length) {
    return {Mode::OnDrift, epoch_length, threshold};
  }
};

const char* to_string(ReplacementPolicy::Mode m);
/// Accepts "off", "every"/"every_epoch", "drift"/"on_drift" (any case).
ReplacementPolicy::Mode parse_replacement_mode(const std::string& name);

/// The per-epoch decision engine. Construct once per run with the matrix
/// the initial mapping was computed from; feed it each epoch's fresh flow
/// matrix. Decisions are deterministic in the inputs.
class Replacer {
 public:
  /// `basis` is the matrix the current mapping was computed from — the
  /// declared static matrix, or the explicit place_using() override.
  /// `topo` must outlive the Replacer.
  Replacer(ReplacementPolicy policy, const topo::Topology& topo,
           treematch::Options tm_opts, std::uint64_t seed,
           comm::CommMatrix basis);

  struct Decision {
    /// Normalized distance between the epoch matrix and the basis.
    double drift = 0.0;
    /// Algorithm 1 re-ran; `plan` holds the new mapping and the epoch
    /// matrix became the new basis.
    bool replaced = false;
    Plan plan;
  };

  /// Evaluate one epoch window. An empty (zero-volume) window never
  /// triggers — nothing was measured, so nothing drifted.
  Decision evaluate(const comm::CommMatrix& epoch_matrix);

  [[nodiscard]] const ReplacementPolicy& policy() const { return policy_; }
  [[nodiscard]] int replacements() const { return replacements_; }

 private:
  ReplacementPolicy policy_;
  const topo::Topology& topo_;
  treematch::Options tm_opts_;
  std::uint64_t seed_;
  comm::CommMatrix basis_;
  int replacements_ = 0;
};

/// Tasks whose compute PU differs between the two mappings — what a
/// re-placement actually migrates. Sizes must match.
int count_migrations(const comm::Mapping& from, const comm::Mapping& to);

}  // namespace orwl::place
