// The paper's motivating application (§1, §6): implementing the
// pi-calculus' *mixed guarded choice* in a symmetric, fully distributed way.
//
// An agent performing  select(a!v -> P, b?x -> Q)  must atomically commit to
// exactly one of two channels it shares with other agents. Mapping channels
// to forks and choosing agents to philosophers (the reduction sketched in
// the paper: "the resources correspond to the channels"), committing a
// choice = acquiring both adjacent channels; a channel shared by many
// agents is precisely a fork shared by many philosophers, i.e. the
// *generalized* problem — which is why the paper needs GDP rather than
// Lehmann-Rabin.
//
// The runtime here is a miniature but real implementation:
//   * Channel: a fork-like lock (holder may scan/mutate the channel's offer
//     list) with a GDP nr priority field;
//   * Offer: an agent's claimable intent (send or receive) with an atomic
//     commit word — rendezvous commits by CAS, so a matched peer never
//     needs a third channel's lock;
//   * ChoiceAgent loop: acquire both channels GDP-style, match a
//     complementary pending offer (completing a rendezvous) or post its own
//     offer to both, release, and await its offer being claimed.
//
// Every synchronization pairs one sender with one receiver on one channel;
// the tests check global pairing consistency and (under the courteous
// variant) that no agent starves.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "gdp/graph/topology.hpp"

namespace gdp::pi {

struct ChoiceConfig {
  std::uint64_t seed = 1;
  /// Stop once this many rendezvous completed (split across agents) and
  /// every agent has taken part in one: a run ends on each agent's
  /// progress, not on a total the others can reach before a slow thread
  /// starts.
  std::uint64_t target_syncs = 1000;
  /// Safety-net duration after which the run stops regardless; a run it
  /// stops reports timed_out.
  std::chrono::milliseconds max_duration{10'000};
  /// GDP numbering range (0 = number of channels).
  int m = 0;
};

struct ChoiceResult {
  std::uint64_t total_syncs = 0;
  /// Per agent: rendezvous completed (as either matcher or matchee).
  std::vector<std::uint64_t> syncs_of;
  /// Per channel: rendezvous carried.
  std::vector<std::uint64_t> syncs_on;
  double elapsed_seconds = 0.0;
  double syncs_per_second = 0.0;
  /// Pairing violations detected (an offer claimed twice, etc.); must be 0.
  std::uint64_t violations = 0;
  /// The duration cap ended the run before its sync targets were met.
  bool timed_out = false;

  bool everyone_synced() const;
};

/// Runs one choosing agent per topology arc (channels = forks) with real
/// threads until `target_syncs` (with every agent synced) or the duration
/// cap. Agents with even id
/// offer sends, odd id offers receives, and any agent may *match* either
/// direction — a genuine mixed choice.
ChoiceResult run_guarded_choice(const graph::Topology& t, const ChoiceConfig& config);

}  // namespace gdp::pi
