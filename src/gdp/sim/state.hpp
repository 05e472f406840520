// The instantaneous configuration of a generalized dining-philosophers
// system: one ForkState per fork, one PhilState per philosopher, plus an
// algorithm-owned auxiliary word vector (used only by the non-distributed
// baselines of §1 — the arbiter's queue and the ticket box).
//
// SimState is a value type. An algorithm's step emits each probabilistic
// branch as a successor built in a caller-owned scratch SimState (copied
// from the current state, then mutated) or as the current state itself, which
// serves the simulator (sample a branch), the MDP model checker (enumerate
// all branches) and the replayer identically. Copy-assigning into a scratch
// of the same shape reuses its storage, so a reused scratch steps without
// allocating.
//
// Paper state fields:
//   fork.holder          — who holds the fork (test-and-set target, §2)
//   fork.nr              — GDP's number field, in [0, m], initially 0 (§4)
//   fork.requests        — LR2/GDP2's request list r, one bit per sharer slot
//   fork.use_rank        — LR2/GDP2's guest book g, reduced to dense last-use
//                          ranks per sharer (0 = never used). Cond() only
//                          compares the order of last uses, so ranks carry
//                          exactly the needed information and stay bounded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gdp/common/ids.hpp"
#include "gdp/graph/topology.hpp"

namespace gdp::sim {

/// Where a philosopher is inside its program. Phases are labels shared by
/// all algorithms; the per-phase semantics live in each algorithm's step().
enum class Phase : std::uint8_t {
  kThinking,   // step "think"
  kRegister,   // LR2/GDP2: insert id into both forks' request lists
  kChoose,     // pick the first fork (random draw, or nr comparison)
  kCommit,     // busy-wait test-and-set on the chosen first fork
  kRenumber,   // GDP1/GDP2: holding first fork, re-randomize nr on equality
  kTrySecond,  // test-and-set on the second fork
  kEating,     // holds both forks
  kWaitGrant,  // baselines: waiting on the arbiter / ticket box
};

const char* to_string(Phase phase);

struct PhilState {
  Phase phase = Phase::kThinking;
  /// Which side the philosopher committed to as *first* fork
  /// (meaningful in kCommit / kRenumber / kTrySecond).
  Side committed = Side::kLeft;
  /// Small algorithm-owned scratch (GDP-H: acquisition progress).
  std::int16_t scratch = 0;

  bool operator==(const PhilState&) const = default;
};

struct ForkState {
  /// Holder philosopher, or kNoPhil if the fork is on the table.
  PhilId holder = kNoPhil;
  /// GDP's nr field (0 initially; algorithms write values in [1, m]).
  std::uint16_t nr = 0;
  /// Request bits, indexed by sharer slot (Topology::slot_of). Only
  /// book-keeping algorithms (LR2/GDP2) set these; degree <= 64 enforced
  /// when books are in use.
  std::uint64_t requests = 0;
  /// Dense last-use ranks per sharer slot; 0 = never used, otherwise the
  /// 1-based position in the order of most-recent uses (higher = more
  /// recent). Empty when the algorithm keeps no books.
  std::vector<std::uint8_t> use_rank;

  bool free() const { return holder == kNoPhil; }
  bool requested_by_slot(int slot) const { return (requests >> slot) & 1u; }

  bool operator==(const ForkState&) const = default;
};

struct SimState {
  std::vector<ForkState> forks;
  std::vector<PhilState> phils;
  /// Algorithm-owned global words (baselines only; empty otherwise).
  std::vector<std::int32_t> aux;

  bool operator==(const SimState&) const = default;

  const ForkState& fork(ForkId f) const { return forks[static_cast<std::size_t>(f)]; }
  ForkState& fork(ForkId f) { return forks[static_cast<std::size_t>(f)]; }
  const PhilState& phil(PhilId p) const { return phils[static_cast<std::size_t>(p)]; }
  PhilState& phil(PhilId p) { return phils[static_cast<std::size_t>(p)]; }

  /// Serializes to bytes (exact, canonical). Formerly the MDP state key;
  /// the explorers now intern bit-packed fixed-width keys (gdp/mdp/key.hpp)
  /// instead. Kept as the reference encoding: test_differential cross-checks
  /// every KeyCodec key against these bytes so the packed layout can never
  /// silently drop a distinguishing field.
  void encode(std::vector<std::uint8_t>& out) const;
};

/// Fork-state mutations shared by the algorithms. -----------------------------

/// The paper's atomic "if isFree(fork) then take(fork)": returns true and
/// records `p` as holder iff the fork was free.
bool try_take(SimState& state, ForkId f, PhilId p);

/// Releases fork f (precondition: held by p).
void release(SimState& state, ForkId f, PhilId p);

/// Marks p's use of fork f in the guest book: p becomes the most recent
/// user and ranks are re-normalized to stay dense.
void mark_used(SimState& state, const graph::Topology& t, ForkId f, PhilId p);

/// LR2/GDP2's Cond(fork) for philosopher p: no *other* philosopher is
/// requesting f, or every other requester has used f no earlier than p.
bool cond_holds(const SimState& state, const graph::Topology& t, ForkId f, PhilId p);

/// Queries. -------------------------------------------------------------------

/// True iff some philosopher is eating (the paper's set E).
bool someone_eating(const SimState& state);

/// Bitmask of currently-eating philosophers (bit p set iff p eats);
/// supports the paper's "progress wrt a set" and lockout-freedom notions.
/// Philosophers beyond id 63 fold onto bit 63 (no such topology in-tree).
std::uint64_t eater_mask(const SimState& state);

/// True iff philosopher p is in its trying section (steps 2..5/6 — anything
/// that is neither thinking nor eating), or eating-pending; the paper's Ti.
bool is_trying(const SimState& state, PhilId p);

/// True iff some philosopher is trying (the paper's set T).
bool someone_trying(const SimState& state);

/// Number of forks currently held by p.
int forks_held(const SimState& state, const graph::Topology& t, PhilId p);

/// Structural invariants: holders are adjacent and in holding phases, eating
/// philosophers hold both forks, ranks are dense, request bits only on
/// sharers. Returns an empty string if fine, else a description.
std::string check_invariants(const SimState& state, const graph::Topology& t);

/// One-line rendering "f0:P3(nr=2) f1:-(nr=0) | P0:Commit(L) ..." for tests
/// and traces.
std::string to_string(const SimState& state, const graph::Topology& t);

}  // namespace gdp::sim
