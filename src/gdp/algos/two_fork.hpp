// The two-fork philosopher program: LR1, LR2 (Lehmann & Rabin, "On the
// advantages of free choice", POPL 1981, in the paper's generalized
// formulation), GDP1, GDP2 and GDP2c (the paper's solutions) and the two
// hold-and-wait baselines of its introduction, as one atomic-step relation.
//
// All seven run the same machine,
//
//   Think -> [Register] -> Choose -> Commit -> [Renumber] -> TrySecond -> Eat,
//
// and differ only along the paper's design axes, one table row each (see
// two_fork.cpp): how the first fork is chosen, whether the philosopher is
// courteous, whether Cond also guards the second take, and what a taken
// second fork makes it do.
//
// LR1 (Table 1):
//
//   1. think;
//   2. fork := random_choice(left, right);
//   3. if isFree(fork) then take(fork) else goto 3;
//   4. if isFree(other(fork)) then take(other(fork))
//      else { release(fork); goto 2 }
//   5. eat;
//   6. release(fork); release(other(fork));
//   7. goto 1;
//
// Guarantees progress with probability 1 on the classic ring under every
// fair adversary (Lehmann & Rabin 1981); *fails* on generalized topologies
// (paper §3, Theorem 1) — see gdp/sim/schedulers/trap_fig1a.hpp for the
// winning adversary.
//
// LR2 (Table 2), the courteous / lockout-free one:
//
//   1.  think;
//   2.  insert(id, left.r); insert(id, right.r);
//   3.  fork := random_choice(left, right);
//   4.  if isFree(fork) and Cond(fork) then take(fork) else goto 4;
//   5.  if isFree(other(fork)) then take(other(fork))
//       else { release(fork); goto 3 }
//   6.  eat;
//   7.  remove(id, left.r); remove(id, right.r);
//   8.  insert(id, left.g); insert(id, right.g);
//   9.  release(fork); release(other(fork));
//   10. goto 1;
//
// Cond(fork): there are no other incoming requests for the fork, or every
// other requester has used it after this philosopher did (the courtesy that
// yields lockout-freedom on the classic ring). Lockout-free on the ring;
// *fails* on graphs with a ring + a third path between two of its nodes
// (paper §3.2, Theorem 2) — the same trap_fig1a.hpp schedule defeats it.
//
// Granularity notes (documented deviations, behaviour-preserving):
//   * line 2's two inserts are one atomic step (they precede any contention);
//   * lines 7-9 (deregister, sign guest books, release both) execute in the
//     single "finish eating" step — the paper's adversary arguments only
//     inspect configurations between steps of *other* philosophers, and no
//     other philosopher can act between sub-actions of an atomic step.
//
// GDP1 (§4, Table 3), the deadlock-free solution for arbitrary topologies:
//
//   1. think;
//   2. if left.nr > right.nr then fork := left else fork := right;
//   3. if isFree(fork) then take(fork) else goto 3;
//   4. if fork.nr = other(fork).nr then fork.nr := random[1, m];
//   5. if isFree(other(fork)) then take(other(fork))
//      else { release(fork); goto 2 }
//   6. eat;
//   7. release(fork); release(other(fork));
//   8. goto 1;
//
// Every fork carries a number nr in [0, m], m >= k, initially 0. The first
// fork is the higher-numbered one (ties go to `right`, per the else branch);
// a philosopher holding its first fork re-randomizes that fork's nr if it
// equals the other fork's. Randomization eventually makes all adjacent forks
// distinct along every cycle, after which the system behaves like a
// hierarchical (partial-order) resource allocator: progress with probability
// 1 under every fair adversary (Theorem 3). Not lockout-free (§5's
// counter-scenario; see GDP2 and the StarveVictim scheduler).
//
// Note the re-randomization has no retry: random[1, m] may collide again
// (probability 1/m) and the philosopher proceeds regardless — exactly as in
// Table 3; the proof only needs fresh attempts on later passes.
//
// GDP2 (§5, Table 4), the lockout-free solution: GDP1's random-priority fork
// selection plus LR2's courtesy machinery (request lists and guest books).
//
//   1.  think;
//   2.  insert(id, left.r); insert(id, right.r);
//   3.  if left.nr > right.nr then fork := left else fork := right;
//   4.  if isFree(fork) and Cond(fork) then take(fork) else goto 4;
//   5.  if fork.nr = other(fork).nr then fork.nr := random[1, m];
//   6.  if isFree(other(fork)) then take(other(fork))
//       else { release(fork); goto 3 }
//   7.  eat;
//   8.  remove(id, left.r); remove(id, right.r);
//   9.  insert(id, left.g); insert(id, right.g);
//   10. release(fork); release(other(fork));
//   11. goto 1;
//
// Theorem 4: Ti -> Ei with probability 1 under every fair adversary — every
// hungry philosopher eventually eats. Same atomicity conventions as LR2.
//
// REPRODUCTION NOTE (machine-checked, see experiment E5/E7): Table 4 as
// printed guards only the FIRST take with Cond (step 4); the second take
// (step 6) tests isFree alone. Under that literal reading our model checker
// finds a reachable fair end component in which a fixed philosopher never
// eats even on the classic ring(3): a neighbour whose nr-ordering routes the
// shared fork through its *second* take re-eats forever without ever facing
// the courtesy test, violating the W_{i,s} invariant of Theorem 4's proof
// ("philosophers that have eaten cannot eat again until their neighbours
// have"). The paper's prose — "BEFORE PICKING UP A FORK, a philosopher must
// check ..." (§3.2) — applies Cond to every pick; with Cond on both takes
// the checker certifies lockout-freedom. We therefore provide:
//   * literal Table 4,                 factory name "gdp2"
//   * the courteous-both variant,      factory name "gdp2c"  <- Theorem 4
// On a Cond failure at the second fork the variant releases the first and
// re-chooses (the same escape Table 4 uses for a taken second fork), which
// preserves the no-hold-and-wait discipline and hence progress.
//
// "ordered", baseline 1 of the paper's introduction: "The forks are ordered
// and each philosopher tries to get first the adjacent fork which is higher
// in the ordering." The global order is the fork id. Acquiring consistently
// by the order lets a philosopher *hold and wait* for the second fork (no
// release/retry): a circular wait would need a philosopher waiting downward
// in the order, which cannot happen — the classic hierarchical resource
// allocation argument, valid on arbitrary topologies. NOT symmetric (fork
// ids distinguish states); deterministic; serves as the partial-order ideal
// that GDP1 randomly converges to (§4's proof reduces the post-convergence
// behaviour to exactly this algorithm).
//
// "colored", baseline 2: "The philosophers are colored yellow and blue
// alternately. The yellow philosophers try to get first the fork to their
// left. The blue ones try to get first the fork to their right."
// Alternation requires an even ring (the line graph must be 2-colorable with
// the alternating pattern); validate() enforces a classic even ring in
// canonical orientation (philosopher i between forks i and i+1 mod n). Even
// philosophers are yellow. With the alternation, every fork that is anyone's
// *first* fork is nobody's first-from-the-other-side, so hold-and-wait is
// deadlock-free. NOT symmetric (colors distinguish philosophers).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "gdp/algos/algorithm.hpp"

namespace gdp::algos {

/// How Choose picks the first fork.
enum class FirstFork : std::uint8_t {
  kDraw,      // random_choice(left, right) with P(left) = p_left (LR1, LR2)
  kHigherNr,  // the higher nr, ties right; adds the Renumber step (GDP1, GDP2)
  kHigherId,  // the higher fork id (ordered)
  kColor,     // even philosophers left, odd right (colored)
};

/// One row of the two-fork table: a program's position on the design axes.
/// The simulator's step() and the real-thread runtime (gdp/runtime) both
/// read these columns, so a new row runs in both.
struct TwoForkVariant {
  const char* name;
  FirstFork first;
  /// Request bits, Cond on the first take, guest books signed after eating.
  bool courteous;
  /// Cond also guards the second take (gdp2c; see the note above).
  bool cond_on_second;
  /// A taken second fork: keep the first and wait (true), or release it
  /// and choose again (false).
  bool hold_second;
};

/// Every row, in table order: lr1, lr2, gdp1, gdp2, gdp2c, ordered, colored.
std::span<const TwoForkVariant> two_fork_variants();

/// The row named `name`; nullptr for any other name.
const TwoForkVariant* find_two_fork(const std::string& name);

/// The two-fork program named `name` (a two_fork_variants() row); nullptr
/// for any other name.
std::unique_ptr<Algorithm> make_two_fork(const std::string& name, AlgoConfig config);

}  // namespace gdp::algos
