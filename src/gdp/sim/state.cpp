#include "gdp/sim/state.hpp"

#include <algorithm>
#include <array>

#include "gdp/common/check.hpp"
#include "gdp/common/strings.hpp"

namespace gdp::sim {

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kThinking: return "Think";
    case Phase::kRegister: return "Register";
    case Phase::kChoose: return "Choose";
    case Phase::kCommit: return "Commit";
    case Phase::kRenumber: return "Renumber";
    case Phase::kTrySecond: return "TrySecond";
    case Phase::kEating: return "Eat";
    case Phase::kWaitGrant: return "WaitGrant";
  }
  return "?";
}

void SimState::encode(std::vector<std::uint8_t>& out) const {
  out.clear();
  for (const ForkState& f : forks) {
    out.push_back(static_cast<std::uint8_t>(f.holder + 1));  // kNoPhil -> 0
    out.push_back(static_cast<std::uint8_t>(f.nr & 0xff));
    out.push_back(static_cast<std::uint8_t>(f.nr >> 8));
    for (int shift = 0; shift < 64; shift += 8) {
      out.push_back(static_cast<std::uint8_t>((f.requests >> shift) & 0xff));
    }
    // One size byte: a rank vector beyond 255 slots would silently truncate
    // and alias distinct states. Unreachable today (books cap degree at 64),
    // but refuse instead of corrupting if that cap ever moves.
    GDP_CHECK_MSG(f.use_rank.size() <= 0xff,
                  "encode: use_rank has " << f.use_rank.size() << " slots; the size byte caps at 255");
    out.push_back(static_cast<std::uint8_t>(f.use_rank.size()));
    out.insert(out.end(), f.use_rank.begin(), f.use_rank.end());
  }
  for (const PhilState& p : phils) {
    out.push_back(static_cast<std::uint8_t>(p.phase));
    out.push_back(static_cast<std::uint8_t>(p.committed));
    out.push_back(static_cast<std::uint8_t>(p.scratch & 0xff));
    out.push_back(static_cast<std::uint8_t>((p.scratch >> 8) & 0xff));
  }
  for (std::int32_t word : aux) {
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<std::uint8_t>((static_cast<std::uint32_t>(word) >> shift) & 0xff));
    }
  }
}

bool try_take(SimState& state, ForkId f, PhilId p) {
  ForkState& fork = state.fork(f);
  if (!fork.free()) return false;
  fork.holder = p;
  return true;
}

void release(SimState& state, ForkId f, PhilId p) {
  ForkState& fork = state.fork(f);
  GDP_DCHECK(fork.holder == p);
  (void)p;
  fork.holder = kNoPhil;
}

void mark_used(SimState& state, const graph::Topology& t, ForkId f, PhilId p) {
  ForkState& fork = state.fork(f);
  const int degree = t.degree(f);
  if (fork.use_rank.empty()) fork.use_rank.assign(static_cast<std::size_t>(degree), 0);
  GDP_DCHECK(static_cast<int>(fork.use_rank.size()) == degree);
  const int slot = t.slot_of(f, p);

  // p becomes the most recent user, then ranks are compressed to stay dense
  // (never-used slots keep rank 0; used slots get 1..count by recency): a
  // rank's new value is the number of distinct used ranks at or below it.
  std::uint8_t max_rank = 0;
  for (std::uint8_t r : fork.use_rank) max_rank = std::max(max_rank, r);
  const auto mine = static_cast<std::uint8_t>(max_rank + 1);
  fork.use_rank[static_cast<std::size_t>(slot)] = mine;

  std::array<std::uint8_t, 256> dense{};  // rank -> 1 if used, then -> new rank
  for (std::uint8_t r : fork.use_rank) dense[r] = 1;
  dense[0] = 0;
  std::uint8_t count = 0;
  for (std::size_t r = 1; r <= std::max(max_rank, mine); ++r) {
    if (dense[r] != 0) dense[r] = ++count;
  }
  for (std::uint8_t& r : fork.use_rank) r = dense[r];
}

bool cond_holds(const SimState& state, const graph::Topology& t, ForkId f, PhilId p) {
  const ForkState& fork = state.fork(f);
  const int my_slot = t.slot_of(f, p);
  const std::uint8_t my_rank =
      fork.use_rank.empty() ? 0 : fork.use_rank[static_cast<std::size_t>(my_slot)];
  const auto sharers = t.incident(f);
  for (int slot = 0; slot < static_cast<int>(sharers.size()); ++slot) {
    if (slot == my_slot) continue;
    if (!fork.requested_by_slot(slot)) continue;
    const std::uint8_t their_rank =
        fork.use_rank.empty() ? 0 : fork.use_rank[static_cast<std::size_t>(slot)];
    // The other requester must have used the fork no earlier than p;
    // otherwise p yields (the courtesy of LR2, §3.2).
    if (their_rank < my_rank) return false;
  }
  return true;
}

bool someone_eating(const SimState& state) {
  return std::any_of(state.phils.begin(), state.phils.end(),
                     [](const PhilState& p) { return p.phase == Phase::kEating; });
}

std::uint64_t eater_mask(const SimState& state) {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < state.phils.size(); ++i) {
    if (state.phils[i].phase == Phase::kEating) mask |= (std::uint64_t{1} << std::min(i, std::size_t{63}));
  }
  return mask;
}

bool is_trying(const SimState& state, PhilId p) {
  const Phase phase = state.phil(p).phase;
  return phase != Phase::kThinking && phase != Phase::kEating;
}

bool someone_trying(const SimState& state) {
  for (PhilId p = 0; p < static_cast<PhilId>(state.phils.size()); ++p) {
    if (is_trying(state, p)) return true;
  }
  return false;
}

int forks_held(const SimState& state, const graph::Topology& t, PhilId p) {
  int held = 0;
  if (state.fork(t.left_of(p)).holder == p) ++held;
  if (state.fork(t.right_of(p)).holder == p) ++held;
  return held;
}

std::string check_invariants(const SimState& state, const graph::Topology& t) {
  if (static_cast<int>(state.forks.size()) != t.num_forks()) return "fork count mismatch";
  if (static_cast<int>(state.phils.size()) != t.num_phils()) return "phil count mismatch";

  for (ForkId f = 0; f < t.num_forks(); ++f) {
    const ForkState& fork = state.fork(f);
    if (fork.holder != kNoPhil) {
      if (fork.holder < 0 || fork.holder >= t.num_phils()) {
        return "fork " + fork_name(f) + " held by out-of-range philosopher";
      }
      const auto& arc = t.arc(fork.holder);
      if (arc.left != f && arc.right != f) {
        return "fork " + fork_name(f) + " held by non-adjacent " + phil_name(fork.holder);
      }
    }
    if (!fork.use_rank.empty()) {
      if (static_cast<int>(fork.use_rank.size()) != t.degree(f)) {
        return "fork " + fork_name(f) + " rank vector size != degree";
      }
      // Ranks must be dense: the nonzero ranks are exactly {1..count}.
      std::vector<std::uint8_t> nonzero;
      for (std::uint8_t r : fork.use_rank) {
        if (r != 0) nonzero.push_back(r);
      }
      std::sort(nonzero.begin(), nonzero.end());
      for (std::size_t i = 0; i < nonzero.size(); ++i) {
        if (nonzero[i] != static_cast<std::uint8_t>(i + 1)) {
          return "fork " + fork_name(f) + " ranks not dense";
        }
      }
    }
    if (fork.requests != 0) {
      const int degree = t.degree(f);
      if (degree < 64 && (fork.requests >> degree) != 0) {
        return "fork " + fork_name(f) + " has request bits beyond its sharers";
      }
    }
  }

  for (PhilId p = 0; p < t.num_phils(); ++p) {
    const PhilState& phil = state.phil(p);
    const int held = forks_held(state, t, p);
    switch (phil.phase) {
      case Phase::kThinking:
      case Phase::kRegister:
      case Phase::kChoose:
      case Phase::kCommit:
      case Phase::kWaitGrant:
        // kWaitGrant baselines may hold forks mid-acquisition (ordered /
        // colored hold-and-wait); the fully-symmetric algorithms hold none.
        if (phil.phase != Phase::kWaitGrant && held != 0) {
          return phil_name(p) + " holds forks in phase " + to_string(phil.phase);
        }
        break;
      case Phase::kRenumber:
      case Phase::kTrySecond:
        if (held != 1) return phil_name(p) + " should hold exactly its first fork";
        break;
      case Phase::kEating:
        if (held != 2) return phil_name(p) + " eats without both forks";
        break;
    }
  }
  return {};
}

std::string to_string(const SimState& state, const graph::Topology& t) {
  std::vector<std::string> parts;
  for (ForkId f = 0; f < t.num_forks(); ++f) {
    const ForkState& fork = state.fork(f);
    std::string s = fork_name(f) + ":";
    s += fork.free() ? "-" : phil_name(fork.holder);
    if (fork.nr != 0) s += "(nr=" + std::to_string(fork.nr) + ")";
    parts.push_back(std::move(s));
  }
  std::string out = join(parts, " ");
  out += " | ";
  parts.clear();
  for (PhilId p = 0; p < t.num_phils(); ++p) {
    const PhilState& phil = state.phil(p);
    std::string s = phil_name(p) + ":";
    s += to_string(phil.phase);
    if (phil.phase == Phase::kCommit || phil.phase == Phase::kRenumber ||
        phil.phase == Phase::kTrySecond) {
      s += phil.committed == Side::kLeft ? "(L)" : "(R)";
    }
    parts.push_back(std::move(s));
  }
  out += join(parts, " ");
  return out;
}

}  // namespace gdp::sim
