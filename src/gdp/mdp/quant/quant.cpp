// gdp::mdp::quant — Model instantiations and presentation helpers.
//
// The analysis pipeline (quotient construction, interval iteration, OVI)
// lives in quant_impl.hpp as templates over the Model read API; this
// translation unit instantiates it for the contiguous Model and for the
// uniform scheduler's one-action view of it (UniformChain). store.cpp
// instantiates the same definitions for store::ChunkedModel, which is what
// makes chunk-native intervals bit-identical to this path by construction.
#include "gdp/mdp/quant/quant.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "gdp/mdp/quant/quant_impl.hpp"

namespace gdp::mdp::quant {
namespace {

/// The Markov chain the uniform scheduler induces on `model`, read as an MDP
/// with one action per state. State s's action is its n philosopher rows,
/// which sit back to back in the CSR, so nothing is copied; each outcome
/// weighs 1/n, applied in double by prob_of below. The only "philosopher"
/// eats wherever anyone eats.
class UniformChain {
 public:
  explicit UniformChain(const Model& model) : model_(model) {}

  int num_phils() const { return 1; }
  std::size_t num_states() const { return model_.num_states(); }
  StateId initial() const { return model_.initial(); }
  std::uint64_t eaters(StateId s) const { return model_.eating(s) ? 1 : 0; }
  bool frontier(StateId s) const { return model_.frontier(s); }
  bool truncated() const { return model_.truncated(); }
  std::pair<const Outcome*, const Outcome*> row(StateId s, int /*p*/) const {
    return {model_.row(s, 0).first, model_.row(s, model_.num_phils() - 1).second};
  }

  /// detail::prob_of for the view (found by argument-dependent lookup): the
  /// scheduler's weight 1/n as one correctly rounded double division per
  /// read. A float copy of the weighted outcomes would round twice and
  /// move certified intervals off the true value.
  friend double prob_of(const UniformChain& chain, const Outcome& o) {
    return static_cast<double>(o.prob) / chain.model_.num_phils();
  }

 private:
  const Model& model_;
};

std::string format_interval(const Interval& iv, double epsilon) {
  auto one = [](std::ostream& out, double v) {
    if (v == detail::kInf) {
      out << "inf";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    out << buf;
  };
  std::ostringstream out;
  if (iv.width() <= epsilon) {
    one(out, iv.lower == iv.upper ? iv.lower : (iv.lower + iv.upper) / 2);
  } else {
    out << '[';
    one(out, iv.lower);
    out << ", ";
    one(out, iv.upper);
    out << ']';
  }
  return out.str();
}

}  // namespace

bool Interval::finite() const { return std::isfinite(lower) && std::isfinite(upper); }

const char* to_string(Certainty certainty) {
  switch (certainty) {
    case Certainty::kCertified: return "certified";
    case Certainty::kTruncated: return "unknown (state space truncated)";
    case Certainty::kIterationLimit: return "unconverged (iteration limit)";
  }
  return "?";
}

std::string QuantResult::summary() const {
  std::ostringstream out;
  out << to_string(certainty) << " (eps=" << epsilon << "): Pmin=" << format_interval(p_min, epsilon)
      << " Pmax=" << format_interval(p_max, epsilon) << " Ptrap=" << format_interval(p_trap, epsilon)
      << " E[min steps]=" << format_interval(e_min, epsilon)
      << " E[max productive steps]=" << format_interval(e_max, epsilon) << " — " << num_states
      << " states, " << num_quotient_nodes << " quotient nodes, " << progress.num_mecs
      << " avoiding MECs (" << progress.num_fair_mecs << " fair)";
  return out.str();
}

QuantResult analyze(const Model& model, std::uint64_t target_set, QuantOptions options) {
  return detail::analyze_t(model, target_set, options);
}

QuantResult analyze_uniform(const Model& model, QuantOptions options) {
  return detail::analyze_t(UniformChain(model), 1, options);
}

QuantResult analyze(const algos::Algorithm& algo, const graph::Topology& t, QuantOptions options,
                    std::uint64_t target_set) {
  const Model model = explore(algo, t, {options.threads, options.max_states});
  return analyze(model, target_set, options);
}

}  // namespace gdp::mdp::quant
