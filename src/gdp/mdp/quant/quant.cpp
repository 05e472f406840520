// gdp::mdp::quant — Model instantiation and presentation helpers.
//
// The analysis pipeline (quotient construction, interval iteration, OVI)
// lives in quant_impl.hpp as templates over the Model read API; this
// translation unit instantiates it for the contiguous Model. store.cpp
// instantiates the same definitions for store::ChunkedModel, which is what
// makes chunk-native intervals bit-identical to this path by construction.
#include "gdp/mdp/quant/quant.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "gdp/common/check.hpp"
#include "gdp/mdp/quant/quant_impl.hpp"

namespace gdp::mdp::quant {
namespace {

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
      << " states, " << num_quotient_nodes << " quotient nodes, " << num_avoid_mecs
      << " avoiding MECs (" << num_fair_avoid_mecs << " fair)";
  return out.str();
}

QuantResult analyze(const Model& model, std::uint64_t target_set, QuantOptions options) {
  return detail::analyze_t(model, target_set, options);
}

std::vector<QuantResult> analyze(const Model& model, const std::vector<std::uint64_t>& targets,
                                 QuantOptions options) {
  GDP_CHECK_MSG(options.epsilon > 0.0, "quant::analyze needs epsilon > 0");
  GDP_CHECK_MSG(model.num_phils() <= 64,
                "quant::analyze: target masks are 64-bit, so at most 64 philosophers are "
                "supported, got "
                    << model.num_phils());
  for (const std::uint64_t target_set : targets) {
    GDP_CHECK_MSG(target_set != 0, "quant::analyze needs non-empty target sets");
  }
  detail::SharedSweeps shared;
  std::vector<QuantResult> results;
  results.reserve(targets.size());
  // Targets run in sequence (each one's sweeps already parallelize over the
  // pool); only the SharedSweeps state crosses between them, so every entry
  // matches the single-target call bit for bit.
  for (const std::uint64_t target_set : targets) {
    results.push_back(detail::analyze_one(model, target_set, options, shared));
  }
  return results;
}

QuantResult analyze(const algos::Algorithm& algo, const graph::Topology& t, QuantOptions options,
                    std::uint64_t target_set) {
  const Model model = explore(algo, t, {options.threads, options.max_states});
  return analyze(model, target_set, options);
}

}  // namespace gdp::mdp::quant
