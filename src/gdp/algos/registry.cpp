// Factory implementation for Algorithm (declared in algorithm.hpp).
#include "gdp/algos/algorithm.hpp"
#include "gdp/algos/central_arbiter.hpp"
#include "gdp/algos/ticket.hpp"
#include "gdp/algos/two_fork.hpp"
#include "gdp/common/check.hpp"

namespace gdp::algos {

std::unique_ptr<Algorithm> make_algorithm(const std::string& name, AlgoConfig config) {
  if (auto two_fork = make_two_fork(name, config)) return two_fork;
  if (name == "arbiter") return std::make_unique<CentralArbiter>(config);
  if (name == "ticket") return std::make_unique<Ticket>(config);
  GDP_CHECK_MSG(false, "unknown algorithm '" << name << "'");
  __builtin_unreachable();
}

std::vector<std::string> algorithm_names() {
  return {"lr1", "lr2", "gdp1", "gdp2", "gdp2c", "ordered", "colored", "arbiter", "ticket"};
}

}  // namespace gdp::algos
