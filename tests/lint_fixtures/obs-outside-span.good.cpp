// Clean counterpart: phase timing through obs::Span (the timing plane), a
// progress reading through obs::Stopwatch, plain chrono durations for
// backoff tuning — none involves a clock type, so no stopwatch state
// exists outside gdp/obs/.
#include <chrono>

#include "gdp/obs/obs.hpp"

inline double timed_phase() {
  gdp::obs::Span span("fixture.phase");
  const gdp::obs::Stopwatch clock;
  const std::chrono::milliseconds backoff{100};
  (void)backoff;
  return clock.seconds();
}
