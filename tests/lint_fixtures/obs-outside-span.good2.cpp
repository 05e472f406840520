// Clean counterpart to bad2: event tracing through the obs timeline plane.
// obs::Span lands the phase in both the run report and the trace;
// timeline::instant / counter_sample emit one-off events and value lanes on
// the calling thread's track — no clock type is held outside gdp/obs/.
#include "gdp/obs/obs.hpp"
#include "gdp/obs/timeline.hpp"

inline void traced_phase(std::size_t items) {
  gdp::obs::Span span("fixture.phase");
  gdp::obs::timeline::instant("fixture.milestone");
  gdp::obs::timeline::counter_sample("fixture.items", static_cast<double>(items));
}
