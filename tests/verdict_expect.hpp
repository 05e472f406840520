// Shared test helper: two fair-progress verdicts are the same answer, field
// by field, witness EC included (its states and philosopher mask), not
// just the same size or first state.
#pragma once

#include <gtest/gtest.h>

#include "gdp/mdp/fair_progress.hpp"

namespace gdp::testutil {

inline void expect_same_verdict(const mdp::FairProgressResult& a,
                                const mdp::FairProgressResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.avoid_set, b.avoid_set);
  EXPECT_EQ(a.num_states, b.num_states);
  EXPECT_EQ(a.num_mecs, b.num_mecs);
  EXPECT_EQ(a.num_fair_mecs, b.num_fair_mecs);
  ASSERT_EQ(a.witness.has_value(), b.witness.has_value());
  if (!a.witness) return;
  EXPECT_EQ(a.witness->states, b.witness->states);
  EXPECT_EQ(a.witness->phil_mask, b.witness->phil_mask);
}

}  // namespace gdp::testutil
