#include "codegen/schedule.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace saris {

namespace {

void mark_final(Schedule& s) {
  SARIS_CHECK(!s.steps.empty(), "empty schedule");
  s.steps.back().final_out = true;
}

Schedule fma_chain(const StencilCode& sc, u32 k) {
  u32 n = sc.loads_per_point();
  k = std::min(k, n);
  Schedule s;
  s.chains = k;
  if (sc.const_term) s.const_coeff = static_cast<i32>(sc.n_coeffs) - 1;
  std::vector<bool> seeded(k, false);
  for (u32 i = 0; i < n; ++i) {
    const Tap& t = sc.taps[i];
    SARIS_CHECK(t.coeff != kNoCoeff, "fma-chain tap needs coefficient");
    u32 c = i % k;
    Step st;
    st.tap_a = static_cast<i32>(i);
    st.coeff = static_cast<i32>(t.coeff);
    st.chain = static_cast<i32>(c);
    if (!seeded[c]) {
      // Chain 0 seeds from the constant term when present (fmadd onto the
      // constant's register: preserves Table 1 FLOP counts).
      st.kind = (c == 0 && sc.const_term) ? StepKind::kSeedMulTapConst
                                          : StepKind::kSeedMulTap;
      seeded[c] = true;
    } else {
      st.kind = StepKind::kFmaTap;
    }
    s.steps.push_back(st);
  }
  for (u32 c = 1; c < k; ++c) {
    Step st;
    st.kind = StepKind::kCombine;
    st.chain = static_cast<i32>(c);
    s.steps.push_back(st);
  }
  mark_final(s);
  return s;
}

Schedule sum_scale(const StencilCode& sc, u32 k) {
  u32 n = sc.loads_per_point();
  // Each chain is seeded by a two-tap add, so k is limited by n/2.
  k = std::max<u32>(1, std::min(k, n / 2));
  Schedule s;
  s.chains = k;
  u32 i = 0;
  for (u32 c = 0; c < k; ++c) {
    Step st;
    st.kind = StepKind::kSeedAddTaps;
    st.tap_a = static_cast<i32>(i++);
    st.tap_b = static_cast<i32>(i++);
    st.chain = static_cast<i32>(c);
    s.steps.push_back(st);
  }
  u32 c = 0;
  while (i < n) {
    Step st;
    st.kind = StepKind::kAddTap;
    st.tap_a = static_cast<i32>(i++);
    st.chain = static_cast<i32>(c);
    c = (c + 1) % k;
    s.steps.push_back(st);
  }
  for (u32 cc = 1; cc < k; ++cc) {
    Step st;
    st.kind = StepKind::kCombine;
    st.chain = static_cast<i32>(cc);
    s.steps.push_back(st);
  }
  Step sc_step;
  sc_step.kind = StepKind::kScale;
  sc_step.coeff = 0;
  s.steps.push_back(sc_step);
  mark_final(s);
  return s;
}

Schedule axis_pairs(const StencilCode& sc, u32 k, u32 pair_pipeline) {
  bool with_prev = sc.sched == ScheduleClass::kAxisPairsPrev;
  u32 n = sc.loads_per_point();
  u32 pair_taps = with_prev ? n - 2 : n - 1;
  u32 pairs = pair_taps / 2;
  k = std::max<u32>(1, std::min(k, pairs + 1));
  pair_pipeline = std::max<u32>(1, pair_pipeline);

  Schedule s;
  s.chains = k;
  s.tmp_regs = pair_pipeline + 1;

  // Center tap seeds chain 0.
  {
    Step st;
    st.kind = StepKind::kSeedMulTap;
    st.tap_a = 0;
    st.coeff = static_cast<i32>(sc.taps[0].coeff);
    st.chain = 0;
    s.steps.push_back(st);
  }

  std::vector<bool> seeded(k, false);
  seeded[0] = true;
  // Software-pipelined pairs: keep `pair_pipeline` PairAdds in flight ahead
  // of their consuming multiply so the FPU never waits on the fadd result.
  u32 issued_pairs = 0;
  u32 consumed_pairs = 0;
  auto issue_pair = [&]() {
    Step st;
    st.kind = StepKind::kPairAdd;
    st.tap_a = static_cast<i32>(1 + 2 * issued_pairs);
    st.tap_b = static_cast<i32>(2 + 2 * issued_pairs);
    s.steps.push_back(st);
    ++issued_pairs;
  };
  while (issued_pairs < std::min(pairs, pair_pipeline)) issue_pair();
  while (consumed_pairs < pairs) {
    u32 c = consumed_pairs % k;
    Step st;
    st.kind = seeded[c] ? StepKind::kFmaPair : StepKind::kSeedMulPair;
    seeded[c] = true;
    st.coeff = static_cast<i32>(sc.taps[1 + 2 * consumed_pairs].coeff);
    st.chain = static_cast<i32>(c);
    s.steps.push_back(st);
    ++consumed_pairs;
    if (issued_pairs < pairs) issue_pair();
  }
  for (u32 c = 1; c < k; ++c) {
    if (!seeded[c]) continue;
    Step st;
    st.kind = StepKind::kCombine;
    st.chain = static_cast<i32>(c);
    s.steps.push_back(st);
  }
  if (with_prev) {
    Step st;
    st.kind = StepKind::kSubTap;
    st.tap_a = static_cast<i32>(n - 1);
    s.steps.push_back(st);
  }
  mark_final(s);
  return s;
}

}  // namespace

u32 Schedule::flops() const {
  u32 f = 0;
  for (const Step& st : steps) f += flops_of(step_row(st.kind).op);
  return f;
}

Schedule make_schedule(const StencilCode& sc, u32 chains,
                       u32 pair_pipeline) {
  SARIS_CHECK(chains >= 1, "need at least one accumulator chain");
  switch (sc.sched) {
    case ScheduleClass::kFmaChain:
      return fma_chain(sc, chains);
    case ScheduleClass::kSumScale:
      return sum_scale(sc, chains);
    case ScheduleClass::kAxisPairs:
    case ScheduleClass::kAxisPairsPrev:
      return axis_pairs(sc, chains, pair_pipeline);
  }
  SARIS_CHECK(false, "bad schedule class");
}

u32 default_chains(const StencilCode& sc) {
  // Three chains hide the 3-cycle FPU latency for chained accumulation;
  // small codes cannot use more chains than taps support.
  switch (sc.sched) {
    case ScheduleClass::kSumScale:
      return 2;
    case ScheduleClass::kAxisPairs:
    case ScheduleClass::kAxisPairsPrev:
      return 2;
    case ScheduleClass::kFmaChain:
      return std::min<u32>(3, sc.loads_per_point());
  }
  return 2;
}

}  // namespace saris
