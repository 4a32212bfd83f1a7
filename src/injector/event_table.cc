#include "injector/event_table.h"

#include "packet/ib.h"

namespace lumina {

void IterTracker::register_flow(const FlowKey& flow, std::uint32_t ipsn) {
  State st;
  st.last_psn = psn_add(ipsn, -1);
  st.iter = 1;
  flows_[flow] = st;
}

std::uint32_t IterTracker::observe(const FlowKey& flow, std::uint32_t psn) {
  auto [it, inserted] = flows_.try_emplace(flow);
  State& st = it->second;
  if (inserted) {
    // Stateful-discovery fallback: first sighting defines the IPSN.
    st.last_psn = psn;
    st.iter = 1;
    return st.iter;
  }
  if (!psn_gt(psn, st.last_psn)) {
    ++st.iter;
  }
  st.last_psn = psn;
  return st.iter;
}

std::uint32_t IterTracker::iter(const FlowKey& flow) const {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? 1 : it->second.iter;
}

void EventTable::install(const EventRule& rule) {
  rules_[RuleKey{rule.flow, rule.psn, rule.iter}] =
      EventAction{rule.action, rule.delay, rule.fault};
}

std::optional<EventAction> EventTable::match(const FlowKey& flow,
                                             std::uint32_t psn,
                                             std::uint32_t iter) {
  const auto it = rules_.find(RuleKey{flow, psn, iter});
  if (it == rules_.end()) return std::nullopt;
  const EventAction action = it->second;
  rules_.erase(it);
  ++hits_;
  return action;
}

std::optional<EventAction> EventTable::peek(const FlowKey& flow,
                                            std::uint32_t psn,
                                            std::uint32_t iter) const {
  const auto it = rules_.find(RuleKey{flow, psn, iter});
  if (it == rules_.end()) return std::nullopt;
  return it->second;
}

}  // namespace lumina
