#include "pipeline/stage.h"

#include <stdexcept>

namespace lumina::pipeline {

void StageChain::append(std::unique_ptr<Stage> stage) {
  const StageContract contract = stage->contract();
  if (contract.needs_view && !have_classifier_) {
    throw std::logic_error(std::string("stage '") + stage->name() +
                           "' needs classified frames but no classifying "
                           "stage precedes it in: " +
                           describe());
  }
  have_classifier_ = have_classifier_ || contract.provides_view;
  stages_.push_back(std::move(stage));
}

std::string StageChain::describe() const {
  std::string out;
  for (const auto& stage : stages_) {
    if (!out.empty()) out += " -> ";
    out += stage->name();
  }
  return out.empty() ? "<empty chain>" : out;
}

}  // namespace lumina::pipeline
