// The ten stencil codes of the paper's Table 1 (plus the 7-point running
// example of Listing 1/Figure 2, used by docs and the instruction-mix bench).
#pragma once

#include <vector>

#include "stencil/stencil_def.hpp"

namespace saris {

/// All ten evaluation codes, in Table 1 order (sorted by FLOPs per point).
const std::vector<StencilCode>& all_codes();

/// Look up one of the ten codes by name. An unknown name raises
/// SimError(kBadConfig) naming it and listing the valid ones.
const StencilCode& code_by_name(const std::string& name);

/// The paper's symmetric 7-point star running example (not part of the
/// Table 1 evaluation set).
const StencilCode& example_star7p();

}  // namespace saris
