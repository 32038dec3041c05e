// Machine-readable output for xl_lint: the SARIF report CI uploads for code
// scanning.
#pragma once

#include <string>
#include <vector>

#include "lint.hpp"

namespace xl::lint {

/// Findings as a minimal SARIF 2.1.0 log (one run, one result per finding).
std::string sarif_report(const std::vector<Finding>& findings);

}  // namespace xl::lint
