// The xl_lint rules, every one over the token model of tools/xl_lint/model.hpp
// (the authoritative id list with summaries is rules() in lint.hpp).
#pragma once

#include <vector>

#include "lint.hpp"
#include "model.hpp"

namespace xl::lint {

/// Every per-file rule (all but lock-order), unsuppressed.
void run_file_rules(const FileModel& model, std::vector<Finding>& findings);

/// Global lock-order rule over every parsed file: builds the acquired-under
/// graph (with one level of cross-TU call propagation) and reports each
/// distinct cycle once, attributed to a representative acquisition site.
void run_lock_order_rule(const std::vector<FileModel>& models,
                         const SymbolTable& table,
                         std::vector<Finding>& findings);

}  // namespace xl::lint
