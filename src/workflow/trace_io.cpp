#include "workflow/trace_io.hpp"

#include <charconv>
#include <concepts>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/output_file.hpp"

namespace xl::workflow {

const char* event_kind_name(EventKind kind) noexcept {
  static constexpr const char* kNames[] = {
      "run-begin",      "step-begin",       "decision",     "transfer",
      "analysis",       "step-end",         "run-end",      "fault",
      "retry",          "recovery",         "server-suspected",
      "replica-lost",   "repair-scheduled", "replica-created",
      "read-repair",    "trigger-fired",    "trigger-suppressed"};
  static_assert(std::size(kNames) == kEventKindCount, "one name per EventKind");
  const auto k = static_cast<std::size_t>(kind);
  return k < std::size(kNames) ? kNames[k] : "?";
}

namespace {

/// CSV cells formatted into one reused block and handed to the stream about
/// 64 KiB at a time. Numbers go through std::to_chars: integers as they are,
/// doubles in chars_format::general at precision 6, which is the text
/// `operator<<` makes under a stream's default flags, byte for byte (nan,
/// inf, -0 and subnormals included). Each cell is followed by a comma, which
/// end_row turns into the newline.
class CsvBlock {
 public:
  explicit CsvBlock(std::ostream& os) : os_(os) { text_.reserve(kBlock + kRowSlack); }

  void text(std::string_view s) {
    text_.append(s);
    text_.push_back(',');
  }
  void cell(bool b) { text(b ? "1" : "0"); }
  void cell(std::integral auto v) { number(v); }
  void cell(double v) { number(v, std::chars_format::general, 6); }
  void cell(EventKind k) { text(event_kind_name(k)); }
  void cell(runtime::Placement p) { text(runtime::placement_name(p)); }
  void cell(runtime::DecisionReason r) { text(runtime::reason_name(r)); }
  void cell(runtime::FaultKind f) { text(runtime::fault_kind_name(f)); }

  void end_row() {
    text_.back() = '\n';
    if (text_.size() >= kBlock) flush();
  }

  void flush() {
    os_.write(text_.data(), static_cast<std::streamsize>(text_.size()));
    text_.clear();
  }

 private:
  static constexpr std::size_t kBlock = 64 * 1024;
  /// A block is flushed at the first row end past kBlock; rows are far
  /// shorter than this, so the block is allocated once.
  static constexpr std::size_t kRowSlack = 4 * 1024;

  template <typename... Format>
  void number(auto v, Format... format) {
    char digits[32];  // the longest is "-2.22507e-308" or a sign and 20 digits
    const auto end = std::to_chars(digits, digits + sizeof digits, v, format...).ptr;
    text_.append(digits, end);
    text_.push_back(',');
  }

  std::ostream& os_;
  std::string text_;
};

/// One CSV column of a Record: its header name and how to format its cell.
/// The header and every row are generated from one table of these, so they
/// cannot drift apart.
template <typename Record>
struct Column {
  const char* name;
  void (*put)(CsvBlock&, const Record&);
};

/// The `put` of a column that holds the field `Member` as it is.
template <auto Member, typename Record>
void field(CsvBlock& out, const Record& record) {
  out.cell(record.*Member);
}

constexpr Column<StepRecord> kStepColumns[] = {
    {"step", field<&StepRecord::step>},
    {"total_cells", field<&StepRecord::total_cells>},
    {"analyzed_cells", field<&StepRecord::analyzed_cells>},
    {"factor", field<&StepRecord::factor>},
    {"placement", field<&StepRecord::placement>},
    {"intransit_cores", field<&StepRecord::intransit_cores>},
    {"sim_seconds", field<&StepRecord::sim_seconds>},
    {"reduce_seconds", field<&StepRecord::reduce_seconds>},
    {"insitu_analysis_seconds", field<&StepRecord::insitu_analysis_seconds>},
    {"intransit_analysis_seconds", field<&StepRecord::intransit_analysis_seconds>},
    {"wait_seconds", field<&StepRecord::wait_seconds>},
    {"window_seconds", field<&StepRecord::window_seconds>},
    {"backlog_seconds", field<&StepRecord::backlog_seconds>},
    {"raw_bytes", field<&StepRecord::raw_bytes>},
    {"moved_bytes", field<&StepRecord::moved_bytes>},
    {"reason", field<&StepRecord::decision_reason>},
};

constexpr Column<WorkflowEvent> kEventColumns[] = {
    {"event", field<&WorkflowEvent::kind>},
    {"step", field<&WorkflowEvent::step>},
    {"sim_clock", field<&WorkflowEvent::sim_clock>},
    {"staging_clock", field<&WorkflowEvent::staging_clock>},
    {"placement", field<&WorkflowEvent::placement>},
    {"reason", field<&WorkflowEvent::reason>},
    {"factor", field<&WorkflowEvent::factor>},
    {"intransit_cores", field<&WorkflowEvent::intransit_cores>},
    {"app_adapted", field<&WorkflowEvent::app_adapted>},
    {"resource_adapted", field<&WorkflowEvent::resource_adapted>},
    {"middleware_adapted", field<&WorkflowEvent::middleware_adapted>},
    {"cells", field<&WorkflowEvent::cells>},
    {"bytes", field<&WorkflowEvent::bytes>},
    {"seconds", field<&WorkflowEvent::seconds>},
    {"wait_seconds", field<&WorkflowEvent::wait_seconds>},
    {"skipped", field<&WorkflowEvent::skipped>},
    {"fault", field<&WorkflowEvent::fault>},
    {"attempt", field<&WorkflowEvent::attempt>},
    {"backoff_seconds", field<&WorkflowEvent::backoff_seconds>},
    {"servers_down", field<&WorkflowEvent::servers_down>},
    {"servers_suspected", field<&WorkflowEvent::servers_suspected>},
    {"replicas", field<&WorkflowEvent::replicas>},
    {"pool_hits", field<&WorkflowEvent::pool_hits>},
    {"pool_misses", field<&WorkflowEvent::pool_misses>},
    {"pool_releases", field<&WorkflowEvent::pool_releases>},
    {"pool_copied_bytes", field<&WorkflowEvent::pool_copied_bytes>},
    {"indicator", field<&WorkflowEvent::indicator>},
    {"trigger_threshold", field<&WorkflowEvent::trigger_threshold>},
    {"triggers_fired", field<&WorkflowEvent::triggers_fired>},
    {"steps_suppressed", field<&WorkflowEvent::steps_suppressed>},
};

/// The header of `columns`, then one row per record.
template <typename Record, std::size_t N>
void write_csv(std::ostream& os, const Column<Record> (&columns)[N],
               const std::vector<Record>& records) {
  CsvBlock out(os);
  for (const Column<Record>& c : columns) out.text(c.name);
  out.end_row();
  for (const Record& r : records) {
    for (const Column<Record>& c : columns) c.put(out, r);
    out.end_row();
  }
  out.flush();
  if (!os.good()) throw ContractError("CSV write failed");
}

template <typename Record, std::size_t N>
void write_csv(const std::string& path, const Column<Record> (&columns)[N],
               const std::vector<Record>& records) {
  write_file(path, "CSV output", [&](std::ostream& os) { write_csv(os, columns, records); });
}

}  // namespace

void write_steps_csv(std::ostream& os, const WorkflowResult& result) {
  write_csv(os, kStepColumns, result.steps);
}

void write_steps_csv(const std::string& path, const WorkflowResult& result) {
  write_csv(path, kStepColumns, result.steps);
}

void write_events_csv(std::ostream& os, const EventLog& log) {
  write_csv(os, kEventColumns, log.events());
}

void write_events_csv(const std::string& path, const EventLog& log) {
  write_csv(path, kEventColumns, log.events());
}

std::string summarize(const WorkflowResult& result) {
  std::ostringstream os;
  os << "end_to_end_s=" << result.end_to_end_seconds
     << " sim_s=" << result.pure_sim_seconds
     << " overhead_s=" << result.overhead_seconds
     << " moved_bytes=" << result.bytes_moved
     << " insitu=" << result.insitu_count
     << " intransit=" << result.intransit_count
     << " staging_utilization=" << result.utilization_efficiency;
  if (result.faults_injected > 0 || result.transfer_retries > 0 ||
      result.transfer_failures > 0) {
    os << " faults=" << result.faults_injected
       << " recoveries=" << result.recoveries
       << " retries=" << result.transfer_retries
       << " transfer_failures=" << result.transfer_failures
       << " degraded_insitu=" << result.degraded_insitu_count
       << " dropped_bytes=" << result.dropped_bytes;
  }
  if (result.triggers_fired > 0 || result.steps_suppressed > 0) {
    os << " triggers_fired=" << result.triggers_fired
       << " steps_suppressed=" << result.steps_suppressed;
  }
  if (result.server_suspicions > 0 || result.repairs_scheduled > 0 ||
      result.replicated_bytes > 0) {
    os << " suspicions=" << result.server_suspicions
       << " repairs=" << result.repairs_scheduled
       << " read_repairs=" << result.read_repairs
       << " repair_bytes=" << result.repair_bytes
       << " replicated_bytes=" << result.replicated_bytes;
  }
  return os.str();
}

}  // namespace xl::workflow
