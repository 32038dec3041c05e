// Tests for the CLI configuration parser.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mutants.hpp"
#include "runtime/trigger.hpp"
#include "workflow/config_file.hpp"
#include "workflow/observer.hpp"
#include "workflow/trace_io.hpp"

namespace xl::workflow {
namespace {

/// `text` parsed after a `domain` line: every config needs one, and each test
/// exercises only its own keys.
WorkflowConfig parse(const std::string& text) {
  std::istringstream is("domain = 64 64 64\n" + text);
  return parse_workflow_config(is);
}

/// The events CSV of running `text` parsed as a whole config file.
std::string events_csv_of(const std::string& text) {
  std::istringstream is(text);
  CoupledWorkflow wf(parse_workflow_config(is));
  EventLog log;
  wf.set_observer(&log);
  wf.run();
  std::ostringstream os;
  write_events_csv(os, log);
  return os.str();
}

TEST(ConfigFile, ParsesFullConfig) {
  const WorkflowConfig c = parse(R"(
    # a comment line
    machine = intrepid
    mode = global
    analysis = statistics
    objective = utilization
    sim_cores = 4096     # trailing comment
    staging_cores = 256
    steps = 40
    ncomp = 5
    analysis_ncomp = 1
    domain = 1024 512 512
    max_levels = 3
    front_speed = 0.0095
    factors = 2 4 8 16
    euler = 1
    sampling_period = 2
  )");
  EXPECT_EQ(c.machine.name, "Intrepid-BGP");
  EXPECT_EQ(c.mode, Mode::Global);
  EXPECT_EQ(c.analysis_kind, AnalysisKind::Statistics);
  EXPECT_EQ(c.objective, runtime::Objective::MaximizeResourceUtilization);
  EXPECT_EQ(c.sim_cores, 4096);
  EXPECT_EQ(c.staging_cores, 256);
  EXPECT_EQ(c.steps, 40);
  EXPECT_EQ(c.ncomp, 5);
  EXPECT_EQ(c.memory_model.ncomp, 5);
  EXPECT_EQ(c.analysis_ncomp, 1);
  EXPECT_EQ(c.geometry.base_domain, mesh::Box::domain({1024, 512, 512}));
  EXPECT_DOUBLE_EQ(c.geometry.front_speed, 0.0095);
  ASSERT_EQ(c.hints.factor_phases.size(), 1u);
  EXPECT_EQ(c.hints.factor_phases[0].factors, (std::vector<int>{2, 4, 8, 16}));
  EXPECT_TRUE(c.euler);
  EXPECT_EQ(c.monitor.sampling_period, 2);
}

TEST(ConfigFile, DefaultsWhenEmpty) {
  const WorkflowConfig c = parse("");
  EXPECT_EQ(c.machine.name, "Titan-XK7");
  EXPECT_EQ(c.mode, Mode::AdaptiveMiddleware);
  EXPECT_EQ(c.analysis_kind, AnalysisKind::Isosurface);
}

TEST(ConfigFile, RejectsUnknownKey) {
  EXPECT_THROW(parse("definitely_not_a_key = 3"), ContractError);
}

TEST(ConfigFile, ParsesThreadsKnob) {
  EXPECT_EQ(parse("").threads, 0);  // serial default: goldens stay byte-identical
  const WorkflowConfig c = parse("threads = 4\nthread_efficiency = 0.8");
  EXPECT_EQ(c.threads, 4);
  EXPECT_DOUBLE_EQ(c.costs.thread_efficiency, 0.8);
  EXPECT_THROW(parse("threads = -2"), ContractError);
}

TEST(ConfigFile, RejectsBadValues) {
  EXPECT_THROW(parse("machine = cray-1"), ContractError);
  EXPECT_THROW(parse("mode = teleport"), ContractError);
  EXPECT_THROW(parse("steps = many"), ContractError);
  EXPECT_THROW(parse("domain = 16 16"), ContractError);
  EXPECT_THROW(parse("steps ="), ContractError);
  EXPECT_THROW(parse("just a line without equals"), ContractError);
}

TEST(ConfigFile, ParsesTriggerKeys) {
  const WorkflowConfig c = parse(R"(
    trigger = hybrid
    trigger_quantile = 0.8
    trigger_window = 12
    trigger_sample_rate = 0.5
    trigger_max_interval = 6
    trigger_seed = 777
  )");
  EXPECT_EQ(c.monitor.trigger.policy, runtime::TriggerPolicy::Hybrid);
  EXPECT_DOUBLE_EQ(c.monitor.trigger.quantile, 0.8);
  EXPECT_EQ(c.monitor.trigger.window, 12);
  EXPECT_DOUBLE_EQ(c.monitor.trigger.sample_rate, 0.5);
  EXPECT_EQ(c.monitor.trigger.max_interval, 6);
  EXPECT_EQ(c.monitor.trigger.seed, 777u);
}

TEST(ConfigFile, TriggerDefaultsToFixedPeriod) {
  EXPECT_EQ(parse("").monitor.trigger.policy, runtime::TriggerPolicy::FixedPeriod);
}

TEST(ConfigFile, RejectsBadTriggerAndSamplingValues) {
  // Each error names the offending key so a sweep script's failure is
  // attributable without bisecting the file.
  EXPECT_THROW(parse("sampling_period = 0"), ContractError);
  try {
    parse("sampling_period = 0");
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("sampling_period"), std::string::npos);
  }
  EXPECT_THROW(parse("trigger = sometimes"), ContractError);
  EXPECT_THROW(parse("trigger_quantile = 0"), ContractError);
  EXPECT_THROW(parse("trigger_quantile = 1"), ContractError);
  EXPECT_THROW(parse("trigger_window = 1"), ContractError);
  EXPECT_THROW(parse("trigger_sample_rate = 0"), ContractError);
  EXPECT_THROW(parse("trigger_sample_rate = 1.5"), ContractError);
  EXPECT_THROW(parse("trigger_max_interval = 0"), ContractError);
  EXPECT_THROW(parse("trigger_quantile = high"), ContractError);
  try {
    parse("trigger_window = 1");
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("trigger_window"), std::string::npos);
  }
}

TEST(ConfigFile, NumbersMustBeTheWholeValueAndErrorsNameTheKey) {
  // Prefix parses, signs on unsigned keys and non-finite values are errors,
  // raised at parse time and naming the key.
  for (const std::string text :
       {"steps = 5x", "front_speed = 0.004abc", "domain = 64 32 32 extra", "factors = 2 4x",
        "factors = 0", "seed = -1", "trigger_seed = 1.5", "active_cell_fraction = nan",
        "staging_usable_fraction = inf", "euler = 1y"}) {
    try {
      parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ContractError& e) {
      const std::string key = text.substr(0, text.find(' '));
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
}

TEST(ConfigFile, FractionAndSwitchOutOfRangeAreRejectedNamingTheKey) {
  // Whole numbers outside the key's range stop at parse time, naming the key,
  // instead of running with a fraction above 1, reading euler = 7 as true, or
  // failing later in a constructor check that does not name the key.
  for (const std::string text :
       {"active_cell_fraction = 2", "active_cell_fraction = -0.5", "euler = 7", "euler = -1",
        "analysis_interval = 0", "analysis_interval = -3", "front_speed = -1",
        "front_thickness = 0", "front_radius0 = -0.5", "front_decay = 7",
        "front_decay_onset = -1", "num_blobs = -2", "blob_radius = -1",
        "blob_onset_step = -5", "thread_efficiency = -5", "analysis_ncomp = 3\nncomp = 1",
        "sim_euler_flops = -1", "sim_cores = 0", "staging_cores = -4", "steps = 0",
        "ncomp = 0", "max_levels = 0", "ref_ratio = 1", "max_box_size = 0", "tile_size = 0",
        "staging_usable_fraction = 0", "sim_cores = 2147483647", "staging_cores = 1048577",
        "sim_euler_flops = 1000001", "sim_advect_flops = 1e308", "mc_scan_flops = 1e308",
        "mc_active_flops = 2e6"}) {
    try {
      parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ContractError& e) {
      const std::string key = text.substr(0, text.find(' '));
      EXPECT_EQ(std::string(e.what()).rfind("config: " + key, 0), 0u) << e.what();
    }
  }
  EXPECT_EQ(parse("active_cell_fraction = 0").active_cell_fraction, 0.0);
  EXPECT_EQ(parse("active_cell_fraction = 1").active_cell_fraction, 1.0);
  EXPECT_FALSE(parse("euler = 0").euler);
  EXPECT_TRUE(parse("euler = 1").euler);
  // The caps on cores and flops keep every modeled time finite. Each limit
  // is accepted and printed exactly.
  EXPECT_EQ(parse("sim_cores = 1048576").sim_cores, 1048576);
  EXPECT_EQ(parse("staging_cores = 1048576").staging_cores, 1048576);
  EXPECT_EQ(parse("sim_advect_flops = 1000000").costs.sim_advect_flops_per_cell, 1e6);
  for (const auto& [text, limit] : {std::pair{"sim_cores = 1048577", "[1, 1048576]"},
                                    std::pair{"mc_scan_flops = 1e7", "[0, 1000000]"}}) {
    try {
      parse(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find(limit), std::string::npos) << e.what();
    }
  }
  // analysis_ncomp is checked once every line is read, so key order cannot matter.
  EXPECT_EQ(parse("analysis_ncomp = 3\nncomp = 5").analysis_ncomp, 3);
}

TEST(ConfigFile, LeaseIsSetOnlyByTheFaultsSpec) {
  // A separate lease key was silently reset by a later `faults` line or by
  // `xlayer_cli --faults`; the spec's `lease=N` clause is the one way in.
  try {
    parse("lease_steps = 2");
    ADD_FAILURE() << "lease_steps accepted";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("lease_steps"), std::string::npos) << e.what();
  }
  EXPECT_EQ(parse("faults = crash=5:2:6;drop=0.05;lease=2").faults.lease_steps, 2);
}

TEST(ConfigFile, SeedsTakeAnyUint64) {
  EXPECT_EQ(parse("seed = 99999999999").geometry.seed, 99999999999u);
  EXPECT_EQ(parse("trigger_seed = 18446744073709551615").monitor.trigger.seed,
            18446744073709551615u);
}

TEST(ConfigFile, TriggerNamesRoundTrip) {
  for (runtime::TriggerPolicy policy :
       {runtime::TriggerPolicy::FixedPeriod, runtime::TriggerPolicy::Percentile,
        runtime::TriggerPolicy::Hybrid}) {
    const std::string name = runtime::trigger_policy_name(policy);
    EXPECT_EQ(runtime::parse_trigger_policy(name, "--trigger"), policy);
    EXPECT_EQ(parse("trigger = " + name).monitor.trigger.policy, policy);
  }
  try {
    runtime::parse_trigger_policy("sometimes", "--trigger");
    ADD_FAILURE() << "unknown policy accepted";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("--trigger"), std::string::npos) << e.what();
  }
}

TEST(ConfigFile, ParsedConfigActuallyRuns) {
  const WorkflowConfig c = parse(R"(
    machine = test
    mode = hybrid
    sim_cores = 64
    staging_cores = 4
    domain = 64 64 64
    steps = 5
  )");
  const WorkflowResult r = CoupledWorkflow(c).run();
  EXPECT_EQ(r.steps.size(), 5u);
  EXPECT_GT(r.end_to_end_seconds, 0.0);
}

TEST(ConfigFile, DomainIsRequiredAndNamed) {
  std::istringstream is("machine = test\nsteps = 3\n");
  try {
    parse_workflow_config(is);
    FAIL() << "a config without a domain parsed";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("'domain'"), std::string::npos) << e.what();
  }
}

TEST(ConfigFile, DomainIsCappedNamingTheLimit) {
  const auto parse_text = [](const std::string& text) {
    std::istringstream is(text);
    return parse_workflow_config(is);
  };
  const auto error = [&](const std::string& text) {
    try {
      (void)parse_text(text);
    } catch (const ContractError& e) {
      return std::string(e.what());
    }
    return std::string("parsed");
  };
  // The largest shipped domain (Titan 16K) parses: its finest level is 8192
  // cells wide and holds 2^38 cells.
  EXPECT_NO_THROW(parse_text("machine = test\nsteps = 2\ndomain = 2048 2048 1024\n"));
  // Only parsed here: running it would ask the geometry for 2^78 boxes.
  EXPECT_EQ(error("machine = test\nsteps = 2\ndomain = 2147483647 2147483647 2147483647\n"),
            "config: domain 2147483647 2147483647 2147483647 makes "
            "302231454903657293676544 level-0 boxes of max_box_size 32; at most 1048576 "
            "are allowed");
  EXPECT_EQ(error("domain = 2048 2048 1024\ntile_size = 1\n"),
            "config: domain 2048 2048 1024 makes 4294967296 tiles of tile_size 1; at most "
            "67108864 are allowed");
  // The cap is checked after every key: box and tile sizes given after the
  // domain count.
  const std::string big = "domain = 4096 4096 4096\n";
  EXPECT_NE(error(big).find("level-0 boxes of max_box_size 32; at most 1048576"),
            std::string::npos);
  EXPECT_NE(error(big + "max_box_size = 64\n").find("tiles of tile_size 8; at most 67108864"),
            std::string::npos);
  EXPECT_NO_THROW(parse_text(big + "max_box_size = 64\ntile_size = 16\n"));
  // Refinement is capped at the finest level, after every key too. The first
  // three outgrow morton_key's 2^20 cells along an axis; the last is 2^20
  // along each, 2^60 in all, beyond the 2^53 cells a double counts exactly.
  // Only parsed here: running them fails inside the geometry.
  const std::string deep = "domain = 64 64 64\n";
  const std::string axis = " cells along an axis; at most 1048576 are allowed";
  EXPECT_EQ(error(deep + "max_levels = 12\nref_ratio = 16\nfront_thickness = 0.5\n"),
            "config: domain 64 64 64 with ref_ratio 16 and max_levels 12 makes a finest "
            "level of 1125899906842624" + axis);
  EXPECT_EQ(error(deep + "ref_ratio = 8\nmax_levels = 7\n"),
            "config: domain 64 64 64 with ref_ratio 8 and max_levels 7 makes a finest "
            "level of 16777216" + axis);
  EXPECT_EQ(error(deep + "max_levels = 5\nref_ratio = 16\n"),
            "config: domain 64 64 64 with ref_ratio 16 and max_levels 5 makes a finest "
            "level of 4194304" + axis);
  EXPECT_EQ(error(deep + "max_levels = 8\nref_ratio = 4\n"),
            "config: domain 64 64 64 with ref_ratio 4 and max_levels 8 makes a finest "
            "level of 1152921504606846976 cells; at most 9007199254740992 are allowed");
}

TEST(ConfigFile, ReplicationAboveStagingCoresIsRejectedNamingBoth) {
  EXPECT_EQ(parse("staging_cores = 4\nreplication = 4\n").replication, 4);
  for (const std::string text : {"staging_cores = 4\nreplication = 5\n",
                                 "replication = 5\nstaging_cores = 4\n"}) {
    try {
      (void)parse(text);
      ADD_FAILURE() << "parsed: " << text;
    } catch (const ContractError& e) {
      EXPECT_STREQ(e.what(),
                   "config: replication 5 exceeds staging_cores 4; each copy needs its own "
                   "server");
    }
  }
}

TEST(ConfigFile, FactorsMustBeAscending) {
  EXPECT_EQ(parse("mode = global\nfactors = 2 2 4\n").hints.factor_phases[0].factors,
            (std::vector<int>{2, 2, 4}));
  try {
    (void)parse("mode = global\nfactors = 4 2\n");
    ADD_FAILURE() << "descending factors parsed";
  } catch (const ContractError& e) {
    EXPECT_STREQ(e.what(), "config: factors must be ascending, got 4 2");
  }
}

TEST(ConfigFile, GeometryIsBalancedOverTheSimulationCores) {
  // sim_cores is the one rank count: leaving it out means its default, 2048,
  // for the geometry's load balance as well as for the cost model.
  const std::string file = "machine = test\ndomain = 256 128 128\nsteps = 3\n";
  EXPECT_EQ(events_csv_of(file), events_csv_of(file + "sim_cores = 2048\n"));
}

TEST(ConfigFile, SeededMutantsParseOrFailAsInputErrors) {
  // Every key once.
  const std::string full = R"(# a comment line
machine = intrepid
mode = global
analysis = statistics
objective = utilization
domain = 64 32 32
factors = 2 4 8
sim_cores = 4096   # trailing comment
staging_cores = 256
threads = 4
thread_efficiency = 0.9
steps = 40
ncomp = 5
analysis_ncomp = 1
analysis_interval = 2
max_levels = 3
ref_ratio = 2
max_box_size = 16
tile_size = 4
front_radius0 = 0.1
front_speed = 0.0095
front_thickness = 0.05
front_decay = 0.5
front_decay_onset = 10
blob_onset_step = 5
num_blobs = 3
blob_radius = 0.05
seed = 42
active_cell_fraction = 0.3
staging_usable_fraction = 0.8
sim_euler_flops = 1800
sim_advect_flops = 260
mc_scan_flops = 60
mc_active_flops = 900
euler = 1
sampling_period = 2
trigger = hybrid
trigger_quantile = 0.9
trigger_window = 8
trigger_sample_rate = 0.5
trigger_max_interval = 4
trigger_seed = 7
faults = seed=7;drop=0.1;retries=3;crash=10:2:5;straggler=3:2.5:4;lease=2
replication = 2
)";
  mutants::expect_parse_or_input_error(full, 2, mutants::text, [](const std::string& text) {
    std::istringstream is(text);
    (void)parse_workflow_config(is);
  });
}

TEST(ConfigFile, MissingFileThrows) {
  EXPECT_THROW(parse_workflow_config_file("no/such/config.cfg"), ContractError);
}

}  // namespace
}  // namespace xl::workflow
