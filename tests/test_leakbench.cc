/**
 * @file
 * LeakBench verdict tests: every data-only attack in the corpus must be
 * ACCEPTED by a CFI-only verifier (control flow is never corrupted) and
 * DENIED by CFI+IFC (the LABEL-CHECK violation blocks the confirmation
 * syscall). The parity suites re-run the corpus across verifier shard
 * counts {1,4} and wire formats {v1, v2} and diff the whole verdict
 * table field by field — the same shard/format parity gates the RIPE
 * suite gets.
 */

#include <gtest/gtest.h>

#include "compiler/ifc_passes.h"
#include "ir/instr.h"
#include "workloads/leakbench.h"

namespace hq {
namespace {

/** One comparable verdict row. */
struct VerdictRow
{
    std::string scenario;
    bool cfi_leaked;
    bool cfi_detected;
    bool ifc_leaked;
    bool ifc_detected;
    std::uint64_t ifc_violations;

    bool
    operator==(const VerdictRow &other) const
    {
        return scenario == other.scenario &&
               cfi_leaked == other.cfi_leaked &&
               cfi_detected == other.cfi_detected &&
               ifc_leaked == other.ifc_leaked &&
               ifc_detected == other.ifc_detected &&
               ifc_violations == other.ifc_violations;
    }
};

std::vector<VerdictRow>
verdictTable(std::size_t num_shards, WireFormat format)
{
    std::vector<VerdictRow> table;
    for (LeakScenario scenario : leakScenarioSuite()) {
        const LeakResult cfi = runLeakAttack(
            scenario, PolicySuite::CfiOnly, num_shards, format);
        const LeakResult ifc = runLeakAttack(
            scenario, PolicySuite::CfiPlusIfc, num_shards, format);
        table.push_back(VerdictRow{leakScenarioName(scenario),
                                   cfi.leaked, cfi.detected, ifc.leaked,
                                   ifc.detected, ifc.ifc_violations});
    }
    return table;
}

void
expectTablesEqual(const std::vector<VerdictRow> &baseline,
                  const std::vector<VerdictRow> &other,
                  const std::string &what)
{
    ASSERT_EQ(baseline.size(), other.size()) << what;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(baseline[i].scenario, other[i].scenario) << what;
        EXPECT_EQ(baseline[i].cfi_leaked, other[i].cfi_leaked)
            << what << ": " << baseline[i].scenario;
        EXPECT_EQ(baseline[i].cfi_detected, other[i].cfi_detected)
            << what << ": " << baseline[i].scenario;
        EXPECT_EQ(baseline[i].ifc_leaked, other[i].ifc_leaked)
            << what << ": " << baseline[i].scenario;
        EXPECT_EQ(baseline[i].ifc_detected, other[i].ifc_detected)
            << what << ": " << baseline[i].scenario;
        EXPECT_EQ(baseline[i].ifc_violations, other[i].ifc_violations)
            << what << ": " << baseline[i].scenario;
    }
}

// --- The headline contract: CFI accepts, CFI+IFC denies ---------------

class LeakVerdict : public ::testing::TestWithParam<LeakScenario>
{};

TEST_P(LeakVerdict, CfiAloneAccepts)
{
    const LeakResult result =
        runLeakAttack(GetParam(), PolicySuite::CfiOnly);
    EXPECT_TRUE(result.leaked)
        << "data-only attack should complete under CFI alone";
    EXPECT_FALSE(result.detected)
        << "CFI must not flag a control-flow-clean run";
}

TEST_P(LeakVerdict, CfiPlusIfcDenies)
{
    const LeakResult result =
        runLeakAttack(GetParam(), PolicySuite::CfiPlusIfc);
    EXPECT_FALSE(result.leaked)
        << "IFC violation must block the confirmation syscall";
    EXPECT_TRUE(result.detected);
    EXPECT_GE(result.ifc_violations, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, LeakVerdict, ::testing::ValuesIn(leakScenarioSuite()),
    [](const ::testing::TestParamInfo<LeakScenario> &info) {
        std::string tag = leakScenarioName(info.param);
        for (char &c : tag)
            if (c == '-')
                c = '_';
        return tag;
    });

// --- Shard / wire-format parity sweeps --------------------------------

TEST(LeakParity, ShardCountDoesNotChangeVerdicts)
{
    const auto one = verdictTable(1, WireFormat::V1);
    const auto four = verdictTable(4, WireFormat::V1);
    expectTablesEqual(one, four, "1 vs 4 shards");
}

TEST(LeakParity, WireFormatDoesNotChangeVerdicts)
{
    const auto v1 = verdictTable(1, WireFormat::V1);
    const auto v2 = verdictTable(1, WireFormat::V2);
    expectTablesEqual(v1, v2, "v1 vs v2");
}

TEST(LeakParity, ShardedV2MatchesSerialV1)
{
    // The cross term: the full corpus at {4 shards, v2} against the
    // {1 shard, v1} baseline.
    const auto baseline = verdictTable(1, WireFormat::V1);
    const auto crossed = verdictTable(4, WireFormat::V2);
    expectTablesEqual(baseline, crossed, "1-shard v1 vs 4-shard v2");
}

// --- Instrumentation shape ---------------------------------------------

int
countOps(const ir::Module &module, ir::IrOp op)
{
    int count = 0;
    for (const auto &function : module.functions)
        for (const auto &block : function.blocks)
            for (const auto &instr : block.instrs)
                count += instr.op == op;
    return count;
}

TEST(LeakLowering, AnnotatedScenariosGetLabelOps)
{
    for (LeakScenario scenario : leakScenarioSuite()) {
        ir::Module module = buildLeakModule(scenario);
        PassManager pm;
        pm.add(std::make_unique<IfcLoweringPass>());
        ASSERT_TRUE(pm.run(module).isOk())
            << leakScenarioName(scenario);
        // Every scenario has at least one labeled source (global
        // annotation or explicit runtime LABEL-DEF), propagating joins,
        // and a sink check.
        EXPECT_GE(countOps(module, ir::IrOp::LabelDefMsg), 1)
            << leakScenarioName(scenario);
        EXPECT_GE(countOps(module, ir::IrOp::LabelJoinMsg), 1)
            << leakScenarioName(scenario);
        EXPECT_GE(countOps(module, ir::IrOp::LabelCheckMsg), 1)
            << leakScenarioName(scenario);
    }
}

TEST(LeakLowering, SyscallSyncBeforeIfcLoweringIsRejected)
{
    // Placing System-Call messages before the label ops exist lets a
    // sink's LABEL-CHECK land between a message and its syscall; the
    // pass manager's verification must refuse that order every time.
    // Only format-leak escapes: its sink store sits in a loop body that
    // the syscall block does not post-dominate, so no message hoists
    // above it.
    for (LeakScenario scenario : leakScenarioSuite()) {
        ir::Module module = buildLeakModule(scenario);
        PassManager pm;
        pm.add(std::make_unique<SyscallSyncPass>());
        pm.add(std::make_unique<IfcLoweringPass>());
        const Status status = pm.run(module);
        if (scenario == LeakScenario::FormatLeak) {
            EXPECT_TRUE(status.isOk()) << status.toString();
            continue;
        }
        EXPECT_FALSE(status.isOk()) << leakScenarioName(scenario);
        EXPECT_NE(status.message().find("after ifc-lowering"),
                  std::string::npos)
            << status.toString();
    }
}

} // namespace
} // namespace hq
