/**
 * @file
 * LeakBench CLI: run the data-only attack corpus under both policy
 * suites and print the verdict table as JSON lines, one row per
 * scenario. CI's `policy-parity` step runs this at every {shards} x
 * {format} combination and diffs the tables field by field — verdicts
 * must not depend on how the verifier is sharded or how the messages
 * travel.
 *
 *   hq_leakbench --shards=4 --format=v2
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "workloads/leakbench.h"

using namespace hq;

int
main(int argc, char **argv)
{
    std::size_t shards = 1;
    WireFormat format = WireFormat::V1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--shards=", 0) == 0) {
            shards = static_cast<std::size_t>(
                std::strtoul(arg.c_str() + 9, nullptr, 10));
        } else if (arg == "--format=v1") {
            format = WireFormat::V1;
        } else if (arg == "--format=v2") {
            format = WireFormat::V2;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--shards=N] [--format=v1|v2]\n",
                         argv[0]);
            return 2;
        }
    }
    if (shards == 0) {
        std::fprintf(stderr, "--shards must be at least 1\n");
        return 2;
    }

    int corpus_failures = 0;
    for (LeakScenario scenario : leakScenarioSuite()) {
        const LeakResult cfi =
            runLeakAttack(scenario, PolicySuite::CfiOnly, shards, format);
        const LeakResult ifc = runLeakAttack(
            scenario, PolicySuite::CfiPlusIfc, shards, format);
        // The corpus contract, independent of the parity diff.
        if (!cfi.leaked || cfi.detected || ifc.leaked || !ifc.detected)
            ++corpus_failures;
        std::printf("{\"scenario\":\"%s\",\"cfi_leaked\":%s,"
                    "\"cfi_detected\":%s,\"ifc_leaked\":%s,"
                    "\"ifc_detected\":%s,\"ifc_violations\":%llu}\n",
                    leakScenarioName(scenario),
                    cfi.leaked ? "true" : "false",
                    cfi.detected ? "true" : "false",
                    ifc.leaked ? "true" : "false",
                    ifc.detected ? "true" : "false",
                    static_cast<unsigned long long>(ifc.ifc_violations));
    }
    if (corpus_failures != 0) {
        std::fprintf(stderr, "%d scenario(s) broke the accept/deny "
                             "contract\n",
                     corpus_failures);
        return 1;
    }
    return 0;
}
