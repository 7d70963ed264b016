/**
 * @file
 * System-level integration tests: several monitored programs verified
 * concurrently by one verifier, the FPGA transport end-to-end with
 * sequence-integrity checking, the store-to-load-forwarding runtime
 * guard tripping on unexpected recursion, and fork semantics through
 * the whole stack.
 */

#include <gtest/gtest.h>

#include <thread>

#include "cfi/design.h"
#include "fpga/fpga_channel.h"
#include "ipc/shm_channel.h"
#include "ir/builder.h"
#include "policy/pointer_integrity.h"
#include "runtime/vm.h"
#include "verifier/verifier.h"
#include "workloads/spec_generator.h"
#include "workloads/spec_profiles.h"

namespace hq {
namespace {

using namespace ir;

TEST(Integration, ThreeMonitoredProgramsOneVerifier)
{
    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config vconfig;
    vconfig.kill_on_violation = false;
    Verifier verifier(kernel, policy, vconfig);

    // One channel and runtime per process, a VM per thread.
    const char *names[3] = {"bzip2", "xalancbmk", "h264ref"};
    std::vector<std::unique_ptr<ShmChannel>> channels;
    std::vector<std::unique_ptr<HqRuntime>> runtimes;
    std::vector<ir::Module> modules;
    for (int p = 0; p < 3; ++p) {
        channels.push_back(std::make_unique<ShmChannel>(1 << 14));
        verifier.attachChannel(channels.back().get(), p + 1);
        runtimes.push_back(std::make_unique<HqRuntime>(
            p + 1, *channels.back(), kernel));
        modules.push_back(buildSpecModule(specProfile(names[p]), 0.02));
        ASSERT_TRUE(
            instrumentModule(modules.back(), CfiDesign::HqSfeStk).isOk());
        ASSERT_TRUE(runtimes.back()->enable().isOk());
    }
    verifier.start();

    std::vector<std::thread> threads;
    std::vector<RunResult> results(3);
    for (int p = 0; p < 3; ++p) {
        threads.emplace_back([&, p] {
            VmConfig config = makeVmConfig(CfiDesign::HqSfeStk);
            Vm vm(modules[p], config, runtimes[p].get());
            results[p] = vm.run();
        });
    }
    for (auto &thread : threads)
        thread.join();
    verifier.stop();

    for (int p = 0; p < 3; ++p) {
        EXPECT_EQ(results[p].exit, ExitKind::Ok)
            << names[p] << ": " << results[p].detail;
        EXPECT_FALSE(verifier.hasViolation(p + 1)) << names[p];
        EXPECT_GT(verifier.statsFor(p + 1).messages, 0u) << names[p];
    }
    // Streams were not cross-contaminated: per-process message counts
    // match what each runtime sent.
    for (int p = 0; p < 3; ++p) {
        EXPECT_EQ(verifier.statsFor(p + 1).messages,
                  runtimes[p]->messagesSent());
    }
}

TEST(Integration, FpgaTransportEndToEndWithSequenceCheck)
{
    ir::Module module = buildSpecModule(specProfile("astar"), 0.02);
    ASSERT_TRUE(instrumentModule(module, CfiDesign::HqSfeStk).isOk());

    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier verifier(kernel, policy);

    FpgaConfig fpga_config;
    fpga_config.host_buffer_messages = 1 << 14;
    fpga_config.mmio_write_ns = 0;
    FpgaChannel channel(fpga_config);
    channel.afu().setPidRegister(1);
    verifier.attachChannel(&channel, 1, /*device_stamped=*/true);
    HqRuntime runtime(1, channel, kernel);
    ASSERT_TRUE(runtime.enable().isOk());
    verifier.start();

    VmConfig config = makeVmConfig(CfiDesign::HqSfeStk);
    Vm vm(module, config, &runtime);
    const RunResult result = vm.run();
    verifier.stop();

    EXPECT_EQ(result.exit, ExitKind::Ok) << result.detail;
    EXPECT_FALSE(verifier.hasViolation(1));
    EXPECT_EQ(channel.afu().droppedMessages(), 0u);
    EXPECT_EQ(verifier.statsFor(1).messages, runtime.messagesSent());
}

TEST(Integration, ForwardingGuardTripsOnUnexpectedRecursion)
{
    // A function whose protected local is forwarded across a direct
    // call, where the callee unexpectedly re-enters it (via a function
    // pointer the static analysis could not see through). The runtime
    // guard must terminate the program (§4.1.4).
    Module module;
    IrBuilder builder(module);
    const int sig = builder.newSignatureClass();

    Global hook;
    hook.name = "hook";
    hook.size = 8;
    const int hook_id = builder.addGlobal(std::move(hook));

    builder.beginFunction("trampoline");
    // Calls back through the hook global (opaque to the analysis).
    const int hook_addr = builder.globalAddr(hook_id);
    const int fp = builder.load(hook_addr, TypeRef::dataPtr());
    const int as_fp = builder.cast(fp, TypeRef::funcPtr(sig));
    const int is_set = builder.arith(ArithKind::Lt,
                                     builder.constInt(0), fp);
    const int bb_call = builder.newBlock();
    const int bb_skip = builder.newBlock();
    builder.condBr(is_set, bb_call, bb_skip);
    builder.setBlock(bb_call);
    builder.callIndirect(as_fp, {}, sig);
    builder.ret();
    builder.setBlock(bb_skip);
    builder.ret();
    builder.endFunction();

    builder.beginFunction("optimized", 0, sig);
    const int slot = builder.allocaOp(8, TypeRef::funcPtr(sig));
    const int callee = builder.funcAddr(0, sig);
    builder.store(slot, callee, TypeRef::funcPtr(sig));
    builder.callDirect(0, {}); // may re-enter us via the hook
    const int loaded = builder.load(slot, TypeRef::funcPtr(sig));
    (void)loaded;
    builder.ret();
    builder.endFunction();

    builder.beginFunction("main");
    // Point the hook at "optimized" before calling it: trampoline will
    // re-enter it while its guard is set.
    const int addr = builder.globalAddr(hook_id);
    const int target = builder.funcAddr(1, sig);
    builder.store(addr, target, TypeRef::funcPtr(sig));
    builder.callDirect(1, {});
    builder.ret(builder.constInt(0));
    builder.endFunction();
    module.entry_function = 2;

    StatSet stats;
    ASSERT_TRUE(
        instrumentModule(module, CfiDesign::HqSfeStk, &stats).isOk());
    ASSERT_EQ(stats.get("optimize.guarded_functions"), 1)
        << "test premise: forwarding must have crossed the call";

    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config vconfig;
    vconfig.kill_on_violation = false;
    Verifier verifier(kernel, policy, vconfig);
    ShmChannel channel(1 << 10);
    verifier.attachChannel(&channel, 1);
    HqRuntime runtime(1, channel, kernel);
    ASSERT_TRUE(runtime.enable().isOk());
    verifier.start();

    VmConfig config = makeVmConfig(CfiDesign::HqSfeStk);
    Vm vm(module, config, &runtime);
    const RunResult result = vm.run();
    verifier.stop();
    EXPECT_EQ(result.exit, ExitKind::GuardFailure);
    EXPECT_NE(result.detail.find("recompile"), std::string::npos);
}

TEST(Integration, ForkedChildInheritsProtectionState)
{
    // Parent defines pointers, forks; the child's checks validate
    // against the inherited shadow store, and child mutations do not
    // leak back to the parent.
    KernelModule kernel;
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier::Config vconfig;
    vconfig.kill_on_violation = false;
    Verifier verifier(kernel, policy, vconfig);
    ShmChannel parent_channel(256);
    ShmChannel child_channel(256);
    verifier.attachChannel(&parent_channel, 1);
    verifier.attachChannel(&child_channel, 2);

    HqRuntime parent(1, parent_channel, kernel);
    ASSERT_TRUE(parent.enable().isOk());
    parent.sendDefine(0x1000, 0xAA);
    verifier.poll();

    ASSERT_TRUE(kernel.forkProcess(1, 2).isOk());
    HqRuntime child(2, child_channel, kernel);

    child.sendCheck(0x1000, 0xAA); // inherited definition
    child.sendInvalidate(0x1000);
    verifier.poll();
    EXPECT_FALSE(verifier.hasViolation(2));

    parent.sendCheck(0x1000, 0xAA); // parent copy unaffected
    verifier.poll();
    EXPECT_FALSE(verifier.hasViolation(1));

    // Syscall gating is per process.
    child.sendSyscallMsg(1);
    verifier.poll();
    EXPECT_TRUE(kernel.syscallEnter(2, 1).isOk());
}

TEST(Integration, EpochTimeoutKillsSilentProgram)
{
    // A monitored program performing a syscall without any sync message
    // in flight (e.g. injected shellcode) is terminated at the epoch.
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    builder.syscall(59);
    builder.ret();
    builder.endFunction();
    module.entry_function = 0;
    // NOT instrumented: no System-Call message will ever arrive.

    KernelModule::Config kconfig;
    kconfig.epoch = std::chrono::milliseconds(30);
    KernelModule kernel(kconfig);
    auto policy = std::make_shared<PointerIntegrityPolicy>();
    Verifier verifier(kernel, policy);
    ShmChannel channel(256);
    verifier.attachChannel(&channel, 1);
    HqRuntime runtime(1, channel, kernel);
    ASSERT_TRUE(runtime.enable().isOk());
    verifier.start();

    VmConfig config;
    config.hq_messages = false;
    Vm vm(module, config, &runtime);
    const RunResult result = vm.run();
    verifier.stop();
    EXPECT_EQ(result.exit, ExitKind::Killed);
    EXPECT_EQ(kernel.statsFor(1).epoch_timeouts, 1u);
}

} // namespace
} // namespace hq
