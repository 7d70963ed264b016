/**
 * @file
 * The memory-safety execution policy from §4.2: the runtime reports
 * allocation lifecycle and access events over AppendWrite, and the
 * verifier's MemorySafetyPolicy detects spatial (out-of-bounds) and
 * temporal (use-after-free, double-free) violations — a different
 * policy on the same HerQules framework, no CFI involved.
 *
 * Build: cmake --build build && ./build/examples/memory_safety
 */

#include <cstdio>

#include "common/log.h"
#include "ir/builder.h"
#include "policy/memory_safety.h"
#include "runtime/vm.h"
#include "uarch/uarch_model_channel.h"
#include "verifier/verifier.h"

using namespace hq;
using namespace hq::ir;

namespace {

enum class Bug { None, OutOfBounds, UseAfterFree };

Module
buildProgram(Bug bug)
{
    Module module;
    IrBuilder builder(module);
    builder.beginFunction("main");
    const int size = builder.constInt(32);
    const int p = builder.mallocOp(size);
    builder.store(p, builder.constInt(7), TypeRef::intTy());

    if (bug == Bug::OutOfBounds) {
        const int off = builder.constInt(40); // past the 32-byte block
        const int oob = builder.arith(ArithKind::Add, p, off);
        builder.store(oob, builder.constInt(9), TypeRef::intTy());
    }
    if (bug == Bug::UseAfterFree) {
        builder.freeOp(p);
        builder.load(p, TypeRef::intTy()); // stale access
        builder.ret(builder.constInt(0));
        builder.endFunction();
        module.entry_function = 0;
        return module;
    }

    const int v = builder.load(p, TypeRef::intTy());
    builder.freeOp(p);
    builder.ret(v);
    builder.endFunction();
    module.entry_function = 0;
    return module;
}

const char *
runOnce(Bug bug)
{
    Module module = buildProgram(bug);

    KernelModule kernel;
    auto policy = std::make_shared<MemorySafetyPolicy>();
    Verifier::Config vconfig;
    vconfig.kill_on_violation = false;
    Verifier verifier(kernel, policy, vconfig);
    UarchModelChannel channel(1 << 10);
    verifier.attachChannel(&channel, 1);
    HqRuntime runtime(1, channel, kernel);
    runtime.enable();
    verifier.start();

    VmConfig config;
    config.memsafety_messages = true; // §4.2 policy instrumentation
    Vm vm(module, config, &runtime);
    const RunResult result = vm.run();
    verifier.stop();

    static char line[160];
    auto *ctx = static_cast<MemorySafetyContext *>(verifier.contextFor(1));
    const char *kind = "none";
    if (ctx) {
        switch (ctx->lastViolation()) {
          case MemoryViolation::OutOfBounds: kind = "out-of-bounds"; break;
          case MemoryViolation::CrossAllocation: kind = "cross-alloc"; break;
          case MemoryViolation::OverlapCreate: kind = "overlap"; break;
          case MemoryViolation::InvalidFree: kind = "invalid-free"; break;
          case MemoryViolation::AddressWrap: kind = "address-wrap"; break;
          case MemoryViolation::None: break;
        }
    }
    std::snprintf(line, sizeof line,
                  "exit=%s messages=%llu violation=%s",
                  exitKindName(result.exit),
                  static_cast<unsigned long long>(runtime.messagesSent()),
                  kind);
    return line;
}

} // namespace

int
main()
{
    setLogLevel(LogLevel::Error);
    std::printf("Memory-safety policy (paper Sec. 4.2)\n\n");
    std::printf("clean program:      %s\n", runOnce(Bug::None));
    std::printf("buffer overflow:    %s\n", runOnce(Bug::OutOfBounds));
    std::printf("use-after-free:     %s\n", runOnce(Bug::UseAfterFree));
    return 0;
}
