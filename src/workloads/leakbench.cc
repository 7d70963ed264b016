#include "workloads/leakbench.h"

#include "cfi/design.h"
#include "common/log.h"
#include "compiler/ifc_passes.h"
#include "ipc/shm_channel.h"
#include "ir/builder.h"
#include "policy/ifc.h"
#include "policy/pointer_integrity.h"
#include "policy/policy_module.h"
#include "runtime/vm.h"
#include "verifier/verifier.h"

namespace hq {

using namespace ir;

namespace {

constexpr std::uint64_t kConfirmMagic = 0x5AFE5AFE5AFE5AFEULL;
constexpr std::uint64_t kSecretValue = 0x5EC12E75EC12E7ULL;
constexpr std::uint64_t kTaintedValue = 0x7A17BADBADC0DEULL;

/**
 * Explicit runtime source annotation (hq_label(p, LABEL)): a LABEL-DEF
 * carrying a runtime address, for heap/stack secrets the ir::Global
 * annotations cannot describe. Label 0 is the declassify form.
 */
void
emitLabelDef(IrBuilder &builder, int addr_reg, std::uint64_t label_value)
{
    Instr instr;
    instr.op = IrOp::LabelDefMsg;
    instr.a = addr_reg;
    instr.imm = label_value;
    builder.emit(instr);
}

/** Builds the victim program for one scenario. */
class LeakBuilder
{
  public:
    explicit LeakBuilder(LeakScenario scenario)
        : _scenario(scenario), _builder(_module)
    {
        _module.name =
            std::string("leakbench.") + leakScenarioName(scenario);
    }

    ir::Module build();

    int confirmedGlobal() const { return _confirmed; }

  private:
    /** Sink global: stores into it must not carry `forbid` bits. */
    int
    addSink(const char *sink_name, std::uint64_t forbid)
    {
        Global sink;
        sink.name = sink_name;
        sink.size = 8;
        sink.section = Section::Data;
        sink.ifc_sink_forbid = forbid;
        return _builder.addGlobal(std::move(sink));
    }

    /** Source global carrying a (possibly partial) label annotation. */
    int
    addLabeledGlobal(const char *g_name, std::uint64_t size,
                     std::uint64_t label_bits, std::uint64_t offset = 0,
                     std::uint64_t label_size = 0)
    {
        Global global;
        global.name = g_name;
        global.size = size;
        global.section = Section::Data;
        global.ifc_label = label_bits;
        global.ifc_label_offset = offset;
        global.ifc_label_size = label_size;
        global.word_init.emplace_back(offset, kSecretValue);
        return _builder.addGlobal(std::move(global));
    }

    void emitBody(int sink);

    const LeakScenario _scenario;
    ir::Module _module;
    IrBuilder _builder;
    int _confirmed = -1;
};

void
LeakBuilder::emitBody(int sink)
{
    IrBuilder &b = _builder;
    const int sink_addr = b.globalAddr(sink);

    switch (_scenario) {
      case LeakScenario::HeapOobIndex: {
        // A public heap array and, allocated right after it, a secret
        // heap block (a session key). The "attacker" supplies an index
        // one past the array; nobody bounds-checks it.
        const int pub = b.mallocOp(b.constInt(16));
        const int sec = b.mallocOp(b.constInt(8)); // contiguous
        emitLabelDef(b, sec, label::kSecret);
        b.store(sec, b.constInt(kSecretValue), TypeRef::intTy());
        const int oob = b.arith(ArithKind::Add, pub, b.constInt(16));
        const int v = b.load(oob, TypeRef::intTy());
        b.store(sink_addr, v, TypeRef::intTy());
        break;
      }

      case LeakScenario::StackOobIndex: {
        // Same bug on the stack: the secret local sits just above the
        // indexed buffer in the frame.
        const int buf = b.allocaOp(32);
        const int sec = b.allocaOp(8); // adjacent, at buf+32
        emitLabelDef(b, sec, label::kSecret);
        b.store(sec, b.constInt(kSecretValue), TypeRef::intTy());
        const int oob = b.arith(ArithKind::Add, buf, b.constInt(32));
        const int v = b.load(oob, TypeRef::intTy());
        b.store(sink_addr, v, TypeRef::intTy());
        break;
      }

      case LeakScenario::FormatLeak: {
        // Format-string-style walk: an attacker-chosen width makes the
        // output loop stride past the message buffer into the secret
        // global declared after it, echoing every word to the sink.
        Global fmt;
        fmt.name = "fmt_buf";
        fmt.size = 16;
        fmt.section = Section::Data;
        const int fmt_id = _builder.addGlobal(std::move(fmt));
        const int sec_id =
            addLabeledGlobal("fmt_secret", 8, label::kSecret);
        (void)sec_id; // adjacent to fmt_buf; the sweep reaches it

        const int start = b.globalAddr(fmt_id);
        const int i_slot = b.allocaOp(8);
        b.store(i_slot, start, TypeRef::dataPtr());
        const int limit =
            b.arith(ArithKind::Add, start, b.constInt(24)); // 3 words
        const int bb_head = b.newBlock();
        const int bb_body = b.newBlock();
        const int bb_done = b.newBlock();
        b.br(bb_head);
        b.setBlock(bb_head);
        const int cursor = b.load(i_slot, TypeRef::dataPtr());
        const int more = b.arith(ArithKind::Lt, cursor, limit);
        b.condBr(more, bb_body, bb_done);
        b.setBlock(bb_body);
        const int c2 = b.load(i_slot, TypeRef::dataPtr());
        const int word = b.load(c2, TypeRef::intTy());
        b.store(sink_addr, word, TypeRef::intTy()); // echo to output
        const int next = b.arith(ArithKind::Add, c2, b.constInt(8));
        b.store(i_slot, next, TypeRef::dataPtr());
        b.br(bb_head);
        b.setBlock(bb_done);
        break;
      }

      case LeakScenario::TaintedSyscallArg: {
        // Unsanitized network input copied straight into the staging
        // slot a syscall argument is marshalled from.
        Global input;
        input.name = "net_input";
        input.size = 8;
        input.section = Section::Data;
        input.ifc_label = label::kTainted;
        input.word_init.emplace_back(0, kTaintedValue);
        const int input_id = _builder.addGlobal(std::move(input));
        const int v =
            b.load(b.globalAddr(input_id), TypeRef::intTy());
        b.store(sink_addr, v, TypeRef::intTy());
        break;
      }

      case LeakScenario::CopyLaunder: {
        // One intermediate copy: the classic "it's just a temp" lie.
        const int sec_id =
            addLabeledGlobal("copy_secret", 8, label::kSecret);
        const int tmp = b.allocaOp(8);
        const int v =
            b.load(b.globalAddr(sec_id), TypeRef::intTy());
        b.store(tmp, v, TypeRef::intTy());
        const int w = b.load(tmp, TypeRef::intTy());
        b.store(sink_addr, w, TypeRef::intTy());
        break;
      }

      case LeakScenario::DoubleCopyLaunder: {
        // Two hops; the join chain must survive both.
        const int sec_id =
            addLabeledGlobal("copy2_secret", 8, label::kSecret);
        const int tmp1 = b.allocaOp(8);
        const int tmp2 = b.allocaOp(8);
        const int v =
            b.load(b.globalAddr(sec_id), TypeRef::intTy());
        b.store(tmp1, v, TypeRef::intTy());
        const int w = b.load(tmp1, TypeRef::intTy());
        b.store(tmp2, w, TypeRef::intTy());
        const int x = b.load(tmp2, TypeRef::intTy());
        b.store(sink_addr, x, TypeRef::intTy());
        break;
      }

      case LeakScenario::ArithLaunder: {
        // XOR-"encrypting" the secret does not launder its label:
        // provenance rides through arithmetic.
        const int sec_id =
            addLabeledGlobal("xor_secret", 8, label::kSecret);
        const int v =
            b.load(b.globalAddr(sec_id), TypeRef::intTy());
        const int x =
            b.arith(ArithKind::Xor, v, b.constInt(0xA5A5A5A5A5A5A5A5ULL));
        b.store(sink_addr, x, TypeRef::intTy());
        break;
      }

      case LeakScenario::DoubleFetch: {
        // TOCTOU on shared memory: the victim snapshots the shared
        // word, validates and declassifies the *snapshot*, then — the
        // bug — re-fetches from the shared location for the actual use.
        const int shared_id =
            addLabeledGlobal("shared_box", 8, label::kSecret);
        const int shared = b.globalAddr(shared_id);
        const int snap = b.allocaOp(8);
        const int v1 = b.load(shared, TypeRef::intTy());
        b.store(snap, v1, TypeRef::intTy());
        // Validation passed: the snapshot is declassified.
        emitLabelDef(b, snap, label::kPublic);
        // Second fetch: the shared word (still SECRET, and possibly
        // swapped since validation) is what actually flows out.
        const int v2 = b.load(shared, TypeRef::intTy());
        b.store(sink_addr, v2, TypeRef::intTy());
        break;
      }

      case LeakScenario::StructOverread: {
        // A record whose first word is public and second is secret
        // (ifc_label_offset/size carve out just the secret field). The
        // serializer copies the whole struct instead of the prefix.
        const int rec_id = addLabeledGlobal("record", 16, label::kSecret,
                                            /*offset=*/8,
                                            /*label_size=*/8);
        const int rec = b.globalAddr(rec_id);
        const int v0 = b.load(rec, TypeRef::intTy());
        b.store(sink_addr, v0, TypeRef::intTy()); // public word: fine
        const int hi = b.arith(ArithKind::Add, rec, b.constInt(8));
        const int v1 = b.load(hi, TypeRef::intTy());
        b.store(sink_addr, v1, TypeRef::intTy()); // secret word: deny
        break;
      }

      case LeakScenario::PtrRedirectRead: {
        // The attacker corrupts a *data* pointer (CFI does not protect
        // those) so a benign-looking read pulls from the secret.
        Global pub;
        pub.name = "pub_data";
        pub.size = 8;
        pub.section = Section::Data;
        const int pub_id = _builder.addGlobal(std::move(pub));
        const int sec_id =
            addLabeledGlobal("redirect_secret", 8, label::kSecret);
        const int ptr_slot = b.allocaOp(8);
        b.store(ptr_slot, b.globalAddr(pub_id), TypeRef::dataPtr());
        // The corruption: redirect the pointer at the secret.
        b.store(ptr_slot, b.globalAddr(sec_id), TypeRef::dataPtr());
        const int p = b.load(ptr_slot, TypeRef::dataPtr());
        const int v = b.load(p, TypeRef::intTy());
        b.store(sink_addr, v, TypeRef::intTy());
        break;
      }
    }
}

ir::Module
LeakBuilder::build()
{
    Global confirmed;
    confirmed.name = "exfil_confirmed";
    confirmed.size = 8;
    confirmed.section = Section::Data;
    _confirmed = _builder.addGlobal(std::move(confirmed));

    // Syscall-argument sinks forbid taint; everything else forbids
    // SECRET (an output channel the secret must never reach).
    const std::uint64_t forbid =
        _scenario == LeakScenario::TaintedSyscallArg ? label::kTainted
                                                     : label::kSecret;
    const char *sink_name = _scenario == LeakScenario::TaintedSyscallArg
                                ? "syscall_arg"
                                : "public_out";
    const int sink = addSink(sink_name, forbid);

    _builder.beginFunction("main");
    emitBody(sink);
    // The exfiltration already happened; confirm it the RIPE way — a
    // gated system call followed by the success marker, so a detected
    // violation (kill mode) provably blocks confirmation.
    _builder.syscall(59); // execve-like
    const int addr = _builder.globalAddr(_confirmed);
    _builder.store(addr, _builder.constInt(kConfirmMagic),
                   TypeRef::intTy());
    _builder.ret(_builder.constInt(0));
    _builder.endFunction();
    _module.entry_function =
        static_cast<int>(_module.functions.size()) - 1;
    return std::move(_module);
}

} // namespace

const char *
leakScenarioName(LeakScenario scenario)
{
    switch (scenario) {
      case LeakScenario::HeapOobIndex: return "heap-oob-index";
      case LeakScenario::StackOobIndex: return "stack-oob-index";
      case LeakScenario::FormatLeak: return "format-leak";
      case LeakScenario::TaintedSyscallArg: return "tainted-syscall-arg";
      case LeakScenario::CopyLaunder: return "copy-launder";
      case LeakScenario::DoubleCopyLaunder: return "double-copy-launder";
      case LeakScenario::ArithLaunder: return "arith-launder";
      case LeakScenario::DoubleFetch: return "double-fetch";
      case LeakScenario::StructOverread: return "struct-overread";
      case LeakScenario::PtrRedirectRead: return "ptr-redirect-read";
    }
    return "?";
}

std::vector<LeakScenario>
leakScenarioSuite()
{
    return {
        LeakScenario::HeapOobIndex,      LeakScenario::StackOobIndex,
        LeakScenario::FormatLeak,        LeakScenario::TaintedSyscallArg,
        LeakScenario::CopyLaunder,       LeakScenario::DoubleCopyLaunder,
        LeakScenario::ArithLaunder,      LeakScenario::DoubleFetch,
        LeakScenario::StructOverread,    LeakScenario::PtrRedirectRead,
    };
}

const char *
policySuiteName(PolicySuite suite)
{
    switch (suite) {
      case PolicySuite::CfiOnly: return "cfi-only";
      case PolicySuite::CfiPlusIfc: return "cfi+ifc";
    }
    return "?";
}

ir::Module
buildLeakModule(LeakScenario scenario)
{
    LeakBuilder builder(scenario);
    return builder.build();
}

LeakResult
runLeakAttack(LeakScenario scenario, PolicySuite suite,
              std::size_t num_shards, WireFormat format)
{
    LeakBuilder builder(scenario);
    ir::Module module = builder.build();

    // The instrumentation is identical for both policy suites: IFC
    // lowering plus the full HQ CFI pipeline. Only verifier enforcement
    // varies. IFC lowering runs first so that System-Call message
    // placement, the CFI pipeline's last pass, sees the label ops.
    PassManager ifc_pm;
    ifc_pm.add(std::make_unique<IfcLoweringPass>());
    Status status = ifc_pm.run(module);
    if (!status.isOk())
        panic("leakbench IFC lowering failed: " + status.toString());
    status = instrumentModule(module, CfiDesign::HqSfeStk);
    if (!status.isOk())
        panic("leakbench CFI instrumentation failed: " +
              status.toString());

    KernelModule::Config kconfig;
    kconfig.epoch = std::chrono::milliseconds(200);
    KernelModule kernel(kconfig);

    std::shared_ptr<Policy> policy;
    if (suite == PolicySuite::CfiOnly) {
        policy = std::make_shared<PointerIntegrityPolicy>();
    } else {
        auto multi = std::make_shared<MultiPolicy>();
        multi->addPolicy(std::make_unique<PointerIntegrityPolicy>());
        multi->addPolicy(std::make_unique<IfcPolicy>());
        policy = multi;
    }

    Verifier::Config vconfig;
    vconfig.kill_on_violation = true; // effectiveness mode
    vconfig.num_shards = num_shards;  // verdicts must not depend on this
    Verifier verifier(kernel, policy, vconfig);

    ShmChannel channel(1 << 12);
    if (format != WireFormat::V1 && !channel.negotiateFormat(format))
        panic("leakbench channel refused wire format negotiation");
    verifier.attachChannel(&channel, 1);
    HqRuntime runtime(1, channel, kernel);
    if (!runtime.enable().isOk())
        panic("leakbench runtime enable failed");
    verifier.start();

    VmConfig config = makeVmConfig(CfiDesign::HqSfeStk);
    config.stop_on_inline_violation = true;
    config.max_instructions = 64ULL << 20;
    Vm vm(module, config, &runtime);

    const RunResult result = vm.run();
    verifier.stop();

    LeakResult out;
    out.detail = result.detail;
    std::uint64_t confirmed = 0;
    vm.memory().read64(vm.globalAddr(builder.confirmedGlobal()),
                       confirmed);
    out.leaked = confirmed == kConfirmMagic;
    out.detected = verifier.hasViolation(1);
    if (suite == PolicySuite::CfiPlusIfc) {
        auto *multi_ctx =
            static_cast<MultiPolicyContext *>(verifier.contextFor(1));
        if (multi_ctx != nullptr) {
            auto *ifc_ctx = static_cast<IfcContext *>(
                multi_ctx->contextFor("ifc"));
            if (ifc_ctx != nullptr)
                out.ifc_violations = ifc_ctx->violationCount();
        }
    }
    return out;
}

} // namespace hq
