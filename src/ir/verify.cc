#include "ir/verify.h"

#include <set>

namespace hq::ir {

namespace {

Status
fail(const Function &function, int block, const std::string &what)
{
    return Status::error(StatusCode::FailedPrecondition,
                         function.name + " bb" + std::to_string(block) +
                             ": " + what);
}

/**
 * Walking forward from the System-Call message at instrs[index] of
 * `block`, through the block and any chain of unconditional branches,
 * the first op that must stay ordered before a syscall has to be the
 * syscall itself. Otherwise its ack would not prove that every message
 * sent before the syscall was checked (§2.2).
 */
Status
verifySyscallMessage(const Function &function, int block,
                     std::size_t index)
{
    std::set<int> visited{block};
    int at = block;
    for (std::size_t i = index + 1;; i = 0) {
        const auto &instrs = function.blocks[at].instrs;
        for (; i < instrs.size(); ++i) {
            if (instrs[i].op == IrOp::Syscall)
                return Status::ok();
            if (ordersBeforeSyscall(instrs[i].op))
                return fail(function, block,
                            "System-Call message separated from its "
                            "syscall by " +
                                instrs[i].toString());
        }
        const Instr &term = instrs.back();
        if (term.op != IrOp::Br || !visited.insert(term.target0).second)
            return fail(function, block,
                        "System-Call message not followed by a syscall");
        at = term.target0;
    }
}

} // namespace

Status
verifyFunction(const Module &module, const Function &function)
{
    const int num_blocks = static_cast<int>(function.blocks.size());
    if (num_blocks == 0) {
        return Status::error(StatusCode::FailedPrecondition,
                             function.name + ": no blocks");
    }

    std::set<int> defined;
    for (int p = 0; p < function.num_params; ++p)
        defined.insert(p);

    for (int block = 0; block < num_blocks; ++block) {
        const auto &instrs = function.blocks[block].instrs;
        if (instrs.empty())
            return fail(function, block, "empty block");
        if (!instrs.back().isTerminator())
            return fail(function, block, "missing terminator");

        for (std::size_t i = 0; i < instrs.size(); ++i) {
            const Instr &instr = instrs[i];
            if (instr.isTerminator() && i + 1 != instrs.size())
                return fail(function, block, "terminator mid-block");

            // Register sanity. (Cross-block def-before-use is enforced
            // structurally by the builder; here we check ranges and
            // single assignment, which the passes must preserve.)
            for (int reg : {instr.a, instr.b, instr.c}) {
                if (reg >= function.num_regs)
                    return fail(function, block,
                                "operand register out of range: " +
                                    instr.toString());
            }
            for (int reg : instr.args) {
                if (reg < 0 || reg >= function.num_regs)
                    return fail(function, block,
                                "call arg out of range: " +
                                    instr.toString());
            }
            if (instr.dest >= 0) {
                if (instr.dest >= function.num_regs)
                    return fail(function, block,
                                "dest register out of range");
                if (!defined.insert(instr.dest).second)
                    return fail(function, block,
                                "register multiply defined: " +
                                    instr.toString());
            }

            // Branch targets.
            for (int target : {instr.target0, instr.target1}) {
                if (target >= num_blocks)
                    return fail(function, block,
                                "branch target out of range");
            }
            if (instr.op == IrOp::Br && instr.target0 < 0)
                return fail(function, block, "br without target");
            if (instr.op == IrOp::CondBr &&
                (instr.target0 < 0 || instr.target1 < 0))
                return fail(function, block, "condbr without targets");

            // Id ranges.
            if (instr.op == IrOp::CallDirect || instr.op == IrOp::FuncAddr) {
                if (instr.imm >= module.functions.size())
                    return fail(function, block,
                                "function id out of range");
            }
            if (instr.op == IrOp::GlobalAddr &&
                instr.imm >= module.globals.size())
                return fail(function, block, "global id out of range");
            if (instr.op == IrOp::VCall && instr.aux >= 0 &&
                instr.aux >= static_cast<int>(module.classes.size()))
                return fail(function, block, "class id out of range");
        }
    }

    // Runs once the structure is known good: the walk follows branches.
    for (int block = 0; block < num_blocks; ++block) {
        const auto &instrs = function.blocks[block].instrs;
        for (std::size_t i = 0; i < instrs.size(); ++i) {
            if (instrs[i].op != IrOp::HqSyscallMsg)
                continue;
            Status status = verifySyscallMessage(function, block, i);
            if (!status.isOk())
                return status;
        }
    }
    return Status::ok();
}

Status
verifyModule(const Module &module)
{
    if (module.entry_function < 0 ||
        module.entry_function >=
            static_cast<int>(module.functions.size())) {
        return Status::error(StatusCode::FailedPrecondition,
                             module.name + ": bad entry function");
    }
    for (const Function &function : module.functions) {
        Status status = verifyFunction(module, function);
        if (!status.isOk())
            return status;
    }
    for (const Global &global : module.globals) {
        for (const auto &[offset, func_id] : global.funcptr_init) {
            if (offset + 8 > global.size)
                return Status::error(StatusCode::FailedPrecondition,
                                     global.name +
                                         ": initializer out of range");
            if (func_id < 0 ||
                func_id >= static_cast<int>(module.functions.size()))
                return Status::error(StatusCode::FailedPrecondition,
                                     global.name +
                                         ": initializer bad function");
        }
    }
    return Status::ok();
}

} // namespace hq::ir
