/**
 * @file
 * System-Call synchronization message placement (§2.2, §3.2).
 *
 * The monitored program must send a System-Call message before each
 * system call so the kernel-paused syscall can resume as soon as the
 * verifier has drained the message stream. The paper places the message
 * at the earliest program point that (under non-exceptional control
 * flow) dominates the system call, is post-dominated by it, and does
 * not dominate any other message or function call that also dominates
 * the syscall — pipelining the message's processing latency with the
 * program's own pre-syscall computation.
 *
 * This pass implements that rule: it hoists the message upward past
 * message-free, call-free instructions (those the IR op table does not
 * mark ir::ordersBeforeSyscall) inside the block, then through
 * single-predecessor/single-successor dominator chain blocks for which
 * the syscall block is a post-dominator. It must run after every pass
 * that inserts messages; ir::verifyFunction rejects a module in which
 * one sits between a System-Call message and its syscall.
 */

#include "compiler/passes.h"
#include "ir/cfg.h"
#include "ir/dominators.h"
#include "kernel/kernel.h"

namespace hq {

using ir::Instr;
using ir::IrOp;

void
SyscallSyncPass::run(ir::Module &module, StatSet &stats)
{
    for (ir::Function &function : module.functions) {
        // Find syscall sites first (positions shift as we insert).
        struct SyscallSite
        {
            int block;
            int index;
            std::uint64_t sysno;
        };
        std::vector<SyscallSite> sites;
        for (int b = 0; b < static_cast<int>(function.blocks.size()); ++b) {
            const auto &instrs = function.blocks[b].instrs;
            for (int i = 0; i < static_cast<int>(instrs.size()); ++i) {
                if (instrs[i].op != IrOp::Syscall)
                    continue;
                if (_elide_readonly &&
                    KernelModule::isReadOnlySyscall(instrs[i].imm)) {
                    stats.increment("sync.readonly_elided");
                    continue;
                }
                sites.push_back({b, i, instrs[i].imm});
            }
        }
        if (sites.empty())
            continue;

        const ir::Cfg cfg(function);
        const ir::DominatorTree dom(cfg);
        const ir::DominatorTree pdom(cfg, /*post=*/true);

        // Process sites in reverse so earlier insertions do not shift
        // later indices within the same block.
        for (auto it = sites.rbegin(); it != sites.rend(); ++it) {
            int place_block = it->block;
            int place_index = it->index;

            // Hoist within the block.
            while (place_index > 0 &&
                   !ir::ordersBeforeSyscall(
                       function.blocks[place_block]
                           .instrs[place_index - 1]
                           .op)) {
                --place_index;
            }

            // Hoist into dominating predecessors: the predecessor must
            // dominate the current block, have it as unique successor
            // (so the current block post-dominates it under
            // non-exceptional flow), and the syscall block must
            // post-dominate the predecessor.
            while (place_index == 0) {
                const auto &preds = cfg.predecessors(place_block);
                if (preds.size() != 1)
                    break;
                const int pred = preds[0];
                if (pred == place_block ||
                    cfg.successors(pred).size() != 1)
                    break;
                if (!dom.dominates(pred, it->block))
                    break;
                if (!pdom.dominates(it->block, pred) &&
                    it->block != pred)
                    break;
                // Find the hoist limit inside the predecessor
                // (before its terminator).
                int limit =
                    static_cast<int>(function.blocks[pred].instrs.size()) -
                    1;
                while (limit > 0 &&
                       !ir::ordersBeforeSyscall(
                           function.blocks[pred].instrs[limit - 1].op)) {
                    --limit;
                }
                place_block = pred;
                place_index = limit;
                if (limit != 0)
                    break; // blocked mid-way: stop here
            }

            Instr msg;
            msg.op = IrOp::HqSyscallMsg;
            msg.imm = it->sysno;
            msg.flags = ir::kFlagInstrumentation;
            auto &instrs = function.blocks[place_block].instrs;
            instrs.insert(instrs.begin() + place_index, msg);
            stats.increment("sync.messages");
            if (place_block != it->block || place_index != it->index)
                stats.increment("sync.hoisted");
        }
    }
}

} // namespace hq
