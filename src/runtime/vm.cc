#include "runtime/vm.h"

#include <thread>

#include "common/log.h"
#include "telemetry/telemetry.h"

namespace hq {

using ir::ArithKind;
using ir::Instr;
using ir::IrOp;

const char *
exitKindName(ExitKind kind)
{
    switch (kind) {
      case ExitKind::Ok: return "ok";
      case ExitKind::Crash: return "crash";
      case ExitKind::Hang: return "hang";
      case ExitKind::Killed: return "killed";
      case ExitKind::InlineViolation: return "inline-violation";
      case ExitKind::GuardFailure: return "guard-failure";
    }
    return "?";
}

namespace {

std::uint64_t
roundUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

} // namespace

Vm::Vm(const ir::Module &module, const VmConfig &config, HqRuntime *runtime)
    : _module(module),
      _config(config),
      _runtime(runtime),
      _memory([&] {
          MemoryLayout layout = config.layout;
          layout.guard_pages = config.guard_pages;
          return layout;
      }()),
      _stack_cursor(MemoryLayout::kStackBase),
      _heap_cursor(MemoryLayout::kHeapBase)
{
    _safe_cursor = _memory.safeStackBase();
    _guard_flags.assign(module.functions.size(), 0);

    // Per-function total alloca footprint (frame sizing).
    _alloca_totals.resize(module.functions.size(), 0);
    for (std::size_t f = 0; f < module.functions.size(); ++f) {
        std::uint64_t total = 0;
        for (const auto &block : module.functions[f].blocks)
            for (const Instr &instr : block.instrs)
                if (instr.op == IrOp::Alloca)
                    total += roundUp(instr.imm ? instr.imm : 8, 8);
        _alloca_totals[f] = total;
    }

    // Clang/LLVM CFI vcall metadata: which functions appear in vtables.
    for (const auto &cls : _module.classes)
        for (int fn : cls.vtable)
            if (fn >= 0)
                _vtable_functions.insert(fn);

    layoutGlobals();
}

void
Vm::layoutGlobals()
{
    _global_addrs.resize(_module.globals.size(), 0);
    Addr cursor = MemoryLayout::kGlobalBase + 64;
    for (const auto &global : _module.globals) {
        cursor = roundUp(cursor, 16);
        _global_addrs[global.id] = cursor;
        for (const auto &[offset, value] : global.word_init)
            _memory.write64(cursor + offset, value);
        for (const auto &[offset, func_id] : global.funcptr_init)
            _memory.write64(cursor + offset, encodeFuncPtr(func_id));
        cursor += roundUp(global.size ? global.size : 8, 8);
    }
    // Read-only protection is applied after initialization writes.
    for (const auto &global : _module.globals) {
        if (global.section == ir::Section::RoData)
            _memory.protectReadOnly(_global_addrs[global.id],
                                    global.size);
    }
}

void
Vm::registerGlobalPointers()
{
    // The instrumentation's startup initializer informs the verifier of
    // global control-flow pointers (§4.1.4). Read-only globals
    // (vtables) cannot change and need no registration.
    for (const auto &global : _module.globals) {
        if (global.section == ir::Section::RoData)
            continue;
        for (const auto &[offset, func_id] : global.funcptr_init) {
            const Addr addr = _global_addrs[global.id] + offset;
            const std::uint64_t value = encodeFuncPtr(func_id);
            if (_config.hq_messages && _runtime)
                _runtime->sendDefine(addr, value);
            // CCFI/CPI register global control-flow pointers from
            // startup constructors as well.
            if (_config.ccfi_runtime)
                _mac_table[addr] =
                    macCompute(addr, value, global.funcptr_class);
            if (_config.cpi_runtime)
                _safe_store[addr] = value;
        }
    }
}

Addr
Vm::heapAlloc(std::uint64_t size)
{
    const std::uint64_t rounded = roundUp(size ? size : 8, 16);
    auto it = _free_lists.find(rounded);
    if (it != _free_lists.end() && !it->second.empty()) {
        // LIFO reuse: freed blocks are recycled, which is what makes
        // heap use-after-free exploitable.
        const Addr addr = it->second.back();
        it->second.pop_back();
        _alloc_sizes[addr] = rounded;
        return addr;
    }
    const Addr addr = _heap_cursor;
    if (addr + rounded >
        MemoryLayout::kHeapBase + _config.layout.heap_size)
        return kNullAddr;
    _heap_cursor += rounded;
    _alloc_sizes[addr] = rounded;
    return addr;
}

bool
Vm::heapFree(Addr addr, std::uint64_t &size_out)
{
    auto it = _alloc_sizes.find(addr);
    if (it == _alloc_sizes.end())
        return false;
    size_out = it->second;
    _free_lists[it->second].push_back(addr);
    _alloc_sizes.erase(it);
    return true;
}

std::uint64_t
Vm::macCompute(Addr addr, std::uint64_t value, int type_class) const
{
    // Models CCFI's one-round AES MAC keyed on (address, value, static
    // type): a few mixing rounds of real computation. Including the
    // static type class is what makes CCFI flag benign type-decayed
    // pointers (§5.1).
    std::uint64_t state = addr ^ (value * 0x9e3779b97f4a7c15ULL) ^
                          (static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(type_class))
                           << 32);
    // CCFI's MAC is a single AES round, but its real cost includes
    // spilling/reloading the pointer through the reserved XMM registers
    // and the register pressure it induces; the extra mixing rounds
    // model that per-access cost.
    for (int round = 0; round < 48; ++round) {
        state ^= state >> 30;
        state *= 0xbf58476d1ce4e5b9ULL;
        state ^= state >> 27;
    }
    return state;
}

Status
Vm::pushFrame(int func_id, const std::vector<int> &arg_regs, int dest_reg)
{
    if (func_id < 0 ||
        func_id >= static_cast<int>(_module.functions.size())) {
        return Status::error(StatusCode::PermissionDenied,
                             "wild jump: invalid function id");
    }
    const ir::Function &callee = _module.functions[func_id];

    if (func_id == _config.attack_payload_function)
        _result.attack_payload_reached = true;

    Frame frame;
    frame.func = func_id;
    frame.regs.assign(callee.num_regs, 0);
    if (!_frames.empty()) {
        const Frame &caller = _frames.back();
        for (std::size_t i = 0;
             i < arg_regs.size() &&
             i < static_cast<std::size_t>(callee.num_params);
             ++i) {
            frame.regs[i] = caller.regs[arg_regs[i]];
        }
        frame.ret_block = _cur_block;
        frame.ret_index = _cur_index + 1;
    }
    frame.dest_reg = dest_reg;
    frame.stack_save = _stack_cursor;
    frame.safe_save = _safe_cursor;

    // Frame layout: [alloca area][return-pointer slot]. A linear
    // overflow from the last local therefore reaches the return
    // pointer — unless the design moved it to the safe stack.
    const std::uint64_t alloca_total = _alloca_totals[func_id];
    frame.frame_base = _stack_cursor;
    frame.alloca_cursor = _stack_cursor;
    _stack_cursor += alloca_total;

    if (_config.safe_stack) {
        frame.retptr_addr = _safe_cursor;
        _safe_cursor += 8;
    } else {
        frame.retptr_addr = _stack_cursor;
        _stack_cursor += 8;
    }
    if (_stack_cursor >=
        MemoryLayout::kStackBase + _config.layout.stack_size) {
        return Status::error(StatusCode::ResourceExhausted,
                             "stack overflow");
    }

    frame.expected_ret = kRetTokenTag | ++_ret_nonce;
    Status status = _memory.write64(frame.retptr_addr, frame.expected_ret);
    if (!status.isOk())
        return status;

    const bool protect_ret = callee.attrs.instrument_return;
    if (protect_ret && _config.hq_messages && _config.retptr_messages &&
        _runtime) {
        // POINTER-DEFINE of the return pointer in the prologue (§4.1.6).
        _runtime->sendDefine(frame.retptr_addr, frame.expected_ret);
    }
    if (protect_ret && _config.ccfi_runtime) {
        _mac_table[frame.retptr_addr] =
            macCompute(frame.retptr_addr, frame.expected_ret, -2);
    }

    if (_config.memsafety_messages && _runtime && alloca_total > 0)
        _runtime->sendAllocCreate(frame.frame_base, alloca_total);

    _frames.push_back(std::move(frame));
    _cur_block = 0;
    _cur_index = 0;
    return Status::ok();
}

RunResult
Vm::finish(ExitKind kind, std::string detail)
{
    _result.exit = kind;
    _result.detail = std::move(detail);
    // Counts accumulate locally in _result during interpretation (zero
    // hot-loop cost) and flush into the registry once per run.
    if (telemetry::enabled()) {
        static telemetry::Counter &instrs =
            telemetry::Registry::instance().counter("vm.instructions");
        static telemetry::Counter &hq_ops =
            telemetry::Registry::instance().counter(
                "vm.instrumentation_ops");
        instrs.add(_result.instructions);
        hq_ops.add(_result.hq_ops);
    }
    return _result;
}

RunResult
Vm::run(const std::vector<std::uint64_t> &args)
{
    _result = RunResult{};

    registerGlobalPointers();


    Status status = pushFrame(_module.entry_function, {}, -1);
    if (!status.isOk())
        return finish(ExitKind::Crash, status.message());
    for (std::size_t i = 0; i < args.size() &&
                            i < _frames.back().regs.size();
         ++i) {
        _frames.back().regs[i] = args[i];
    }

    while (true) {
        if (++_result.instructions > _config.max_instructions)
            return finish(ExitKind::Hang, "instruction budget exhausted");

        Frame &frame = _frames.back();
        const ir::Function &function = _module.functions[frame.func];
        const Instr &instr =
            function.blocks[_cur_block].instrs[_cur_index];
        if (_config.cycle_sink)
            _config.cycle_sink->onInstr(instr);
        // Instrumentation density stat (HqDefine..LabelJoinMsg are
        // contiguous): exported as vm.instrumentation_ops at finish().
        if (instr.op >= IrOp::HqDefine && instr.op <= IrOp::LabelJoinMsg)
            ++_result.hq_ops;
        auto R = [&frame](int reg) -> std::uint64_t & {
            return frame.regs[reg];
        };

        switch (instr.op) {
          case IrOp::Nop:
            break;

          case IrOp::ConstInt:
            R(instr.dest) = instr.imm;
            break;

          case IrOp::FuncAddr:
            R(instr.dest) = encodeFuncPtr(static_cast<int>(instr.imm));
            break;

          case IrOp::GlobalAddr:
            R(instr.dest) = _global_addrs[instr.imm];
            break;

          case IrOp::Alloca: {
            const std::uint64_t size = roundUp(instr.imm ? instr.imm : 8, 8);
            if (frame.alloca_cursor + size >
                frame.frame_base + _alloca_totals[frame.func]) {
                // An alloca re-executed in a loop would silently run
                // into the return-pointer slot; fail loudly instead.
                return finish(ExitKind::Crash,
                              "alloca exceeds static frame footprint");
            }
            R(instr.dest) = frame.alloca_cursor;
            frame.alloca_cursor += size;
            break;
          }

          case IrOp::Arith: {
            const std::uint64_t a = R(instr.a);
            const std::uint64_t b = R(instr.b);
            std::uint64_t out = 0;
            switch (static_cast<ArithKind>(instr.aux)) {
              case ArithKind::Add: out = a + b; break;
              case ArithKind::Sub: out = a - b; break;
              case ArithKind::Mul: out = a * b; break;
              case ArithKind::Xor: out = a ^ b; break;
              case ArithKind::And: out = a & b; break;
              case ArithKind::Or: out = a | b; break;
              case ArithKind::Shr: out = a >> (b & 63); break;
              case ArithKind::Lt: out = a < b; break;
              case ArithKind::Eq: out = a == b; break;
            }
            R(instr.dest) = out;
            break;
          }

          case IrOp::Cast:
            R(instr.dest) = R(instr.a);
            break;

          case IrOp::Load: {
            std::uint64_t value = 0;
            status = _memory.read64(R(instr.a), value);
            if (!status.isOk())
                return finish(ExitKind::Crash, status.message());
            R(instr.dest) = value;
            if (_config.memsafety_messages && _runtime &&
                R(instr.a) >= MemoryLayout::kHeapBase &&
                R(instr.a) < MemoryLayout::kStackBase) {
                _runtime->sendAllocCheck(R(instr.a));
            }
            break;
          }

          case IrOp::Store: {
            if (_config.memsafety_messages && _runtime &&
                R(instr.a) >= MemoryLayout::kHeapBase &&
                R(instr.a) < MemoryLayout::kStackBase) {
                _runtime->sendAllocCheck(R(instr.a));
            }
            status = _memory.write64(R(instr.a), R(instr.b));
            if (!status.isOk())
                return finish(ExitKind::Crash, status.message());
            break;
          }

          case IrOp::Memcpy:
          case IrOp::Memmove: {
            const Addr dst = R(instr.a);
            const Addr src = R(instr.b);
            const std::uint64_t size = R(instr.c);
            if (_config.hq_messages && _runtime &&
                (instr.flags & ir::kFlagEmitBlockMsg)) {
                // Message precedes the event (§2.2).
                _runtime->sendBlockCopy(src, dst, size);
            }
            status = _memory.copy(dst, src, size,
                                  /*allow_overlap=*/instr.op ==
                                      IrOp::Memmove);
            if (!status.isOk())
                return finish(ExitKind::Crash, status.message());
            if (_config.cpi_runtime && size > 0) {
                // CPI interposes on the libc block routines and moves
                // relocated pointers together with the raw bytes.
                std::vector<std::pair<Addr, std::uint64_t>> moved;
                auto it = _safe_store.lower_bound(src);
                while (it != _safe_store.end() && it->first < src + size) {
                    moved.emplace_back(dst + (it->first - src),
                                       it->second);
                    ++it;
                }
                for (const auto &[a, v] : moved)
                    _safe_store[a] = v;
            }
            break;
          }

          case IrOp::Malloc: {
            const std::uint64_t size =
                instr.a >= 0 ? R(instr.a) : instr.imm;
            const Addr addr = heapAlloc(size);
            if (addr == kNullAddr)
                return finish(ExitKind::Crash, "out of heap memory");
            R(instr.dest) = addr;
            if (_config.memsafety_messages && _runtime)
                _runtime->sendAllocCreate(addr, roundUp(size ? size : 8,
                                                        16));
            break;
          }

          case IrOp::Free: {
            const Addr addr = R(instr.a);
            std::uint64_t size = 0;
            if (!heapFree(addr, size))
                return finish(ExitKind::Crash, "invalid free");
            if (_config.hq_messages && _runtime &&
                (instr.flags & ir::kFlagEmitBlockMsg)) {
                _runtime->sendBlockInvalidate(addr, size);
            }
            // CPI leaves safe-store entries in freed memory in place
            // (it has no use-after-free detection; Table 3): a stale
            // typed load still observes the old value.
            if (_config.memsafety_messages && _runtime)
                _runtime->sendAllocDestroy(addr);
            break;
          }

          case IrOp::Realloc: {
            const Addr old_addr = R(instr.a);
            const std::uint64_t new_size = R(instr.b);
            std::uint64_t old_size = 0;
            if (!heapFree(old_addr, old_size))
                return finish(ExitKind::Crash, "invalid realloc");
            const Addr new_addr = heapAlloc(new_size);
            if (new_addr == kNullAddr)
                return finish(ExitKind::Crash, "out of heap memory");
            if (_config.hq_messages && _runtime &&
                (instr.flags & ir::kFlagEmitBlockMsg)) {
                _runtime->sendBlockMove(old_addr, new_addr, old_size);
            }
            if (new_addr != old_addr) {
                _memory.copy(new_addr, old_addr,
                             std::min(old_size, roundUp(new_size, 16)),
                             false);
            }
            if (_config.cpi_runtime) {
                // Move relocated pointers with the block.
                std::vector<std::pair<Addr, std::uint64_t>> moved;
                auto it = _safe_store.lower_bound(old_addr);
                while (it != _safe_store.end() &&
                       it->first < old_addr + old_size) {
                    moved.emplace_back(new_addr +
                                           (it->first - old_addr),
                                       it->second);
                    it = _safe_store.erase(it);
                }
                for (const auto &[a, v] : moved)
                    _safe_store[a] = v;
            }
            if (_config.memsafety_messages && _runtime) {
                _runtime->sendAllocExtend(old_addr, new_addr,
                                          roundUp(new_size ? new_size : 8,
                                                  16));
            }
            R(instr.dest) = new_addr;
            break;
          }

          case IrOp::CallDirect: {
            status = pushFrame(static_cast<int>(instr.imm), instr.args,
                               instr.dest);
            if (!status.isOk())
                return finish(ExitKind::Crash, status.message());
            continue; // control moved; do not advance _cur_index
          }

          case IrOp::CallIndirect: {
            const std::uint64_t target = R(instr.a);
            if (!isFuncPtrValue(target)) {
                return finish(ExitKind::Crash,
                              target == 0
                                  ? "execution of NULL pointer"
                                  : "indirect call of corrupt pointer");
            }
            status = pushFrame(decodeFuncPtr(target), instr.args,
                               instr.dest);
            if (!status.isOk())
                return finish(ExitKind::Crash, status.message());
            continue;
          }

          case IrOp::VCall: {
            // Unlowered virtual call (baseline pipeline): load the
            // vtable pointer and the slot entry, then call.
            std::uint64_t vtable = 0;
            status = _memory.read64(R(instr.a), vtable);
            if (!status.isOk())
                return finish(ExitKind::Crash, status.message());
            std::uint64_t target = 0;
            status = _memory.read64(vtable + instr.imm * 8, target);
            if (!status.isOk())
                return finish(ExitKind::Crash, status.message());
            if (!isFuncPtrValue(target))
                return finish(ExitKind::Crash,
                              "virtual call through corrupt vtable");
            status = pushFrame(decodeFuncPtr(target), instr.args,
                               instr.dest);
            if (!status.isOk())
                return finish(ExitKind::Crash, status.message());
            continue;
          }

          case IrOp::Syscall: {
            if (_runtime && _config.naive_sync) {
                // Naive synchronous validation (ablation): block until
                // the verifier has consumed every in-flight message.
                while (_runtime->pendingMessages() > 0)
                    std::this_thread::yield();
                _runtime->sendSyscallMsg(instr.imm);
            }
            if (_runtime) {
                status = _runtime->syscallEnter(
                    instr.imm, /*spin_fast_path=*/!_config.naive_sync);
                if (!status.isOk())
                    return finish(ExitKind::Killed, status.message());
            }
            break;
          }

          case IrOp::Setjmp: {
            // Save the continuation and store an opaque token into the
            // jmp_buf: the "internal pointer" that HQ-CFI protects as a
            // control-flow pointer (§4.1.3).
            JmpState state;
            state.frame_depth = _frames.size();
            state.frame_token = frame.expected_ret;
            state.block = _cur_block;
            state.index = _cur_index;
            state.dest_reg = instr.dest;
            state.stack_cursor = _stack_cursor;
            state.safe_cursor = _safe_cursor;
            state.alloca_cursor = frame.alloca_cursor;
            const std::uint64_t token = kJmpTokenTag | ++_jmp_nonce;
            _jmp_states[token] = state;
            status = _memory.write64(R(instr.a), token);
            if (!status.isOk())
                return finish(ExitKind::Crash, status.message());
            R(instr.dest) = 0; // direct return
            break;
          }

          case IrOp::Longjmp: {
            std::uint64_t token = 0;
            status = _memory.read64(R(instr.a), token);
            if (!status.isOk())
                return finish(ExitKind::Crash, status.message());
            const std::uint64_t value =
                instr.b >= 0 && R(instr.b) != 0 ? R(instr.b) : 1;

            if (isFuncPtrValue(token)) {
                // Corrupted jmp_buf diverts control (attack mechanics).
                status = pushFrame(decodeFuncPtr(token), {}, -1);
                if (!status.isOk())
                    return finish(ExitKind::Crash, status.message());
                continue;
            }
            auto it = _jmp_states.find(token);
            if ((token & kTagMask) != kJmpTokenTag ||
                it == _jmp_states.end()) {
                return finish(ExitKind::Crash, "longjmp: corrupt jmp_buf");
            }
            const JmpState &state = it->second;
            if (state.frame_depth > _frames.size() ||
                _frames[state.frame_depth - 1].expected_ret !=
                    state.frame_token) {
                // The setjmp frame already returned: undefined behavior
                // in C; a crash here.
                return finish(ExitKind::Crash,
                              "longjmp after frame exit");
            }
            _frames.resize(state.frame_depth);
            _stack_cursor = state.stack_cursor;
            _safe_cursor = state.safe_cursor;
            _frames.back().alloca_cursor = state.alloca_cursor;
            _frames.back().regs[state.dest_reg] = value;
            _cur_block = state.block;
            _cur_index = state.index + 1;
            continue;
          }

          case IrOp::RetAddrAddr:
            // __builtin_return_address-style disclosure: yields the
            // location of the return pointer wherever it lives —
            // including on the safe stack (§5.2).
            R(instr.dest) = frame.retptr_addr;
            break;

          case IrOp::Ret: {
            const ir::Function &func = function;
            const bool protect_ret = func.attrs.instrument_return;

            std::uint64_t stored_ret = 0;
            status = _memory.read64(frame.retptr_addr, stored_ret);
            if (!status.isOk())
                return finish(ExitKind::Crash, status.message());

            if (protect_ret && _config.hq_messages &&
                _config.retptr_messages && _runtime) {
                // POINTER-CHECK-INVALIDATE in the epilogue (§4.1.6).
                _runtime->sendCheckInvalidate(frame.retptr_addr,
                                              stored_ret);
            }
            if (protect_ret && _config.ccfi_runtime) {
                ++_result.inline_checks;
                auto it = _mac_table.find(frame.retptr_addr);
                const bool ok =
                    it != _mac_table.end() &&
                    it->second == macCompute(frame.retptr_addr,
                                             stored_ret, -2);
                if (it != _mac_table.end())
                    _mac_table.erase(it);
                if (!ok) {
                    ++_result.inline_violations;
                    if (_config.stop_on_inline_violation)
                        return finish(ExitKind::InlineViolation,
                                      "CCFI: return pointer MAC "
                                      "mismatch");
                }
            }

            const std::uint64_t ret_value =
                instr.a >= 0 ? R(instr.a) : 0;
            const Frame popped = _frames.back();
            _frames.pop_back();
            _stack_cursor = popped.stack_save;
            _safe_cursor = popped.safe_save;

            if (_config.memsafety_messages && _runtime &&
                _alloca_totals[popped.func] > 0) {
                _runtime->sendAllocDestroyAll(
                    popped.frame_base, _alloca_totals[popped.func]);
            }

            if (stored_ret != popped.expected_ret) {
                // The in-memory return pointer was corrupted. Using it
                // transfers control: to a function (hijack) or into
                // garbage (crash).
                if (isFuncPtrValue(stored_ret)) {
                    if (!_frames.empty()) {
                        // Arrange for the hijacked function's own clean
                        // return to resume at the caller's resume point.
                        _cur_block = popped.ret_block;
                        _cur_index = popped.ret_index - 1;
                    }
                    status = pushFrame(decodeFuncPtr(stored_ret), {}, -1);
                    if (!status.isOk())
                        return finish(ExitKind::Crash, status.message());
                    continue;
                }
                return finish(ExitKind::Crash,
                              "return pointer corrupted");
            }

            if (_frames.empty()) {
                _result.return_value = ret_value;
                if (_runtime)
                    _runtime->exit();
                return finish(ExitKind::Ok, "");
            }
            if (popped.dest_reg >= 0)
                _frames.back().regs[popped.dest_reg] = ret_value;
            _cur_block = popped.ret_block;
            _cur_index = popped.ret_index;
            continue;
          }

          case IrOp::Br:
            _cur_block = instr.target0;
            _cur_index = 0;
            continue;

          case IrOp::CondBr:
            _cur_block = R(instr.a) ? instr.target0 : instr.target1;
            _cur_index = 0;
            continue;

          // --- HerQules instrumentation (message ops: see default) -----
          case IrOp::HqGuardEnter: {
            // Store-to-load forwarding recursion guard (§4.1.4): if the
            // guard is still set upon a subsequent call, terminate.
            if (_guard_flags[instr.aux])
                return finish(ExitKind::GuardFailure,
                              "forwarding guard tripped: recompile "
                              "without store-to-load forwarding");
            _guard_flags[instr.aux] = 1;
            break;
          }
          case IrOp::HqGuardExit:
            _guard_flags[instr.aux] = 0;
            break;

          // --- Baseline designs ----------------------------------------
          case IrOp::CfiTypeCheck: {
            ++_result.inline_checks;
            const std::uint64_t target = R(instr.a);
            bool ok = isFuncPtrValue(target);
            if (ok) {
                const int fn = decodeFuncPtr(target);
                if (fn < 0 ||
                    fn >= static_cast<int>(_module.functions.size())) {
                    ok = false;
                } else if (instr.imm == ir::kAnyVtableClass) {
                    ok = _vtable_functions.count(fn) > 0;
                } else {
                    const int expected = static_cast<int>(
                        static_cast<std::int64_t>(instr.imm));
                    ok = _module.functions[fn].signature_class ==
                         expected;
                }
            }
            if (!ok) {
                ++_result.inline_violations;
                if (_config.stop_on_inline_violation)
                    return finish(ExitKind::InlineViolation,
                                  "Clang CFI: signature class mismatch");
            }
            break;
          }

          case IrOp::MacDefine:
            _mac_table[R(instr.a)] =
                macCompute(R(instr.a), R(instr.b),
                           instr.type.signature_class);
            break;

          case IrOp::MacCheck: {
            ++_result.inline_checks;
            auto it = _mac_table.find(R(instr.a));
            const bool ok = it != _mac_table.end() &&
                            it->second ==
                                macCompute(R(instr.a), R(instr.b),
                                           instr.type.signature_class);
            if (!ok) {
                ++_result.inline_violations;
                if (_config.stop_on_inline_violation)
                    return finish(ExitKind::InlineViolation,
                                  "CCFI: pointer MAC mismatch");
            }
            break;
          }

          case IrOp::SafeStore:
            _safe_store[R(instr.a)] = R(instr.b);
            break;

          case IrOp::SafeLoad: {
            auto it = _safe_store.find(R(instr.a));
            // A miss models CPI's unredirected aliased access: the
            // pointer was stored outside the safe store, so the load
            // observes garbage (NULL) — §5.1.
            R(instr.dest) = it == _safe_store.end() ? 0 : it->second;
            break;
          }

          default: {
            if (!ir::emitsMessage(instr.op))
                return finish(ExitKind::Crash,
                              std::string("unimplemented opcode ") +
                                  ir::irOpName(instr.op));
            // Message ops: the IR op table gives each one's message.
            // HqSyscallMsg is suppressed under the naive-sync ablation:
            // that design has no pipelined advance message.
            if (!_config.hq_messages || !_runtime ||
                (instr.op == IrOp::HqSyscallMsg && _config.naive_sync))
                break;
            const ir::IrOpInfo &info = ir::irOpInfo(instr.op);
            switch (info.msg) {
              case ir::MsgShape::A:
                _runtime->send(Message(info.wire, R(instr.a)));
                break;
              case ir::MsgShape::AB:
                _runtime->send(Message(info.wire, R(instr.a), R(instr.b)));
                break;
              case ir::MsgShape::AImm:
                _runtime->send(Message(info.wire, R(instr.a), instr.imm));
                break;
              case ir::MsgShape::Imm:
                _runtime->send(Message(info.wire, instr.imm));
                break;
              case ir::MsgShape::SizedAB:
                _runtime->send(Message(Opcode::BlockSize, R(instr.c)));
                _runtime->send(Message(info.wire, R(instr.a), R(instr.b)));
                break;
              case ir::MsgShape::None:
              case ir::MsgShape::RuntimeBlock:
                break;
            }
            break;
          }
        }

        ++_cur_index;
    }
}

} // namespace hq
