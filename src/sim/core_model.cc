#include "sim/core_model.h"

namespace hq {

using ir::IrOp;

CoreModel::CoreModel(CoreConfig config) : _config(config) {}

double
CoreModel::draw()
{
    _rng_state = _rng_state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(_rng_state >> 11) * 0x1.0p-53;
}

void
CoreModel::onInstr(const ir::Instr &instr)
{
    ++_instructions;

    int uops = 1;
    bool is_load = false;
    bool is_cond_branch = false;
    const bool is_appendwrite = ir::emitsMessage(instr.op);

    switch (instr.op) {
      case IrOp::Nop:
      case IrOp::ConstInt:
      case IrOp::FuncAddr:
      case IrOp::GlobalAddr:
        uops = 1;
        break;
      case IrOp::Alloca:
      case IrOp::Arith:
      case IrOp::Cast:
      case IrOp::RetAddrAddr:
        uops = 1;
        break;
      case IrOp::Load:
      case IrOp::SafeLoad:
        uops = 1;
        is_load = true;
        break;
      case IrOp::Store:
      case IrOp::SafeStore:
        uops = 2; // store-address + store-data
        break;
      case IrOp::Memcpy:
      case IrOp::Memmove:
        uops = 16; // rep-style block sequence (size-independent approx)
        is_load = true;
        break;
      case IrOp::Malloc:
      case IrOp::Free:
      case IrOp::Realloc:
        uops = 30; // allocator fast path
        is_load = true;
        break;
      case IrOp::CallDirect:
        uops = 3; // call + frame setup
        break;
      case IrOp::CallIndirect:
      case IrOp::VCall:
        uops = 4;
        is_load = true; // target load
        break;
      case IrOp::Ret:
        uops = 3;
        is_load = true; // return-pointer load
        break;
      case IrOp::Br:
        uops = 1;
        break;
      case IrOp::CondBr:
        uops = 1;
        is_cond_branch = true;
        break;
      case IrOp::Syscall:
        // Userspace cycles only (§5.3.1): syscall time excluded.
        uops = 2;
        break;

      case IrOp::HqGuardEnter:
      case IrOp::HqGuardExit:
        uops = 2; // flag load + store
        break;

      // --- Baseline designs ------------------------------------------
      case IrOp::CfiTypeCheck:
        uops = 4; // mask, load class, compare, branch
        is_load = true;
        break;
      case IrOp::MacDefine:
      case IrOp::MacCheck:
        uops = 12; // AESENC + table access + compare
        is_load = true;
        break;
      default:
        uops = 1;
        break;
    }

    if (is_appendwrite) {
        ++_appendwrites;
        // Both variants first compose the 32-byte message in memory
        // (the AppendWrite instruction takes a pointer to it): 4 stores.
        if (_config.hw_appendwrite) {
            // AppendWrite-µarch: compose + a single AppendWrite µop
            // (the store-address µop uses AppendAddr directly — one
            // fewer µop than a normal store — and bypasses the TLB).
            uops = 5;
        } else {
            // Software MODEL: compose, then fetch/bounds-check/
            // increment the shared AppendAddr, then copy the message
            // with ordinary stores; the shared header line ping-pongs
            // with the verifier core.
            uops = 13;
            if (draw() < _config.model_shared_miss)
                _stall_cycles += _config.mem_latency;
        }
    }

    if (is_load) {
        const double p = draw();
        if (p < _config.l2_miss)
            _stall_cycles += _config.mem_latency;
        else if (p < _config.l2_miss + _config.l1_miss)
            _stall_cycles += _config.l2_latency;
    }

    if (is_cond_branch && draw() < _config.mispredict)
        _stall_cycles += _config.mispredict_penalty;

    _uops += uops;
}

std::uint64_t
CoreModel::cycles() const
{
    return _uops / static_cast<std::uint64_t>(_config.issue_width) +
           _stall_cycles;
}

} // namespace hq
