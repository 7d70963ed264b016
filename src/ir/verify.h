/**
 * @file
 * IR well-formedness verification: every block terminated, registers
 * single-assigned and defined before use (within dominance), branch
 * targets and ids in range, and no op that must stay ordered before a
 * syscall between a System-Call message and its syscall. Run by tests
 * and by the pass manager between passes to catch instrumentation bugs
 * early.
 */

#ifndef HQ_IR_VERIFY_H
#define HQ_IR_VERIFY_H

#include "common/status.h"
#include "ir/module.h"

namespace hq::ir {

/** Verify one function; returns the first problem found. */
Status verifyFunction(const Module &module, const Function &function);

/** Verify the entire module. */
Status verifyModule(const Module &module);

} // namespace hq::ir

#endif // HQ_IR_VERIFY_H
