#include "ir/module.h"

#include <sstream>

namespace hq::ir {

std::string
Instr::toString() const
{
    std::ostringstream os;
    if (dest >= 0)
        os << "r" << dest << " = ";
    os << irOpName(op);
    if (a >= 0)
        os << " r" << a;
    if (b >= 0)
        os << ", r" << b;
    if (c >= 0)
        os << ", r" << c;
    if (imm != 0 || op == IrOp::ConstInt || op == IrOp::FuncAddr ||
        op == IrOp::GlobalAddr || op == IrOp::Syscall)
        os << " #" << imm;
    if (target0 >= 0)
        os << " ->bb" << target0;
    if (target1 >= 0)
        os << "/bb" << target1;
    if (!args.empty()) {
        os << " (";
        for (std::size_t i = 0; i < args.size(); ++i)
            os << (i ? ", r" : "r") << args[i];
        os << ")";
    }
    return os.str();
}

bool
Module::structContainsFuncPtr(int struct_id) const
{
    if (struct_id < 0 || struct_id >= static_cast<int>(structs.size()))
        return false;
    const StructInfo &info = structs[struct_id];
    for (const FieldInfo &field : info.fields) {
        if (field.type.isProtectedPtr())
            return true;
        if (field.type.kind == TypeKind::Struct &&
            field.type.struct_id != struct_id &&
            structContainsFuncPtr(field.type.struct_id)) {
            return true;
        }
    }
    return false;
}

std::size_t
Module::instructionCount() const
{
    std::size_t count = 0;
    for (const Function &function : functions)
        for (const BasicBlock &block : function.blocks)
            count += block.instrs.size();
    return count;
}

} // namespace hq::ir
