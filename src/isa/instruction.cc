#include "isa/instruction.h"

#include <algorithm>

#include "common/log.h"

namespace caba {

Program::Program(std::vector<Instruction> instrs)
    : instrs_(std::move(instrs))
{
    for (const Instruction &inst : instrs_) {
        num_regs_ = std::max({num_regs_, inst.dst + 1, inst.src0 + 1,
                              inst.src1 + 1});
    }
    validate();
}

void
Program::validate() const
{
    CABA_CHECK(!instrs_.empty(), "empty program");
    CABA_CHECK(instrs_.back().op == Opcode::Exit ||
               instrs_.back().op == Opcode::Branch,
               "program must end with exit or back-edge");
    for (const Instruction &inst : instrs_) {
        if (inst.op == Opcode::Branch) {
            CABA_CHECK(inst.branch_target >= 0 &&
                       inst.branch_target < size(),
                       "branch target out of range");
        }
        if (isGlobalMem(inst.op))
            CABA_CHECK(inst.stream >= 0, "global access without stream");
    }
}

ProgramBuilder &
ProgramBuilder::alu(Opcode op, int dst, int src0, int src1)
{
    CABA_CHECK(isAlu(op) || op == Opcode::Sfu, "alu() with non-ALU opcode");
    Instruction inst;
    inst.op = op;
    inst.dst = dst;
    inst.src0 = src0;
    inst.src1 = src1;
    instrs_.push_back(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::ldGlobal(int dst, int stream, int addr_reg)
{
    Instruction inst;
    inst.op = Opcode::LdGlobal;
    inst.dst = dst;
    inst.src0 = addr_reg;
    inst.stream = stream;
    instrs_.push_back(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::stGlobal(int src, int stream, int addr_reg)
{
    Instruction inst;
    inst.op = Opcode::StGlobal;
    inst.src0 = src;
    inst.src1 = addr_reg;
    inst.stream = stream;
    instrs_.push_back(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::ldShared(int dst, int addr_reg)
{
    Instruction inst;
    inst.op = Opcode::LdShared;
    inst.dst = dst;
    inst.src0 = addr_reg;
    instrs_.push_back(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::stShared(int src, int addr_reg)
{
    Instruction inst;
    inst.op = Opcode::StShared;
    inst.src0 = src;
    inst.src1 = addr_reg;
    instrs_.push_back(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::branchTo(int target)
{
    Instruction inst;
    inst.op = Opcode::Branch;
    inst.branch_target = target;
    instrs_.push_back(inst);
    return *this;
}

ProgramBuilder &
ProgramBuilder::exit()
{
    Instruction inst;
    inst.op = Opcode::Exit;
    instrs_.push_back(inst);
    return *this;
}

Program
ProgramBuilder::build()
{
    return Program(std::move(instrs_));
}

} // namespace caba
