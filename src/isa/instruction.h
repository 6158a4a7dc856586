/**
 * @file
 * The micro-ISA executed by the simulated SIMT cores. Workload kernels
 * and CABA assist-warp subroutines are both expressed as sequences of
 * these instructions; the core models fetch/issue/execute timing while
 * the semantics relevant to the study (register dependences, memory
 * addresses, loop control) are explicit fields.
 */
#ifndef CABA_ISA_INSTRUCTION_H
#define CABA_ISA_INSTRUCTION_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace caba {

/** Operation classes; each maps to one execution pipeline. */
enum class Opcode : std::uint8_t {
    AluInt,     ///< Integer SIMD op (ALU pipeline).
    AluFp,      ///< FP32 SIMD op (ALU pipeline).
    Sfu,        ///< Special-function op: transcendental etc. (SFU pipe).
    Mov,        ///< Register move (ALU pipeline, used for live-in/out).
    LdGlobal,   ///< Global load through L1/L2/DRAM.
    StGlobal,   ///< Global store through L1/L2/DRAM.
    LdShared,   ///< Shared-memory load (on-chip, fixed latency).
    StShared,   ///< Shared-memory store.
    Branch,     ///< Loop back-edge: taken while the warp has trips left.
    Exit,       ///< Terminates the warp.
};

/** True for the two global-memory opcodes. */
constexpr bool
isGlobalMem(Opcode op)
{
    return op == Opcode::LdGlobal || op == Opcode::StGlobal;
}

/** True for opcodes that occupy the LDST pipeline. */
constexpr bool
isMem(Opcode op)
{
    return isGlobalMem(op) || op == Opcode::LdShared ||
           op == Opcode::StShared;
}

/** True for opcodes executed on the ALU pipeline. */
constexpr bool
isAlu(Opcode op)
{
    return op == Opcode::AluInt || op == Opcode::AluFp || op == Opcode::Mov;
}

/** Sentinel meaning "no register operand". */
inline constexpr int kNoReg = -1;

/**
 * One static instruction. Register numbers are virtual per-thread
 * registers; the per-block register footprint is numRegs() of the
 * enclosing program.
 */
struct Instruction
{
    Opcode op = Opcode::AluInt;
    int dst = kNoReg;           ///< Destination register, if any.
    int src0 = kNoReg;          ///< First source register, if any.
    int src1 = kNoReg;          ///< Second source register, if any.

    /**
     * For global memory ops: index of the kernel's address stream that
     * generates the 32 lane addresses for this access. -1 otherwise.
     */
    int stream = -1;

    /** For Branch: index of the loop-head instruction. */
    int branch_target = -1;
};

/**
 * A straight-line program with one optional loop (Branch back-edge),
 * mirroring the steady-state inner loop of a GPU kernel. Per-thread
 * register count is derived from the highest register referenced.
 */
class Program
{
  public:
    Program() = default;
    explicit Program(std::vector<Instruction> instrs);

    const std::vector<Instruction> &instructions() const { return instrs_; }
    const Instruction &at(int pc) const { return instrs_[pc]; }
    int size() const { return static_cast<int>(instrs_.size()); }
    bool empty() const { return instrs_.empty(); }

    /** Per-thread architectural register footprint (1 + max reg id). */
    int numRegs() const { return num_regs_; }

    /** Validates branch targets and register ids; panics when broken. */
    void validate() const;

  private:
    std::vector<Instruction> instrs_;
    int num_regs_ = 0;
};

/** Fluent builder used by the workload generator and assist subroutines. */
class ProgramBuilder
{
  public:
    /** Appends an ALU op writing @p dst from @p src0/@p src1. */
    ProgramBuilder &alu(Opcode op, int dst, int src0 = kNoReg,
                        int src1 = kNoReg);
    /** Appends a global load of @p stream into @p dst (address in src0). */
    ProgramBuilder &ldGlobal(int dst, int stream, int addr_reg = kNoReg);
    /** Appends a global store of @p src over @p stream. */
    ProgramBuilder &stGlobal(int src, int stream, int addr_reg = kNoReg);
    ProgramBuilder &ldShared(int dst, int addr_reg = kNoReg);
    ProgramBuilder &stShared(int src, int addr_reg = kNoReg);
    /** Appends the loop back-edge to instruction @p target. */
    ProgramBuilder &branchTo(int target);
    ProgramBuilder &exit();

    /** Current instruction count (next instruction's index). */
    int pc() const { return static_cast<int>(instrs_.size()); }

    Program build();

  private:
    std::vector<Instruction> instrs_;
};

} // namespace caba

#endif // CABA_ISA_INSTRUCTION_H
