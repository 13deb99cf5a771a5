/**
 * @file
 * ISA tests: opcode metadata, kernel structural validation, builder
 * resource accounting, disassembly, and trace hashing/deduplication.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "funcsim/trace.h"
#include "isa/builder.h"
#include "isa/disasm.h"
#include "expect_sim_error.h"

namespace gpuperf {
namespace isa {
namespace {

TEST(Opcodes, ClassificationPredicates)
{
    EXPECT_TRUE(isMemory(Opcode::kLds));
    EXPECT_TRUE(isMemory(Opcode::kLdt));
    EXPECT_FALSE(isMemory(Opcode::kFmad));
    EXPECT_FALSE(isMemory(Opcode::kFmadS));  // modeled as arith+shared
    EXPECT_TRUE(isSharedMem(Opcode::kSts));
    EXPECT_FALSE(isSharedMem(Opcode::kStg));
    EXPECT_TRUE(isGlobalMem(Opcode::kLdg));
    EXPECT_TRUE(isControl(Opcode::kBar));
    EXPECT_FALSE(isControl(Opcode::kMov));
    EXPECT_TRUE(writesRegister(Opcode::kLds));
    EXPECT_FALSE(writesRegister(Opcode::kSts));
    EXPECT_FALSE(writesRegister(Opcode::kSetpI));
    EXPECT_TRUE(writesPredicate(Opcode::kSetpF));
}

TEST(Opcodes, Table1Mapping)
{
    EXPECT_EQ(instrTypeOf(Opcode::kFmul), arch::InstrType::TypeI);
    EXPECT_EQ(instrTypeOf(Opcode::kFmad), arch::InstrType::TypeII);
    EXPECT_EQ(instrTypeOf(Opcode::kFmadS), arch::InstrType::TypeII);
    EXPECT_EQ(instrTypeOf(Opcode::kMov), arch::InstrType::TypeII);
    EXPECT_EQ(instrTypeOf(Opcode::kRcp), arch::InstrType::TypeIII);
    EXPECT_EQ(instrTypeOf(Opcode::kSin), arch::InstrType::TypeIII);
    EXPECT_EQ(instrTypeOf(Opcode::kDfma), arch::InstrType::TypeIV);
    // Materialized control flow costs a type II slot.
    EXPECT_EQ(instrTypeOf(Opcode::kBrk), arch::InstrType::TypeII);
}

TEST(Opcodes, DynamicCostOfReconvergenceMarkersIsZero)
{
    EXPECT_EQ(dynamicCost(Opcode::kEndif), 0);
    EXPECT_EQ(dynamicCost(Opcode::kLoop), 0);
    EXPECT_EQ(dynamicCost(Opcode::kExit), 0);
    EXPECT_EQ(dynamicCost(Opcode::kIf), 1);
    EXPECT_EQ(dynamicCost(Opcode::kEndloop), 1);
    EXPECT_EQ(dynamicCost(Opcode::kBar), 1);
}

TEST(Builder, TracksRegistersAndPredicates)
{
    KernelBuilder b("regs");
    Reg r0 = b.reg();
    Reg r1 = b.regRange(4);
    Pred p = b.pred();
    EXPECT_EQ(r0, 0);
    EXPECT_EQ(r1, 1);
    EXPECT_EQ(p, 0);
    b.movImm(r0, 1);
    Kernel k = b.build(128);
    EXPECT_EQ(k.numRegisters(), 5);
    EXPECT_EQ(k.sharedBytes(), 128);
}

TEST(Builder, AppendsExit)
{
    KernelBuilder b("exit");
    Reg r = b.reg();
    b.movImm(r, 1);
    Kernel k = b.build();
    EXPECT_EQ(k.instructions().back().op, Opcode::kExit);
    EXPECT_EQ(k.countStatic(Opcode::kMovImm), 1);
}

TEST(Kernel, MatchTablesForNestedStructures)
{
    KernelBuilder b("nest");
    Reg r = b.reg();
    Pred p = b.pred();
    b.movImm(r, 0);                    // 0
    b.setpIImm(p, CmpOp::kLt, r, 5);   // 1
    b.beginIf(p);                      // 2
    b.beginLoop();                     // 3
    b.brk(p);                          // 4
    b.iaddImm(r, r, 1);                // 5
    b.endLoop();                       // 6
    b.beginElse();                     // 7
    b.movImm(r, 9);                    // 8
    b.endIf();                         // 9
    Kernel k = b.build();
    EXPECT_EQ(k.elseOf(2), 7);
    EXPECT_EQ(k.endifOf(2), 9);
    EXPECT_EQ(k.endifOf(7), 9);
    EXPECT_EQ(k.endloopOf(3), 6);
    EXPECT_EQ(k.endloopOf(4), 6);  // BRK resolves to its loop's end
    EXPECT_EQ(k.loopOf(6), 3);
}

TEST(KernelErrors, UnmatchedIf)
{
    KernelBuilder b("bad");
    Reg r = b.reg();
    Pred p = b.pred();
    b.setpIImm(p, CmpOp::kLt, r, 1);
    b.beginIf(p);
    EXPECT_SIM_ERROR(b.build(), "unterminated");
}

TEST(KernelErrors, ElseWithoutIf)
{
    KernelBuilder b("bad");
    b.beginElse();
    EXPECT_SIM_ERROR(b.build(), "without open");
}

TEST(KernelErrors, BrkInsideIfRejected)
{
    // BRK must be an immediate child of a LOOP.
    KernelBuilder b("bad");
    Reg r = b.reg();
    Pred p = b.pred();
    b.setpIImm(p, CmpOp::kLt, r, 1);
    b.beginLoop();
    b.beginIf(p);
    b.brk(p);
    b.endIf();
    b.endLoop();
    EXPECT_SIM_ERROR(b.build(), "directly inside a LOOP");
}

TEST(KernelErrors, RegisterOutOfRange)
{
    std::vector<Instruction> instrs(1);
    instrs[0].op = Opcode::kMov;
    instrs[0].dst = 5;          // beyond the declared register count
    instrs[0].src[0] = 0;
    EXPECT_SIM_ERROR(Kernel("bad", instrs, 2, 1, 0), "out of range");
}

TEST(Disasm, RendersRepresentativeInstructions)
{
    KernelBuilder b("dis");
    Reg a = b.reg();
    Reg c = b.reg();
    Reg d = b.reg();
    Pred p = b.pred();
    b.fmad(d, a, c, d);
    b.fmadShared(d, a, c, 16, d);
    b.lds(a, c, 8);
    b.stg(c, d, 4);
    b.setpIImm(p, CmpOp::kGe, a, 10);
    b.beginIf(p);
    b.endIf();
    Kernel k = b.build();

    const auto &ins = k.instructions();
    EXPECT_EQ(disassemble(ins[0]), "mad $r2, $r0, $r1, $r2");
    EXPECT_EQ(disassemble(ins[1]), "mad.s $r2, $r0, smem[$r1+16], $r2");
    EXPECT_EQ(disassemble(ins[2]), "lds $r0, smem[$r1+8]");
    EXPECT_EQ(disassemble(ins[3]), "stg gmem[$r1+4], $r2");
    EXPECT_EQ(disassemble(ins[4]), "setp.i.ge $p0, $r0, 10");
    EXPECT_EQ(disassemble(ins[5]), "@$p0 if");

    std::ostringstream os;
    disassemble(k, os);
    EXPECT_NE(os.str().find("// kernel dis"), std::string::npos);
}

TEST(Trace, HashAndEquality)
{
    funcsim::WarpTrace a;
    funcsim::TraceOp op;
    op.unit = UnitKind::kArithII;
    op.dst = 3;
    a.ops.push_back(op);
    funcsim::WarpTrace b = a;
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_TRUE(a == b);
    b.ops[0].conflict = 4;
    EXPECT_FALSE(a == b);
    funcsim::WarpTrace c = a;
    c.ops[0].sharedPasses = 2;
    EXPECT_FALSE(a == c);
    EXPECT_NE(a.hash(), c.hash());
}

TEST(Trace, InternDeduplicates)
{
    funcsim::LaunchTrace lt;
    funcsim::WarpTrace a;
    funcsim::TraceOp op;
    op.unit = UnitKind::kSharedMem;
    a.ops.push_back(op);
    funcsim::WarpTrace b = a;
    funcsim::WarpTrace c = a;
    c.ops[0].conflict = 7;
    EXPECT_EQ(lt.intern(std::move(a)), 0);
    EXPECT_EQ(lt.intern(std::move(b)), 0);
    EXPECT_EQ(lt.intern(std::move(c)), 1);
    EXPECT_EQ(lt.pool.size(), 2u);
}

} // namespace
} // namespace isa
} // namespace gpuperf
